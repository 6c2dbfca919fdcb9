"""End-to-end CLI coverage through main(), asserting on the JSON documents."""

import contextlib
import io
import json
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from feedback_centrality import (
    AxiomTag,
    Graph,
    Mode,
    ProcessKind,
    edge_compensation,
    edge_multiplication,
    format_weight,
    katz_prestige,
    out_regularity,
    parse_graph,
    proportional_combine,
    serialize_graph,
)
from feedback_centrality import cli, linalg, walks
from feedback_centrality.cli import main

from .conftest import GRAPH_DIR
from .strategies import dg_texts

DEMO5 = str(GRAPH_DIR / "demo5.dg")
DEMO6 = str(GRAPH_DIR / "demo6.dg")

DOC_KEYS = ["schema", "command", "arguments", "values", "values_full", "diagnostics"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def usage_error(capsys, *argv) -> str:
    """Run a command that argparse must refuse; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestCentrality:
    def test_exact_rational_katz_prestige(self, capsys):
        doc = run_json(capsys, "centrality", "--input", DEMO5, "--measure", "kp")
        assert list(doc) == DOC_KEYS
        assert doc["schema"] == "feedback-centrality/1"
        assert doc["values"] == {
            "v1": "2/13", "v2": "3/13", "v3": "3/13", "v4": "4/13", "v5": "1/13",
        }
        assert doc["values_full"]["v4"] == "4/13"
        assert doc["diagnostics"]["value_total"] == "1"
        assert doc["diagnostics"]["max_recursion_residual"] == "0"

    def test_eigenvector_needs_float_mode(self, capsys):
        code, _out, err = run(capsys, "centrality", "--input", DEMO5, "--measure", "ev")
        assert code == 1
        assert "error:" in err and "float" in err
        doc = run_json(
            capsys, "centrality", "--input", DEMO5, "--measure", "ev", "--mode", "float"
        )
        assert float(doc["values"]["v4"]) == pytest.approx(4 / 13, rel=1e-6)

    def test_pagerank_defaults_its_decay(self, capsys):
        doc = run_json(capsys, "centrality", "--input", DEMO5, "--measure", "pr")
        assert doc["arguments"]["alpha"] == "0.85"

    def test_katz_requires_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["centrality", "--input", DEMO5, "--measure", "katz"])
        assert exc.value.code == 2

    def test_parameterless_measure_refuses_a_decay(self, capsys):
        err = usage_error(
            capsys, "centrality", "--input", DEMO5, "--measure", "kp", "--alpha", "0.5"
        )
        assert "kp takes no --alpha" in err

    def test_missing_file_is_a_usage_level_error(self, capsys):
        code, _out, err = run(
            capsys, "centrality", "--input", "no-such-file.dg", "--measure", "kp"
        )
        assert code == 2 and "error:" in err

    def test_malformed_graph_reports_the_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_text("node a 1\nedge a a zero\n")
        code, _out, err = run(capsys, "centrality", "--input", str(bad), "--measure", "kp")
        assert code == 1 and "line 2" in err

    def test_float_overflow_literal_is_an_error_line(self, capsys, tmp_path):
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e400\nedge b a 1\n")
        code, _out, err = run(
            capsys, "centrality", "--input", str(big), "--measure", "pr", "--mode", "float"
        )
        assert code == 1
        assert err.startswith("error:") and "line 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (("centrality", "--measure", "pr"), 0),
            (("centrality", "--measure", "kp"), 0),
            (("centrality", "--measure", "katz", "--alpha", "1/10"), 1),
            (("classify",), 1),
        ],
        ids=["pr", "kp", "katz", "classify"],
    )
    def test_rational_weight_beyond_float_range_is_an_error_line(
        self, capsys, tmp_path, argv, expected_code
    ):
        # exact in rational mode; only the katz class and classify need float
        # spectra to answer, pr and kp omit their spectral diagnostics
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e400\nedge b a 1\n")
        code, out, err = run(capsys, *argv, "--input", str(big))
        assert code == expected_code
        if code == 1:
            assert out == ""
            assert err.startswith("error:") and "does not fit in a float" in err
        else:
            assert err == ""
            assert "does not fit in a float" in json.loads(out)["diagnostics"]["spectral_omitted"]

    @pytest.mark.parametrize(
        "measure, values, total",
        [("pr", {"a": "20/3", "b": "20/3"}, "40/3"), ("kp", {"a": "1", "b": "1"}, "2")],
        ids=["pr", "kp"],
    )
    def test_exact_values_survive_float_spectral_diagnostics(
        self, capsys, tmp_path, measure, values, total
    ):
        # a's only out-edge carries 10^400, so both transition weights are 1
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e400\nedge b a 1\n")
        doc = run_json(capsys, "centrality", "--input", str(big), "--measure", measure)
        assert doc["values_full"] == values
        diag = doc["diagnostics"]
        assert list(diag) == [
            "measure", "class", "component_eigenvalues", "spectral_radius",
            "spectral_omitted", "max_recursion_residual", "value_total",
        ]
        assert diag["class"] == {"ok": True, "reason": None}
        assert diag["component_eigenvalues"] is None and diag["spectral_radius"] is None
        assert diag["spectral_omitted"] == "weight of edge 'a' -> 'b' does not fit in a float"
        assert diag["max_recursion_residual"] == "0"
        assert diag["value_total"] == total

    def test_acyclic_weight_beyond_float_range_needs_no_float(self, capsys, tmp_path):
        # singleton components take no matrix, so the spectral fields are exact
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e400\n")
        doc = run_json(capsys, "centrality", "--input", str(big), "--measure", "pr")
        diag = doc["diagnostics"]
        assert "spectral_omitted" not in diag
        assert diag["component_eigenvalues"] == ["0", "0"] and diag["spectral_radius"] == "0"

    def test_overflowing_float_out_degree_is_an_error_line(self, capsys, tmp_path):
        # every weight fits in a float, but a's out-degree 2e308 does not
        big = tmp_path / "big.dg"
        big.write_text(
            "node a 1\nnode b 1\nedge a b 1e308\nedge a a 1e308\nedge b a 1\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "centrality", "--input", str(big), "--measure", "pr",
                "--mode", "float",
            )
        assert code == 1 and out == ""
        assert err == "error: out-degree of node 'a' does not fit in a float\n"
        assert caught == []

    def test_overflowing_transform_is_an_error_line(self, capsys, tmp_path):
        # 1e300 * 1e10 overflows to inf, which no graph may carry
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e300\n")
        code, out, err = run(
            capsys, "transform", "em", "--input", str(big), "--mode", "float",
            "--node", "a", "--factor", "1e10",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not finite" in err
        assert "Traceback" not in err

    def test_non_finite_multiplied_edge_is_named(self, capsys, tmp_path):
        # a -> b is the first edge the factor carries past the float range
        big = tmp_path / "big.dg"
        big.write_text("node a 1\nnode b 1\nedge a b 1e300\nedge b a 1e300\nedge a a 1e300\n")
        code, out, err = run(
            capsys, "transform", "em", "--input", str(big), "--mode", "float",
            "--node", "a", "--factor", "1e10",
        )
        assert (code, out) == (1, "")
        assert err == "error: weight of edge 'a' -> 'b' is not finite: inf\n"

    def test_non_finite_compensated_edge_is_named(self, capsys):
        # v2's one out-edge, of weight 2, is carried past the float range
        code, out, err = run(
            capsys, "transform", "ec", "--input", DEMO5, "--mode", "float",
            "--node", "v2", "--factor", "1e308",
        )
        assert (code, out) == (1, "")
        assert err == "error: weight of edge 'v2' -> 'v3' is not finite: inf\n"

    def test_unsolvable_perron_block_is_an_error_line(self, capsys, tmp_path):
        # lambda = 1, but dense eig returns eigenvalues 0, 0 for this 2-cycle
        # and a Perron vector with a zero entry: a typed error, not a crash
        extreme = tmp_path / "extreme.dg"
        extreme.write_text("node a 1\nnode b 1\nedge a b 1e-300\nedge b a 1e300\n")
        code, _out, err = run(
            capsys, "centrality", "--input", str(extreme), "--measure", "ev", "--mode", "float"
        )
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ("--measure", "pr"),
            ("--measure", "kp"),
            ("--measure", "katz", "--alpha", "0.1"),
            ("--measure", "ev", "--mode", "float"),
        ],
        ids=["pr", "kp", "katz", "ev-float"],
    )
    def test_graph_without_nodes_gives_an_empty_document(self, capsys, tmp_path, args):
        empty = tmp_path / "empty.dg"
        empty.write_text("")
        doc = run_json(capsys, "centrality", "--input", str(empty), *args)
        assert doc["values"] == {}
        assert doc["diagnostics"]["max_recursion_residual"] == "0"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _err = run(
            capsys, "centrality", "--input", DEMO5, "--measure", "kp",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["values"]["v5"] == "1/13"

    @pytest.mark.parametrize("measure, alpha", [
        ("pr", None), ("katz", "0.1"), ("kp", None), ("ev", None),
    ])
    @pytest.mark.parametrize("path", [DEMO5, DEMO6])
    def test_float_document_is_that_of_the_rounded_exact_graph(
        self, capsys, monkeypatch, path, measure, alpha
    ):
        # both documents come from this process, so the LAPACK build drops out
        argv = ["centrality", "--input", path, "--measure", measure, "--mode", "float"]
        argv += ["--alpha", alpha] if alpha else []
        parsed = run(capsys, *argv)
        monkeypatch.setattr(
            cli, "_read_graph",
            lambda p, mode: parse_graph(Path(p).read_text(), Mode.RATIONAL).to_float(),
        )
        assert run(capsys, *argv) == parsed
        assert parsed[0] == 0

    @pytest.mark.parametrize("measure", ["pr", "katz", "kp"])
    def test_rational_measures_past_a_hundred_nodes_solve_the_recursion_exactly(
        self, capsys, tmp_path, measure
    ):
        # a strongly connected graph shaped like the benchmark's exact ones:
        # a covering cycle plus random edges, weights on a small grid
        rng = random.Random(100)
        grid = (F(1, 2), F(1), F(2), F(1, 3))
        names = [f"r{i}" for i in range(101)]
        nodes = {v: rng.choice(grid) for v in names}
        order = rng.sample(names, len(names))
        pairs = set(zip(order, order[1:] + order[:1]))
        pairs |= {(u, v) for u in names for v in names if rng.random() < 0.08}
        edges = [(u, v, rng.choice(grid)) for u, v in sorted(pairs)]
        path = tmp_path / "r101.dg"
        path.write_text("".join(
            [f"node {v} {format_weight(w)}\n" for v, w in nodes.items()]
            + [f"edge {u} {v} {format_weight(w)}\n" for u, v, w in edges]
        ))
        outdeg = dict.fromkeys(names, F(0))
        for u, _v, w in edges:
            outdeg[u] += w
        # the largest out-degree bounds lambda, so this alpha keeps alpha * lambda <= 1/2
        alpha = {"pr": F(17, 20), "katz": F(1, 2 * math.ceil(max(outdeg.values()))), "kp": 1}
        argv = ["centrality", "--mode", "rational", "--input", str(path), "--measure", measure]
        argv += [f"--alpha={alpha[measure]}"] if measure != "kp" else []
        x = {v: F(s) for v, s in run_json(capsys, *argv)["values_full"].items()}
        flow = dict.fromkeys(names, F(0))
        for u, v, w in edges:
            flow[v] += w * x[u] if measure == "katz" else w * x[u] / outdeg[u]
        if measure == "kp":
            assert all(x[v] == flow[v] for v in names)
            assert sum(x.values()) == sum(nodes.values())
        else:
            assert all(x[v] == alpha[measure] * flow[v] + nodes[v] for v in names)


class TestSimulate:
    def test_distributed_run_reports_the_limit_measure(self, capsys):
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", "float",
            "--process", "distributed", "--alpha", "0.85", "--steps", "60",
        )
        diag = doc["diagnostics"]
        assert diag["process"] == "distributed"
        assert diag["steps"] == 60
        assert diag["recursion"]["limit_measure"] == "pagerank(0.85)"
        assert diag["recursion"]["series_field"] == "partial_sum"
        assert diag["tail_bound_max"] is not None
        assert diag["tail_bound_omitted"] is None and diag["recursion_omitted"] is None
        assert float(diag["initial_total"]) == 1.0

    def test_undamped_run_says_why_the_tail_bound_is_missing(self, capsys):
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", "float",
            "--process", "distributed", "--alpha", "1", "--steps", "20",
        )
        diag = doc["diagnostics"]
        keys = list(diag)
        assert keys.index("tail_bound_omitted") == keys.index("tail_bound_max") + 1
        assert keys.index("recursion_omitted") == keys.index("recursion") + 1
        assert diag["tail_bound_max"] is None
        assert diag["tail_bound_omitted"] == "distributed tail bound needs alpha < 1"
        assert diag["recursion"]["limit_measure"] == "katz-prestige"
        assert diag["recursion_omitted"] is None

    def test_unmatched_decay_says_why_the_recursion_is_missing(self, capsys):
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", "float",
            "--process", "parallel", "--alpha", "1", "--steps", "5",
        )
        diag = doc["diagnostics"]
        assert diag["recursion"] is None
        assert "matches no measure" in diag["recursion_omitted"]
        assert "alpha * lambda" in diag["tail_bound_omitted"]

    # a decay matched by a measure whose class the graph lies outside: the
    # limit was named anyway, while `centrality` refused the same measure
    OUTSIDE_CLASS = {
        "kp": ("node a 1\nnode b 1\nedge a b 1\n", "distributed", "1",
               "graph is outside the katz-prestige class: "
               "node 'a' forms a component with no cycle through it"),
        "ev": ("node a 1\nnode b 1\nnode c 1\nedge a a 2\nedge b c 1\nedge c b 1\n",
               "parallel", "1/2",
               "graph is outside the eigenvector class: "
               "component principal eigenvalues differ: 1 vs 2"),
    }

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("limit", list(OUTSIDE_CLASS))
    def test_limit_outside_its_class_says_why_the_recursion_is_missing(
        self, capsys, tmp_path, limit, mode
    ):
        text, process, alpha, reason = self.OUTSIDE_CLASS[limit]
        path = tmp_path / "g.dg"
        path.write_text(text)
        doc = run_json(
            capsys, "simulate", "--input", str(path), "--mode", mode,
            "--process", process, "--alpha", alpha, "--steps", "5",
        )
        diag = doc["diagnostics"]
        assert diag["recursion"] is None
        assert diag["recursion_omitted"] == reason

    def test_zero_steps_has_no_cesaro(self, capsys):
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", "rational",
            "--process", "distributed", "--alpha", "1/2", "--steps", "0",
        )
        assert doc["diagnostics"]["cesaro"] is None
        assert doc["values"] == {v: "1/5" for v in ("v1", "v2", "v3", "v4", "v5")}

    def test_parallel_critical_decay_reports_cesaro(self, capsys):
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", "float",
            "--process", "parallel", "--alpha", "0.5", "--steps", "200",
        )
        diag = doc["diagnostics"]
        assert diag["recursion"]["limit_measure"] == "eigenvector"
        assert diag["recursion"]["series_field"] == "cesaro"
        assert diag["tail_bound_max"] is None  # alpha * lambda = 1: no geometric tail
        assert diag["cesaro"] is not None

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_one_request_runs_one_series(self, capsys, monkeypatch, mode):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "sum_series", counting(cli.sum_series))
        monkeypatch.setattr(walks, "sum_series", counting(walks.sum_series))
        doc = run_json(
            capsys, "simulate", "--input", DEMO5, "--mode", mode,
            "--process", "distributed", "--alpha", "1/2", "--steps", "12",
        )
        assert doc["diagnostics"]["recursion"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("process", ["parallel", "distributed"])
    def test_graph_without_nodes(self, capsys, tmp_path, mode, process):
        empty = tmp_path / "empty.dg"
        empty.write_text("")
        doc = run_json(
            capsys, "simulate", "--input", str(empty), "--mode", mode,
            "--process", process, "--alpha", "1/2",
        )
        assert doc["values"] == {}
        assert doc["diagnostics"]["tail_bound_max"] == "0"

    def no_certificate(self, capsys, tmp_path, mode, text, alpha):
        # acyclic, so alpha * lambda = 0, but 1/max(z) or max(z) - 1 is below
        # float resolution: theta = 1 - 1/max(z) rounds to 1 or to 0.  Zero
        # steps is below the longest path's one edge, so the majorizer is needed
        path = tmp_path / "g.dg"
        path.write_text(text)
        doc = run_json(
            capsys, "simulate", "--input", str(path), "--mode", mode,
            "--process", "parallel", "--alpha", alpha, "--steps", "0",
        )
        diag = doc["diagnostics"]
        assert diag["tail_bound_max"] is None
        assert "no contraction certificate" in diag["tail_bound_omitted"]
        assert diag["recursion"]["limit_measure"].startswith("katz(")

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_parallel_tail_bound_without_certificate_heavy_edge(self, capsys, tmp_path, mode):
        text = "node a 1\nnode b 1\nedge a b 1e17\n"
        self.no_certificate(capsys, tmp_path, mode, text, "1/2")

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_parallel_tail_bound_without_certificate_huge_decay(self, capsys, tmp_path, mode):
        text = "node a 1\nnode b 1\nedge a b 1\n"
        self.no_certificate(capsys, tmp_path, mode, text, "1e300")

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_parallel_tail_bound_without_certificate_when_z_rounds_to_one(
        self, capsys, tmp_path, mode
    ):
        # z = 1 + 1e-17 rounds to 1, so theta = 0: tail_bound_max read "0"
        # while a's 1e300 sends 1e283 to b after step 0
        text = "node a 1e300\nnode b 1\nedge a b 1e-17\n"
        self.no_certificate(capsys, tmp_path, mode, text, "1")

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("weight", ["1e15", "1e17"])
    def test_acyclic_tail_after_the_longest_path_is_zero(self, capsys, tmp_path, mode, weight):
        # the state after step 1 is exactly 0; the majorizer's bound read
        # 2.502e+29 for the 1e15 edge and had no certificate for the 1e17 one
        path = tmp_path / "g.dg"
        path.write_text(f"node a 1\nnode b 1\nedge a b {weight}\n")
        doc = run_json(
            capsys, "simulate", "--input", str(path), "--mode", mode,
            "--process", "parallel", "--alpha", "1/2", "--steps", "3",
        )
        assert doc["diagnostics"]["tail_bound_max"] == "0"
        assert doc["diagnostics"]["tail_bound_omitted"] is None

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_tail_bound_whose_matrix_overflows_is_omitted_with_the_solve_message(
        self, capsys, tmp_path, mode
    ):
        # alpha * 1e17 overflows in I - alpha*A^T: a numpy warning, then exit 1
        path = tmp_path / "g.dg"
        path.write_text(OVERFLOWING_KATZ_TEXT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "simulate", "--input", str(path), "--mode", mode,
                "--process", "parallel", "--alpha", "1e300", "--steps", "0",
            )
        assert (code, err, caught) == (0, "", [])
        diag = json.loads(out)["diagnostics"]
        assert diag["tail_bound_max"] is None
        assert diag["tail_bound_omitted"] == FLOAT_SOLVE_FAILED

    def test_exact_mass_beyond_float_range_is_omitted_with_a_reason(self, capsys, tmp_path):
        # exact, but (1e300/2)^5 overflows a float
        text = "node a 1\nnode b 1\nedge a b 1e300\nedge b a 1e300\n"
        huge = tmp_path / "huge.dg"
        huge.write_text(text)
        code, out, err = run(
            capsys, "simulate", "--input", str(huge), "--mode", "rational",
            "--process", "parallel", "--alpha", "1/2", "--steps", "5",
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        series = walks.sum_series(parse_graph(text), ProcessKind.PARALLEL, F(1, 2), 5)
        assert doc["values_full"] == {v: format_weight(x) for v, x in series.partial_sum.items()}
        diag = doc["diagnostics"]
        keys = list(diag)
        assert keys[keys.index("mass_in_flight") + 1] == "mass_in_flight_omitted"
        assert diag["mass_in_flight"] is None
        assert diag["mass_in_flight_omitted"] == "mass in flight does not fit in a float"

    def test_float_series_beyond_float_range_is_an_error_line(self, capsys, tmp_path):
        # the state passes 1e600 at step 2, and the dense step then meets inf * 0
        path = tmp_path / "g.dg"
        path.write_text("node a 1\nnode b 1\nedge a a 1\nedge a b 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "simulate", "--input", str(path), "--mode", "float",
                "--process", "parallel", "--alpha", "1e300", "--steps", "3",
            )
        assert (code, out, caught) == (1, "", [])
        assert err == "error: walk series does not fit in a float within 3 steps\n"

    def test_exact_value_too_long_to_print_is_an_error_line(self, capsys, tmp_path):
        # a's value at step 12 is (1e300 * 1e300)^12, 7201 digits
        path = tmp_path / "g.dg"
        path.write_text("node a 1\nnode b 1\nedge a a 1e300\nedge a b 1\n")
        code, out, err = run(
            capsys, "simulate", "--input", str(path), "--mode", "rational",
            "--process", "parallel", "--alpha", "1e300", "--steps", "12",
        )
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == f"error: exact value has more than {limit} digits to print\n"

    def test_negative_steps_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--input", DEMO5, "--process", "distributed",
                "--alpha", "1/2", "--steps", "-3",
            ])
        assert exc.value.code == 2


class TestClassify:
    def test_demo5_facts(self, capsys):
        doc = run_json(capsys, "classify", "--input", DEMO5, "--alpha", "0.4")
        diag = doc["diagnostics"]
        assert diag["nodes"] == 5 and diag["edges"] == 7
        assert diag["strongly_connected"] is True
        assert diag["out_regular"] == "2"
        assert diag["semi_out_regular"] is True
        assert diag["component_count"] == 1
        assert float(diag["spectral_radius"]) == pytest.approx(2.0)
        classes = diag["classes"]
        assert classes["pagerank"]["ok"] is True
        assert classes["katz-prestige"]["ok"] is True
        assert classes["eigenvector"]["ok"] is True
        assert classes["katz"]["ok"] is True  # 0.4 * 2 < 1

    def test_decay_bound_violation_is_reported(self, capsys):
        doc = run_json(capsys, "classify", "--input", DEMO5, "--alpha", "0.5")
        entry = doc["diagnostics"]["classes"]["katz"]
        assert entry["ok"] is False
        assert entry["reason"]

    @pytest.mark.parametrize(
        "mode,alpha,expected",
        [
            ("rational", "-1/2", "error: decay parameter must be non-negative, got -1/2\n"),
            ("float", "-1/2", "error: decay parameter must be non-negative, got -0.5\n"),
            ("rational", "1e400", "error: decay parameter does not fit in a float\n"),
        ],
    )
    def test_alpha_is_read_in_the_graphs_mode(self, capsys, mode, alpha, expected):
        # classify read --alpha as a float in either mode: rational -1/2 said
        # "got -0.5", and 1e400 "--alpha '1e400' does not fit in a float"
        for verb in (("classify",), ("centrality", "--measure", "katz")):
            got = run(capsys, *verb, "--input", DEMO5, "--mode", mode, f"--alpha={alpha}")
            assert got == (1, "", expected)

    def test_negative_decay_beyond_the_float_range_is_refused_for_its_sign(self, capsys):
        # classify rounded the Katz decay to a float before judging its sign,
        # so it said "decay parameter does not fit in a float"
        expected = f"error: decay parameter must be non-negative, got -1{'0' * 400}\n"
        for verb in (("classify",), ("centrality", "--measure", "katz")):
            got = run(capsys, *verb, "--input", DEMO5, "--mode", "rational", "--alpha=-1e400")
            assert got == (1, "", expected)


class TestTransforms:
    def test_em_is_exact_and_reparseable(self, capsys, demo5):
        code, out, _err = run(
            capsys, "transform", "em", "--input", DEMO5, "--node", "v1",
            "--factor", "3/2",
        )
        assert code == 0
        assert parse_graph(out, Mode.RATIONAL) == edge_multiplication(demo5, "v1", F(3, 2))

    def test_opposite_is_an_involution(self, capsys, demo5, tmp_path):
        once = tmp_path / "opp.dg"
        code, _out, _err = run(
            capsys, "transform", "opposite", "--input", DEMO5, "--output", str(once)
        )
        assert code == 0
        code, out, _err = run(capsys, "transform", "opposite", "--input", str(once))
        assert code == 0
        assert out == serialize_graph(demo5, canonical=True)

    def test_normalize_yields_unit_out_degrees(self, capsys):
        code, out, _err = run(capsys, "transform", "normalize", "--input", DEMO5)
        assert code == 0
        assert out_regularity(parse_graph(out, Mode.RATIONAL)) == F(1)

    def test_combine_with_a_measure_adds_the_values(self, capsys, demo5):
        code, out, _err = run(
            capsys, "transform", "combine", "--input", DEMO5,
            "--nodes", "v1,v2", "--measure", "kp",
        )
        assert code == 0
        before = katz_prestige(demo5)
        after = katz_prestige(parse_graph(out, Mode.RATIONAL))
        assert after["v2"] == before["v1"] + before["v2"]

    def test_ec_matches_edge_compensation(self, capsys, demo5):
        code, out, _err = run(
            capsys, "transform", "ec", "--input", DEMO5, "--node", "v1", "--factor", "2/3"
        )
        assert code == 0
        expected = edge_compensation(demo5, "v1", F(2, 3))
        assert out == serialize_graph(expected, canonical=True)

    def test_combine_by_values_matches_proportional_combine(self, capsys, demo5):
        code, out, _err = run(
            capsys, "transform", "combine", "--input", DEMO5,
            "--nodes", "v1,v2", "--values", "1,3",
        )
        assert code == 0
        expected = proportional_combine(demo5, "v1", "v2", F(1), F(3))
        assert out == serialize_graph(expected, canonical=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ("euler-construct", "--input", DEMO5, "--output", "OUT", "--mode", "float"),
            ("transform", "regularize", "--input", DEMO5, "--mode", "rational"),
            ("transform", "combine-groups", "--input", DEMO5, "--groups", "OUT",
             "--value", "1"),
        ],
        ids=["euler-construct-mode", "regularize-mode", "combine-groups-value"],
    )
    def test_fixed_settings_take_no_option(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        err = usage_error(capsys, *(str(out) if a == "OUT" else a for a in argv))
        assert err.startswith("usage:") and "unrecognized arguments" in err
        assert "Traceback" not in err and not out.exists()

    def test_combine_validates_its_pairs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "combine", "--input", DEMO5, "--nodes", "v1,v2,v3",
                  "--values", "1,2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["transform", "combine", "--input", DEMO5, "--nodes", "v1,v2"])
        assert exc.value.code == 2
        err = usage_error(
            capsys, "transform", "combine", "--input", DEMO5,
            "--nodes", "v1,v2", "--values", "1",
        )
        assert "--values expects 'a,b'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("transform", "combine", "--input", DEMO5, "--nodes", "a,b",
              "--measure", "pr"), "unknown node 'a'"),
            (("transform", "combine-groups", "--input", DEMO5, "--groups", "GROUPS"),
             "unknown node 'zz'"),
            (("check-axioms", "--min-size", "1", "--max-size", "2", "--trials", "2"),
             "at least 2 nodes"),
            (("transform", "combine-groups", "--input", "EMPTY", "--groups", "GROUPS"),
             "unknown node 'v1'"),
            (("transform", "combine-groups", "--input", "EMPTY", "--groups", "GROUPS",
              "--mode", "float"), "unknown node 'v1'"),
        ],
        ids=[
            "combine-by-measure",
            "combine-groups",
            "check-axioms-min-size",
            "combine-groups-no-nodes",
            "combine-groups-no-nodes-float",
        ],
    )
    def test_bad_input_is_an_error_line_not_a_traceback(
        self, capsys, tmp_path, argv, message
    ):
        groups = tmp_path / "g.groups"
        groups.write_text("group v1 v1\ngroup zz v1\n")
        empty = tmp_path / "empty.dg"
        empty.write_text("")
        paths = {"GROUPS": str(groups), "EMPTY": str(empty)}
        argv = [paths.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_regularize_defaults_to_float(self, capsys):
        code, out, _err = run(capsys, "transform", "regularize", "--input", DEMO5)
        assert code == 0
        g = parse_graph(out, Mode.FLOAT)
        assert out_regularity(g) == pytest.approx(2.0)


class TestEulerRoundTrip:
    @pytest.mark.parametrize(
        "demo, scale", [(DEMO5, 13), (DEMO6, 16)], ids=["demo5", "demo6"]
    )
    def test_construct_then_recombine_byte_identical(self, capsys, tmp_path, demo, scale):
        cycle_path = tmp_path / "cycle.dg"
        doc = run_json(
            capsys, "euler-construct", "--input", demo, "--output", str(cycle_path)
        )
        diag = doc["diagnostics"]
        assert diag["scale"] == scale
        assert diag["cycle_nodes"] == scale
        assert diag["edge_weight"] == "2"
        groups_path = tmp_path / "cycle.dg.groups"
        assert groups_path.exists()
        for line in groups_path.read_text().splitlines():
            assert line.startswith("group ")

        code, out, _err = run(
            capsys, "transform", "combine-groups", "--input", str(cycle_path),
            "--groups", str(groups_path),
        )
        assert code == 0
        source = parse_graph(Path(demo).read_text(), Mode.RATIONAL)
        assert out == serialize_graph(source, canonical=True)

    def test_round_trip_keeps_a_source_id_shaped_like_a_copy(self, capsys, tmp_path):
        source = tmp_path / "shadow.dg"
        source.write_text(
            "node a 1/3\nnode a#2 1/3\nnode b 1/3\n"
            "edge a b 1\nedge a a#2 1\nedge a#2 a 2\nedge b a 2\n"
        )
        cycle_path = tmp_path / "cycle.dg"
        run_json(capsys, "euler-construct", "--input", str(source), "--output", str(cycle_path))
        code, out, _err = run(
            capsys, "transform", "combine-groups", "--input", str(cycle_path),
            "--groups", str(tmp_path / "cycle.dg.groups"),
        )
        assert code == 0
        expected = parse_graph(source.read_text(), Mode.RATIONAL)
        assert out == serialize_graph(expected, canonical=True)

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.dg", tmp_path / "b.dg"
        run_json(capsys, "euler-construct", "--input", DEMO5, "--output", str(first))
        run_json(capsys, "euler-construct", "--input", DEMO5, "--output", str(second))
        assert first.read_text() == second.read_text()
        assert (tmp_path / "a.dg.groups").read_text() == (
            tmp_path / "b.dg.groups"
        ).read_text()

    def test_irregular_input_fails_with_guidance(self, capsys, tmp_path):
        irregular = tmp_path / "irr.dg"
        g = Graph(Mode.RATIONAL)
        for n, wt in [("p", F(1, 3)), ("q", F(1, 3)), ("r", F(1, 3))]:
            g.add_node(n, wt)
        g.add_edge("p", "q", F(2))
        g.add_edge("q", "r", F(1))
        g.add_edge("r", "p", F(1))
        irregular.write_text(serialize_graph(g))
        code, _out, err = run(
            capsys, "euler-construct", "--input", str(irregular),
            "--output", str(tmp_path / "c.dg"),
        )
        assert code == 1 and "normaliz" in err

    def test_bad_groups_file_reports_its_line(self, capsys, tmp_path):
        cycle_path = tmp_path / "cycle.dg"
        run_json(capsys, "euler-construct", "--input", DEMO5, "--output", str(cycle_path))
        groups = tmp_path / "broken.groups"
        groups.write_text("group v1 v1\nnonsense here\n")
        code, _out, err = run(
            capsys, "transform", "combine-groups", "--input", str(cycle_path),
            "--groups", str(groups),
        )
        assert code == 1 and "line 2" in err

    def test_groups_file_of_comments_only_is_refused(self, capsys, tmp_path):
        groups = tmp_path / "empty.groups"
        groups.write_text("# no groups here\n\n")
        code, out, err = run(
            capsys, "transform", "combine-groups", "--input", DEMO5,
            "--groups", str(groups),
        )
        assert code == 1 and out == ""
        assert "groups file defines no groups" in err


class TestCheckAxioms:
    def test_too_few_admissible_instances_is_an_error_line(self, capsys):
        # was a RuntimeError traceback from axioms.run_cell
        code, out, err = run(
            capsys, "check-axioms", "--axiom", "edge-deletion", "--measure", "kp",
            "--min-size", "1", "--max-size", "3", "--trials", "2", "--seed", "8",
        )
        assert code == 1 and out == ""
        assert err == (
            "error: edge-deletion x katz-prestige: only 1/2 admissible instances in 40 attempts\n"
        )

    def test_single_cell_run(self, capsys):
        doc = run_json(
            capsys, "check-axioms", "--axiom", "locality", "--measure", "pr",
            "--trials", "3", "--max-size", "6",
        )
        diag = doc["diagnostics"]
        assert diag["expected_mismatches"] == []
        assert list(diag["cells"]) == ["locality x pagerank"]
        cell = diag["cells"]["locality x pagerank"]
        assert cell["status"] == "PASS"
        assert cell["admissible"] == 3

    def test_failing_cell_ships_a_witness(self, capsys):
        doc = run_json(
            capsys, "check-axioms", "--axiom", "edge-multiplication",
            "--measure", "katz", "--trials", "3", "--max-size", "6",
        )
        cell = doc["diagnostics"]["cells"]["edge-multiplication x katz"]
        assert cell["status"] == "FAIL"
        assert cell["witness"] is not None
        assert "graph" in cell["witness"] and "factor" in cell["witness"]
        assert float(cell["witness_deviation"]) > 1e-8

    def test_deterministic_output(self, capsys):
        args = (
            "check-axioms", "--axiom", "cycle", "--measure", "kp",
            "--trials", "2", "--max-size", "6", "--seed", "5",
        )
        _code, first, _err = run(capsys, *args)
        _code, second, _err = run(capsys, *args)
        assert first == second

    def test_decay_override_from_the_readme(self, capsys):
        args = ("check-axioms", "--axiom", "edge-multiplication", "--measure", "katz",
                "--trials", "50")
        overridden = run_json(capsys, *args, "--alpha", "0.5")
        default = run_json(capsys, *args)  # the matrix's own katz decay is 0.5
        diag = overridden["diagnostics"]
        assert diag["cells"] == default["diagnostics"]["cells"]
        assert diag["expected_mismatches"] == []
        cell = diag["cells"]["edge-multiplication x katz"]
        assert cell["status"] == "FAIL" and cell["admissible"] == 50

    def test_parameterless_measure_refuses_a_decay(self, capsys):
        err = usage_error(capsys, "check-axioms", "--measure", "kp", "--alpha", "0.5")
        assert "kp takes no --alpha" in err

    @pytest.mark.parametrize(
        "trials,axiom,measure", [("0", "cycle", "kp"), ("-3", "baseline", "pr")]
    )
    def test_fewer_than_one_trial_is_an_error_line(self, capsys, trials, axiom, measure):
        # drew nothing, and reported every cell SKIPPED
        code, out, err = run(
            capsys, "check-axioms", "--trials", trials, "--axiom", axiom, "--measure", measure
        )
        assert (code, out, err) == (1, "", f"error: trials must be at least 1, got {trials}\n")

    @pytest.mark.parametrize("tolerance,shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
    def test_tolerance_that_is_not_a_finite_number_at_least_0_is_an_error_line(
        self, capsys, tolerance, shown
    ):
        # -1 and nan reported every cell FAIL, inf every cell PASS, each with
        # a NaN or Infinity token in the JSON
        code, out, err = run(
            capsys, "check-axioms", "--trials", "2", "--axiom", "locality", "--measure", "pr",
            "--max-size", "5", "--tolerance", tolerance,
        )
        assert (code, out, err) == (
            1, "", f"error: tolerance must be a finite number >= 0, got {shown}\n"
        )

    def test_alpha_needs_a_measure(self):
        with pytest.raises(SystemExit) as exc:
            main(["check-axioms", "--alpha", "0.3"])
        assert exc.value.code == 2


class TestOptionValues:
    """A bad numeric option value is an error line that names the option; it
    was reported as a "weight literal", as if it came from the graph file."""

    ALPHA_REQUESTS = {
        "centrality": ("centrality", "--input", DEMO5, "--measure", "katz"),
        "simulate": ("simulate", "--input", DEMO5, "--process", "parallel"),
        "classify": ("classify", "--input", DEMO5),
        "check-axioms": ("check-axioms", "--axiom", "cycle", "--measure", "katz"),
        "combine": ("transform", "combine", "--input", DEMO5, "--nodes", "v1,v2",
                    "--measure", "katz"),
    }
    # the value, and the error line it gives in float mode
    BAD_VALUES = {
        "1e400": "error: {} '1e400' does not fit in a float\n",
        "x": "error: bad {} 'x'\n",
    }

    def request(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        return err

    @pytest.mark.parametrize("value", list(BAD_VALUES))
    @pytest.mark.parametrize("verb", list(ALPHA_REQUESTS))
    def test_alpha_value_names_the_option(self, capsys, verb, value):
        argv = self.ALPHA_REQUESTS[verb]
        mode = ("--mode", "float") if "--input" in argv else ()
        err = self.request(capsys, *argv, *mode, "--alpha", value)
        assert err == self.BAD_VALUES[value].format("--alpha")

    @pytest.mark.parametrize("value", list(BAD_VALUES))
    @pytest.mark.parametrize("op", ["em", "ec"])
    def test_factor_value_names_the_option(self, capsys, op, value):
        err = self.request(capsys, "transform", op, "--input", DEMO5, "--mode", "float",
                           "--node", "v1", "--factor", value)
        assert err == self.BAD_VALUES[value].format("--factor")

    @pytest.mark.parametrize("value", list(BAD_VALUES))
    def test_combining_value_names_the_option(self, capsys, value):
        err = self.request(capsys, "transform", "combine", "--input", DEMO5, "--mode", "float",
                           "--nodes", "v1,v2", "--values", f"1,{value}")
        assert err == self.BAD_VALUES[value].format("--values")

    # an exact value with more digits than str() converts, and the text that
    # showed it: each raised ValueError ("Exceeds the limit (4300 digits)")
    DIGIT_LIMIT_ERROR = (
        f"error: exact value has more than {sys.get_int_max_str_digits()} digits to print\n"
    )
    DIGIT_LIMIT_REQUESTS = {
        "negative-decay": ("simulate", "--input", DEMO5, "--process", "distributed",
                           "--alpha=-1e5000", "--steps", "2"),
        "limit-rule-decay": ("simulate", "--input", DEMO5, "--process", "distributed",
                             "--alpha=1e5000", "--steps", "2"),
        "katz-name": ("centrality", "--input", DEMO5, "--measure", "katz", "--alpha=1e-5000"),
        "pagerank-name": ("centrality", "--input", DEMO5, "--measure", "pr", "--alpha=1e-5000"),
        "limit-measure-name": ("simulate", "--input", DEMO5, "--process", "parallel",
                               "--alpha=1e-5000", "--steps", "2"),
        "em-factor": ("transform", "em", "--input", DEMO5, "--node", "v1",
                      "--factor=-1e5000"),
        "ec-factor": ("transform", "ec", "--input", DEMO5, "--node", "v1",
                      "--factor=-1e5000"),
    }

    @pytest.mark.parametrize("request_name", list(DIGIT_LIMIT_REQUESTS))
    def test_number_past_the_digit_limit_is_one_error_line(self, capsys, request_name):
        err = self.request(capsys, *self.DIGIT_LIMIT_REQUESTS[request_name], "--mode", "rational")
        assert err == self.DIGIT_LIMIT_ERROR

    def test_impact_total_past_the_digit_limit_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "g.dg"
        path.write_text("node a 1e-5000\nnode b 1\nedge a b 1\nedge b a 1\n")
        err = self.request(capsys, "euler-construct", "--input", str(path),
                           "--output", str(tmp_path / "cycle.dg"))
        assert err == self.DIGIT_LIMIT_ERROR


FLOAT_SOLVE_FAILED = (
    "float solve failed: the matrix is singular to float precision "
    "or the solution does not fit in a float"
)
# alpha * 1e17 overflows when alpha = 1e300
OVERFLOWING_KATZ_TEXT = "node a 1\nnode b 0\nedge a b 1e17\n"


def test_katz_matrix_that_overflows_is_one_error_line(capsys, tmp_path):
    # "RuntimeWarning: overflow encountered in multiply" came first
    path = tmp_path / "g.dg"
    path.write_text(OVERFLOWING_KATZ_TEXT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "centrality", "--input", str(path), "--mode", "float",
            "--measure", "katz", "--alpha", "1e300",
        )
    assert (code, out, caught) == (1, "", [])
    assert err == f"error: {FLOAT_SOLVE_FAILED}\n"


# On the path a -> b -> c, I - alpha*A is unit triangular; at alpha = 1e300
# the exact katz value of c is about 1e600, beyond the float range.
PATH_TEXT = "node a 1\nnode b 1\nnode c 1\nedge a b 1\nedge b c 1\n"
_AXIOMS_AT_1E300 = ("check-axioms", "--trials", "2", "--seed", "18", "--min-size", "3",
                    "--max-size", "5", "--measure", "katz", "--alpha", "1e300", "--axiom")
_SOLVE_BEYOND_FLOAT_REQUESTS = {
    "centrality-katz-path": ("centrality", "--input", "{path}", "--measure", "katz",
                             "--alpha", "1e300", "--mode", "float"),
}


@pytest.mark.parametrize("request_name", _SOLVE_BEYOND_FLOAT_REQUESTS)
def test_float_solve_beyond_float_range_is_one_error_line(capsys, tmp_path, request_name):
    path = tmp_path / "path.dg"
    path.write_text(PATH_TEXT)
    argv = [a.replace("{path}", str(path)) for a in _SOLVE_BEYOND_FLOAT_REQUESTS[request_name]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert caught == []
    assert code == 1 and out == ""
    assert err == (
        "error: float solve failed: the matrix is singular to float precision "
        "or the solution does not fit in a float\n"
    )


@pytest.mark.parametrize(
    "axiom,cell",
    [
        # the refinement residual overflowed with two numpy warnings; then
        # the request exited 1 with the float solve's error line
        ("edge-compensation", {"status": "PASS", "attempts": 3, "admissible": 2, "skipped": 1,
                               "skip_reason": FLOAT_SOLVE_FAILED}),
        # exited 1 with the float solve's error line (at first numpy's bare
        # "Singular matrix")
        ("baseline", {"status": "SKIPPED", "attempts": 2, "admissible": 0, "skipped": 2,
                      "skip_reason": FLOAT_SOLVE_FAILED}),
    ],
    ids=["edge-compensation", "baseline"],
)
def test_float_solve_beyond_float_range_skips_the_instance(capsys, axiom, cell):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = run_json(capsys, *_AXIOMS_AT_1E300, axiom)
    assert caught == []
    diagnostics = doc["diagnostics"]
    got = diagnostics["cells"][f"{axiom} x katz"]
    assert {key: got[key] for key in cell} == cell
    expected = ["baseline x katz: expected PASS, got SKIPPED"] if axiom == "baseline" else []
    assert diagnostics["expected_mismatches"] == expected


def test_rational_katz_beyond_float_range_is_exact(capsys, tmp_path):
    path = tmp_path / "path.dg"
    path.write_text(PATH_TEXT)
    doc = run_json(capsys, "centrality", "--input", str(path), "--measure", "katz",
                   "--alpha", "1e300", "--mode", "rational")
    big = 10**300
    assert doc["values"] == {"a": "1", "b": str(big + 1), "c": str(big * big + big + 1)}


# exact (rational-mode) inputs whose weights or decays do not fit in a float
_BEYOND_FLOAT_INPUTS = {
    "edge": "node a 1\nnode b 1\nedge a b 1e400\nedge b a 1\n",
    "node": "node a 1e400\nnode b 1\nedge a b 1\nedge b a 1\n",
    "loop": "node a 1\nedge a a 1e400\n",
    "plain": "node a 1\nnode b 1\nedge a b 1\nedge b a 1\n",
}
_BEYOND_FLOAT_REQUESTS = {
    "pr": ("centrality", "--measure", "pr"),
    "kp": ("centrality", "--measure", "kp"),
    "katz": ("centrality", "--measure", "katz", "--alpha", "1/10"),
    "katz-huge": ("centrality", "--measure", "katz", "--alpha", "1e400"),
    "ev": ("centrality", "--measure", "ev"),
    "classify": ("classify",),
    "classify-alpha": ("classify", "--alpha", "1/10"),
    "dist": ("simulate", "--process", "distributed", "--alpha", "1/2", "--steps", "3"),
    "dist-huge": ("simulate", "--process", "distributed", "--alpha", "1e400", "--steps", "3"),
    "par": ("simulate", "--process", "parallel", "--alpha", "1/10", "--steps", "3"),
    "par-huge": ("simulate", "--process", "parallel", "--alpha", "1e400", "--steps", "3"),
    "combine": ("transform", "combine", "--nodes", "a,b", "--measure", "pr"),
}
_BEYOND_FLOAT_CASES = [
    (graph, request)
    for graph in _BEYOND_FLOAT_INPUTS
    for request in _BEYOND_FLOAT_REQUESTS
    if not (graph == "loop" and request == "combine")
]


@pytest.mark.parametrize(
    "graph,request_name",
    _BEYOND_FLOAT_CASES,
    ids=[f"{graph}-{request}" for graph, request in _BEYOND_FLOAT_CASES],
)
def test_exact_input_beyond_float_range_gives_a_result_or_an_error_line(
    capsys, tmp_path, graph, request_name
):
    path = tmp_path / f"{graph}.dg"
    path.write_text(_BEYOND_FLOAT_INPUTS[graph])
    argv = _BEYOND_FLOAT_REQUESTS[request_name]
    code, out, err = run(capsys, *argv, "--input", str(path), "--mode", "rational")
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error:")
    else:
        assert out and err == ""


class TestSharedParser:
    """``build_parser`` builds the parser once per process; requests share it."""

    REQUESTS = [
        ("centrality", "--input", DEMO5, "--measure", "pr", "--alpha", "1/2"),
        ("classify", "--input", DEMO5),
        ("centrality", "--input", DEMO5, "--measure", "kp", "--alpha", "1/2"),
        ("centrality", "--input", DEMO5, "--measure", "pr"),
        ("centrality", "--input", DEMO5, "--mode", "float", "--measure", "ev"),
        ("simulate", "--input", DEMO6, "--process", "parallel", "--alpha", "0.1",
         "--steps", "4"),
        ("transform", "em", "--input", DEMO6, "--node", "a", "--factor", "3"),
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def request(capsys, argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:  # a usage error
            return exc.code, *capsys.readouterr()

    def test_successive_requests_leak_no_state(self, capsys):
        alone = []
        for argv in self.REQUESTS:
            cli.build_parser.cache_clear()
            alone.append(self.request(capsys, argv))
        cli.build_parser.cache_clear()
        in_turn = [self.request(capsys, argv) for argv in self.REQUESTS]
        assert in_turn == alone
        assert [code for code, _out, _err in alone] == [0, 0, 2, 0, 0, 0, 0]


# requests over .dg texts from the parse gate's token pool, in both modes
_FUZZ_DECAYS = ("1/2", "0.85", "1", "0", "1/10", "1e300", "1e400", "5e-324", "-1", "nan", "inf",
                "3/0", "x", "1e5000", "-1e5000", "1e-5000")
_DEMO5_TEXT = Path(DEMO5).read_text()


@st.composite
def _fuzz_requests(draw):
    decay = st.sampled_from(_FUZZ_DECAYS)
    verb = draw(st.sampled_from(["centrality", "simulate", "classify"]))
    if verb == "centrality":
        args = ["--measure", draw(st.sampled_from(["pr", "katz", "kp", "ev"]))]
        args += ["--alpha", draw(decay)] if draw(st.booleans()) else []
    elif verb == "simulate":
        args = ["--process", draw(st.sampled_from(["distributed", "parallel"])),
                "--alpha", draw(decay), "--steps", draw(st.sampled_from(["-1", "0", "1", "3", "12"]))]
    else:
        args = ["--alpha", draw(decay)] if draw(st.booleans()) else []
    return [verb, *args, "--mode", draw(st.sampled_from(["rational", "float"]))]


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.dg"


@given(text=dg_texts(), argv=_fuzz_requests())
@example(  # a float overflow, with numpy's warnings
    text="node a 1\nnode b 1\nedge a a 1\nedge a b 1\n",
    argv=["simulate", "--process", "parallel", "--alpha", "1e300", "--steps", "3",
          "--mode", "float"],
)
@example(  # an exact value too long for str(), a ValueError
    text="node a 1\nnode b 1\nedge a a 1e300\nedge a b 1\n",
    argv=["simulate", "--process", "parallel", "--alpha", "1e300", "--steps", "12",
          "--mode", "rational"],
)
@example(  # each exact decay below shows in a message or a name; str() raised ValueError
    text=_DEMO5_TEXT,
    argv=["simulate", "--process", "distributed", "--alpha=-1e5000", "--steps", "2",
          "--mode", "rational"],
)
@example(
    text=_DEMO5_TEXT,
    argv=["simulate", "--process", "distributed", "--alpha=1e5000", "--steps", "2",
          "--mode", "rational"],
)
@example(text=_DEMO5_TEXT, argv=["centrality", "--measure", "katz", "--alpha=1e-5000",
                                 "--mode", "rational"])
@example(text=_DEMO5_TEXT, argv=["centrality", "--measure", "pr", "--alpha=1e-5000",
                                 "--mode", "rational"])
@example(
    text=_DEMO5_TEXT,
    argv=["simulate", "--process", "parallel", "--alpha=1e-5000", "--steps", "2",
          "--mode", "rational"],
)
@settings(max_examples=600, derandomize=True, deadline=None)
def test_any_request_gives_a_result_or_an_error_line(fuzz_input, text, argv):
    _write_fresh(fuzz_input, text)
    code, out = _result_or_error_line([*argv, "--input", str(fuzz_input)])
    if code == 0:
        assert _strict_json(out)["command"] == argv[0]


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _strict_json(text):
    """The document in ``text``; a NaN, Infinity or -Infinity token fails."""
    return json.loads(text, parse_constant=_refuse_constant)


def _write_fresh(path, text):
    path.unlink(missing_ok=True)  # truncating a file in place can be slow
    path.write_text(text)


def _result_or_error_line(argv):
    """(exit code, stdout) of one in-process request, after checking that no
    warning escaped and that stderr is empty on success and one ``error:`` or
    ``usage:`` report otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:  # a warning would reach stderr
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert caught == []
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert (code, err[:6]) in ((1, "error:"), (2, "usage:"), (2, "error:"))
    return code, out.getvalue()


# requests over the verbs _fuzz_requests leaves out; "{dir}" stands for the
# directory of the input file, which also holds a groups file
_FUZZ_TEXTS = ("node a 1/2\nnode b 1/2\nedge a b 1\nedge b a 1\n",
               "node a 1/4\nnode b 3/4\nedge a b 1\nedge b a 1/2\nedge b b 1/2\n",
               "node a 1\nnode b 1\nnode c 0\nedge a b 2\nedge b a 1\nedge b c 1\nedge c a 2\n")
_FUZZ_GROUPS = ("group a a\ngroup b a\n", "group b b\ngroup c b\ngroup d d\n",
                "group a a\ngroup a b\n", "group e a\n", "# no groups\n", "group a\n")
_FUZZ_TRANSFORMS = ("em", "ec", "opposite", "normalize", "regularize", "combine", "combine-groups")
_FUZZ_AXIOMS = (*(tag.value for tag in AxiomTag), "node-combination:pair-only",
                "node-combination:x", "x")
_FUZZ_SIZES = ("0", "1", "2", "3", "5", "7")


@st.composite
def _fuzz_other_requests(draw):
    decay = st.sampled_from(_FUZZ_DECAYS)
    measure = st.sampled_from(["pr", "katz", "kp", "ev"])
    mode = ["--mode", draw(st.sampled_from(["rational", "float"]))]
    verb = draw(st.sampled_from(["transform", "euler-construct", "check-axioms"]))
    if verb == "euler-construct":
        groups = ["--groups", "{dir}/cycle.groups"] if draw(st.booleans()) else []
        return [verb, "--input", "{dir}/g.dg", "--output", "{dir}/cycle.dg", *groups]
    if verb == "check-axioms":
        args = [verb, "--trials", draw(st.sampled_from(["-1", "0", "1", "2", "3"])),
                "--seed", str(draw(st.integers(0, 99))),
                "--min-size", draw(st.sampled_from(_FUZZ_SIZES)),
                "--max-size", draw(st.sampled_from(_FUZZ_SIZES))]
        if draw(st.booleans()):
            args += ["--axiom", draw(st.sampled_from(_FUZZ_AXIOMS))]
        if draw(st.booleans()):
            args += ["--measure", draw(measure)]
        if draw(st.booleans()):
            args += ["--alpha", draw(decay)]
        if draw(st.booleans()):
            args += ["--tolerance", draw(st.sampled_from(["1e-8", "0", "-1", "nan", "inf"]))]
        return args
    op = draw(st.sampled_from(_FUZZ_TRANSFORMS))
    args = [verb, op, "--input", "{dir}/g.dg", *(mode if op != "regularize" else [])]
    if op in ("em", "ec"):
        args += ["--node", draw(st.sampled_from("abcde")), "--factor", draw(decay)]
    elif op == "combine":
        args += ["--nodes", draw(st.sampled_from(["a,b", "b,a", "a,a", "a,e", "a", "a,b,c"]))]
        given = draw(st.sampled_from(["values", "measure", "neither"]))
        if given == "values":
            args += ["--values", f"{draw(decay)},{draw(decay)}"]
        elif given == "measure":
            args += ["--measure", draw(measure)]
            args += ["--alpha", draw(decay)] if draw(st.booleans()) else []
    elif op == "combine-groups":
        args += ["--groups", "{dir}/g.groups"]
    return args


@given(
    text=st.one_of(st.sampled_from(_FUZZ_TEXTS), dg_texts()),
    groups=st.sampled_from(_FUZZ_GROUPS),
    argv=_fuzz_other_requests(),
)
@example(  # a float solve that fails inside an axiom check skips the instance
    text=_FUZZ_TEXTS[0], groups=_FUZZ_GROUPS[0], argv=[*_AXIOMS_AT_1E300, "edge-compensation"]
)
@example(  # the factor shows in the refusal; str() of it raised ValueError
    text=_DEMO5_TEXT, groups=_FUZZ_GROUPS[0],
    argv=["transform", "em", "--input", "{dir}/g.dg", "--mode", "rational", "--node", "v1",
          "--factor=-1e5000"],
)
@example(
    text=_DEMO5_TEXT, groups=_FUZZ_GROUPS[0],
    argv=["transform", "ec", "--input", "{dir}/g.dg", "--mode", "rational", "--node", "v1",
          "--factor=-1e5000"],
)
@example(  # passed every cell and printed "tolerance": Infinity
    text=_FUZZ_TEXTS[0], groups=_FUZZ_GROUPS[0],
    argv=["check-axioms", "--trials", "1", "--max-size", "3", "--axiom", "locality",
          "--measure", "pr", "--tolerance", "inf"],
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_other_verbs_give_a_result_or_an_error_line(fuzz_input, text, groups, argv):
    _write_fresh(fuzz_input, text)
    _write_fresh(fuzz_input.with_suffix(".groups"), groups)
    argv = [a.replace("{dir}", str(fuzz_input.parent)) for a in argv]
    code, out = _result_or_error_line(argv)
    if code == 0 and argv[0] != "transform":
        assert _strict_json(out)["command"] == argv[0]


# near-max-float inputs: every weight fits in a float, but a sum, a product or
# a Perron value of them does not
_NEAR_MAX_INPUTS = {
    "nan-ab": "node a 1e300\nnode b 1\nedge a b 1e10\n",
    "nan-ba": "node b 1\nnode a 1e300\nedge a b 1e10\n",
    "huge-nodes": "node a 1e308\nnode b 1e308\nedge a b 1\nedge b a 2\n",
    "huge-edges": "node a 1\nnode b 1\nedge a a 1.7e308\nedge a b 1.7e308\nedge b a 1.7e308\n",
    "huge-cycle33": "".join(f"node v{i} 1\n" for i in range(33))
    + "".join(f"edge v{i} v{(i + 1) % 33} 1.7e308\n" for i in range(33))
    + "edge v0 v5 1.7e308\n",
    "huge-pair": "node a 1\nnode b 1\nedge a b 1e308\nedge b a 1e308\n",
    **{
        f"huge-plain-cycle{n}": "".join(f"node v{i} 1\n" for i in range(n))
        + "".join(f"edge v{i} v{(i + 1) % n} 1e308\n" for i in range(n))
        for n in (32, 33, linalg.DENSE_EIG_LIMIT + 1)
    },
}
_NEAR_MAX_REQUESTS = {
    "pr": ("centrality", "--measure", "pr"),
    "kp": ("centrality", "--measure", "kp"),
    "ev": ("centrality", "--measure", "ev"),
    "katz-0": ("centrality", "--measure", "katz", "--alpha", "0"),
    "katz-tiny": ("centrality", "--measure", "katz", "--alpha", "1e-310"),
    "dist": ("simulate", "--process", "distributed", "--alpha", "1/2", "--steps", "3"),
    "par": ("simulate", "--process", "parallel", "--alpha", "1/2", "--steps", "3"),
    "classify": ("classify",),
}


def _near_max_request(tmp_path, graph, request_name, mode):
    """(exit code, stdout, stderr, warnings) of one request on one input."""
    path = tmp_path / f"{graph}.dg"
    path.write_text(_NEAR_MAX_INPUTS[graph])
    argv = [*_NEAR_MAX_REQUESTS[request_name], "--input", str(path), "--mode", mode]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _maxima(doc):
    diagnostics = doc["diagnostics"]
    recursion = diagnostics.get("recursion") or {}
    return (
        diagnostics.get("max_recursion_residual"),
        diagnostics.get("tail_bound_max"),
        recursion.get("max_residual"),
        recursion.get("max_prediction_mismatch"),
    )


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("request_name", _NEAR_MAX_REQUESTS)
@pytest.mark.parametrize("graph", _NEAR_MAX_INPUTS)
def test_near_max_float_input_gives_finite_values_or_one_error_line(
    tmp_path, graph, request_name, mode
):
    # at the parent: numpy warnings, inf and nan values with exit 0, and
    # 200 000 power steps on nan for huge-cycle33
    code, out, err, caught = _near_max_request(tmp_path, graph, request_name, mode)
    assert caught == []
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
        values = json.loads(out)["values_full"] or {}
        for text in values.values():
            F(text)  # raises on "inf" and "nan"


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("request_name", _NEAR_MAX_REQUESTS)
def test_node_order_does_not_change_a_maximum(tmp_path, request_name, mode):
    # node b's katz residual 1 - (0 * inf + 1) is nan: max() dropped it
    # when a came first
    runs = [_near_max_request(tmp_path, g, request_name, mode) for g in ("nan-ab", "nan-ba")]
    assert [code for code, *_ in runs] == [runs[0][0]] * 2
    if runs[0][0] == 0:
        assert _maxima(json.loads(runs[0][1])) == _maxima(json.loads(runs[1][1]))


def test_nan_residual_is_printed_in_either_node_order(tmp_path):
    for graph in ("nan-ab", "nan-ba"):
        code, out, _err, _caught = _near_max_request(tmp_path, graph, "katz-0", "float")
        assert code == 0
        assert json.loads(out)["diagnostics"]["max_recursion_residual"] == "nan"


@pytest.mark.parametrize("request_name", ["pr", "kp"])
def test_exact_values_print_when_the_perron_value_overflows(tmp_path, request_name):
    # both exited 1 with "Perron eigenvalue is not finite: inf" after two warnings
    code, out, err, caught = _near_max_request(tmp_path, "huge-edges", request_name, "rational")
    assert (code, err, caught) == (0, "", [])
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["spectral_radius"] is None
    assert diagnostics["spectral_omitted"] == "Perron eigenvalue is not finite: inf"
    assert diagnostics["max_recursion_residual"] == "0"


@pytest.mark.parametrize(
    "argv",
    [("centrality", "--measure", "ev"), ("centrality", "--measure", "pr"), ("classify",)],
    ids=["ev", "pr", "classify"],
)
def test_two_cycle_of_subnormal_weight(capsys, tmp_path, argv):
    # ev and classify exited 1 with "dense eigensolve gave a Perron vector
    # with zero or non-finite entries", and pr printed that as
    # spectral_omitted
    path = tmp_path / "tiny.dg"
    path.write_text("node a 1\nnode b 1\nedge a b 5e-310\nedge b a 5e-310\n")
    doc = run_json(capsys, *argv, "--input", str(path), "--mode", "float")
    diagnostics = doc["diagnostics"]
    assert "spectral_omitted" not in diagnostics
    assert diagnostics["component_eigenvalues"] == ["5e-310"]
    assert diagnostics["spectral_radius"] == "5e-310"


def test_eigenvector_of_a_long_cycle_of_subnormal_weight(capsys, tmp_path):
    # the power path's Rayleigh quotient underflowed: spectral_radius read
    # 1.23516e-320 and max_recursion_residual 0.1904
    n = 50
    path = tmp_path / "tiny.dg"
    path.write_text(
        "".join(f"node v{i} 1\n" for i in range(n))
        + "".join(f"edge v{i} v{(i + 1) % n} 1e-320\n" for i in range(n))
    )
    doc = run_json(capsys, "centrality", "--measure", "ev", "--input", str(path), "--mode", "float")
    diagnostics = doc["diagnostics"]
    assert float(diagnostics["spectral_radius"]) == pytest.approx(1e-320, rel=1e-5)
    assert float(diagnostics["max_recursion_residual"]) < 1e-12


def test_distributed_residual_divides_before_it_multiplies(tmp_path):
    # w * x overflowed before the division by the out-degree: the residual was "inf"
    code, out, err, caught = _near_max_request(tmp_path, "huge-pair", "pr", "float")
    assert (code, err, caught) == (0, "", [])
    doc = json.loads(out)
    assert doc["values"] == {"a": "6.66667", "b": "6.66667"}
    assert doc["diagnostics"]["max_recursion_residual"] == "0"


def test_power_iteration_past_half_the_float_range_finds_the_perron_value(tmp_path):
    # the 33-node cycle, then past DENSE_EIG_LIMIT, exited 1 with "power
    # iteration shift 1.000e+308 exceeds half the float range"; the last
    # cycle is past the limit now
    radii = []
    for n in (32, 33, linalg.DENSE_EIG_LIMIT + 1):
        code, out, err, caught = _near_max_request(
            tmp_path, f"huge-plain-cycle{n}", "classify", "float"
        )
        assert (code, err, caught) == (0, "", [])
        radii.append(json.loads(out)["diagnostics"]["spectral_radius"])
    assert radii == ["1e+308"] * 3


def test_tail_bound_beyond_float_range_is_omitted(tmp_path):
    # tail_bound_max was "inf", after a numpy overflow warning
    code, out, err, caught = _near_max_request(tmp_path, "huge-nodes", "dist", "rational")
    assert (code, err, caught) == (0, "", [])
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["tail_bound_max"] is None
    assert diagnostics["tail_bound_omitted"] == "tail bound does not fit in a float"


_PAST_DENSE_LIMIT_REQUESTS = {
    "pr": ("centrality", "--measure", "pr"),
    "katz": ("centrality", "--measure", "katz", "--alpha", "0.1"),
    "kp": ("centrality", "--measure", "kp"),
    "ev": ("centrality", "--measure", "ev"),
    "classify": ("classify",),
    "parallel": ("simulate", "--process", "parallel", "--alpha", "0.1", "--steps", "2"),
    "distributed": ("simulate", "--process", "distributed", "--alpha", "0.5", "--steps", "2"),
}


@pytest.fixture(scope="module")
def cycle_past_dense_limit(tmp_path_factory):
    n = linalg.DENSE_MATRIX_LIMIT + 1
    path = tmp_path_factory.mktemp("past-limit") / "cycle.dg"
    path.write_text(
        "".join(f"node v{i} 1\n" for i in range(n))
        + "".join(f"edge v{i} v{(i + 1) % n} 1\n" for i in range(n))
    )
    return str(path)


@pytest.mark.parametrize("measure", ["pr", "kp"])
def test_system_past_the_dense_solve_limit_is_refused_before_its_matrix(
    capsys, tmp_path, measure
):
    # the float system was built, then refused by the solve: a random
    # 8192-node pagerank request peaked at 555 MB first
    n = 2 * linalg.DENSE_SOLVE_LIMIT
    path = tmp_path / "cycle.dg"
    path.write_text(
        "".join(f"node v{i} 1\n" for i in range(n))
        + "".join(f"edge v{i} v{(i + 1) % n} 1\n" for i in range(n))
    )
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "centrality", "--measure", measure, "--input", str(path), "--mode", "float"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: dense float solve is limited to {n // 2} unknowns, got {n}\n"
    assert peak < 8 * n * n


def test_float_katz_past_the_dense_solve_limit_is_refused_before_its_perron_pass(
    capsys, monkeypatch, tmp_path
):
    # the class check ran 200 000 power steps (39 s) on this cycle, whose
    # subdominant eigenvalues lie within O(1/n**2) of the Perron root, and
    # then exited 1 with "power iteration stalled"; no power step runs now
    def no_power_steps(*args):
        raise AssertionError("power iteration ran before the size refusal")

    monkeypatch.setattr(linalg, "_power_vector", no_power_steps)
    n = 2 * linalg.DENSE_SOLVE_LIMIT
    path = tmp_path / "cycle.dg"
    path.write_text(
        "".join(f"node v{i} 1\n" for i in range(n))
        + "".join(f"edge v{i} v{(i + 1) % n} {i % 3 + 1}\n" for i in range(n))
    )
    code, out, err = run(
        capsys, "centrality", "--measure", "katz", "--alpha", "0.01",
        "--input", str(path), "--mode", "float",
    )
    assert (code, out) == (1, "")
    assert err == f"error: dense float solve is limited to {n // 2} unknowns, got {n}\n"


@pytest.mark.parametrize("request_name", _PAST_DENSE_LIMIT_REQUESTS)
def test_graph_past_the_dense_limit_is_refused_before_its_matrix(
    capsys, cycle_past_dense_limit, request_name
):
    # every verb allocated an n x n float matrix before any size check; on
    # 10**5 nodes that was a numpy MemoryError traceback
    n = linalg.DENSE_MATRIX_LIMIT + 1
    argv = (*_PAST_DENSE_LIMIT_REQUESTS[request_name], "--input", cycle_past_dense_limit)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--mode", "float")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: dense float matrix is limited to {n - 1} nodes, got {n}\n"
    assert peak < 8 * n * n / 4
