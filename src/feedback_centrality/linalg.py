"""Numeric helpers: Perron pairs of non-negative matrices, refined dense
solves, and exact solves of rational systems on integers, by fraction-free
(Bareiss) elimination or, for larger systems, by p-adic (Dixon) lifting.

For an irreducible non-negative A the eigenvalue with the largest real part
is the simple Perron root, and its right and left eigenvectors are
one-signed (Perron-Frobenius).  Matrices of at most ``DENSE_EIG_LIMIT`` rows
take that eigenvalue from one ``numpy.linalg.eigvals`` call, without
vectors, and both vectors from one batched solve of the bordered systems of
A and A^T.  Larger ones run power iteration on B = (A + sigma*I)/(s +
sigma), s the largest column sum and sigma the mean column sum, which is
cheaper there than a dense eigenvalue solve: B is primitive (its diagonal
is positive), so the iteration converges geometrically even when A itself
is periodic, and every column of B sums to a value in [sigma/(s + sigma),
1], at least 1/(n + 1) because the mean column sum is at least s/n, so
``POWER_BLOCK`` steps run between two normalizations without
overflow or underflow.  The iteration reads A only through its mat-vec, so
a sparse component past ``edge_power_route``'s crossover runs it on its
edge list (``edge_perron_triple``), O(edges) a step and with no n x n
array.  Either way the eigenvalue is then polished with the
two-sided Rayleigh quotient, which is far more accurate than ``eigvals``'
value or the iteration's normalization constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError

#: Largest matrix the dense float solver accepts.
DENSE_SOLVE_LIMIT = 512

#: Memory budget of one dense float matrix built from a graph.  A float
#: request holds about two such arrays at its peak: at the limit below,
#: float ``simulate`` and ``classify`` on a random 8192-node graph peaked at
#: 1.0-1.1 GB RSS.
DENSE_MATRIX_BYTES = 2**29

#: Largest dense float matrix built from a graph (8192 nodes), refused
#: before it is allocated; the largest damped build takes one such array.
DENSE_MATRIX_LIMIT = isqrt(DENSE_MATRIX_BYTES // 8)

#: Largest matrix whose Perron vectors come from ``eigvals`` and the
#: bordered solve.  Per triple, on random irreducible matrices of 5-50%
#: density (mean of 8, best of 9, median of 3 runs, 2-core Xeon, OpenBLAS),
#: that path took 0.23 against 0.32 ms for blocked power iteration at n =
#: 32, 0.28 against 0.29 ms at n = 36 and 0.34 against 0.30 ms at n = 40.
#: The limit sits a little above that crossover: the eig path's time does
#: not depend on the spectrum, and power iteration's does.  On
#: unequal-weight cycles of 34-40 nodes, whose subdominant eigenvalues lie
#: close to the Perron root for every shift, the eig path took 0.5-0.6 ms
#: and power iteration 45-55 ms.
DENSE_EIG_LIMIT = 40

#: A component of n nodes and m edges with n**2 >= EDGE_POWER_RATIO * (m +
#: EDGE_POWER_OVERHEAD), so n >= 149 and past ``DENSE_EIG_LIMIT``, runs
#: power iteration on its edges instead of its dense adjacency
#: (``edge_power_route``).  Per step the edge mat-vec took about 2.7 us, the
#: cost of 1000 edges, plus 2.7 ns per edge; the dense one took 0.12 ns per
#: entry up to n = 200 and 0.18-0.2 ns past it, where the matrix leaves the
#: cache, and the dense route also builds and scales n x n arrays.  Adjacency
#: build plus Perron triple (2-core Xeon, OpenBLAS; median of 9, of 3 for the
#: rings, whose unequal weights take 10**4-10**5 steps per vector):
#:
#:     ===================  ===  =====  ========  =======  =====
#:     component            n    m      dense ms  edge ms  route
#:     ===================  ===  =====  ========  =======  =====
#:     out-degree 3         150    594      1.73     2.18  dense
#:     out-degree 3         200    798      3.01     2.61  edge
#:     out-degree 7         200   1592      2.24     2.38  dense
#:     out-degree 7         300   2393      4.17     3.01  edge
#:     out-degree 15        300   4783      3.68     3.87  dense
#:     out-degree 7         500   3990     12.48     4.04  edge
#:     out-degree 15        500   7987     11.76     5.65  edge
#:     out-degree 31        500  15961     10.61    10.01  dense
#:     out-degree 15        800  12785     21.49     8.68  edge
#:     20% dense            500  50415      9.45    27.46  dense
#:     ring                 100    100       465      630  dense
#:     ring                 150    150      1547     1509  dense
#:     ring                 200    200      2721     1636  edge
#:     ===================  ===  =====  ========  =======  =====
#:
#: (out-degree k: a Hamiltonian cycle plus k random out-edges per node,
#: float_large's sparse shape at k = 7.)  Vectors of the two routes agreed
#: to 1.2e-15 of their largest entry, eigenvalues to 5.5e-16.
EDGE_POWER_RATIO = 22
EDGE_POWER_OVERHEAD = 1000


def edge_power_route(n: int, m: int) -> bool:
    """Whether a component of n nodes and m edges runs power iteration on
    its edges rather than on its dense adjacency."""
    return n * n >= EDGE_POWER_RATIO * (m + EDGE_POWER_OVERHEAD)


POWER_TOL = 1e-12
POWER_MAX_ITER = 200_000

#: Power steps between two normalizations and convergence tests.
POWER_BLOCK = 8

_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)

#: The mat-vec of a matrix given by its entries: ``times(c, x, transposed)``
#: is A_c @ x, or A_c^T @ x when ``transposed``.
Times = Callable[[np.ndarray, np.ndarray, bool], np.ndarray]

#: Smallest exact system solved by p-adic lifting.  On damped and
#: stationary systems of sparse random graphs lifting overtakes Bareiss
#: elimination between n = 24 (1.8 against 1.6 ms) and 32 (3.1 against
#: 4.3 ms; mean of 9 systems, best of 5, on a 2-core Xeon).
DIXON_MIN_N = 32

#: Primes below 2**26 for the modular inverse, tried in order: lifting
#: gives up on a matrix singular modulo both.
DIXON_PRIMES = (67108859, 67108837)

#: Largest system lifted: a digit C r mod p sums n products below p**2,
#: which must stay below 2**63 in ``int64``.
DIXON_MAX_N = (2**63 - 1) // max(DIXON_PRIMES) ** 2

#: Lifting steps between two attempts at reconstructing the solution.  Past
#: 8 * DIXON_CHECK_EVERY steps the gap grows to 1/8 of the steps taken, so
#: the attempts, each quadratic in the digits, cost no more than the lift.
DIXON_CHECK_EVERY = 4


def _bordered_vectors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left Perron vectors (sum 1) of a small irreducible matrix.

    lambda0, the largest real part among the eigenvalues of one ``eigvals``
    call, is simple, so the bordered matrix [[A - lambda0*I, 1], [1^T, 0]] is
    regular and [x; mu] = its inverse applied to e_(n+1) gives A x + mu*1 =
    lambda0*x with sum(x) = 1 (Keller, 1977).  The extra unknown mu absorbs
    lambda0's rounding error in every row at once.  One batched solve serves
    A and A^T.
    """
    n = a.shape[0]
    k = np.zeros((2, n + 1, n + 1))
    k[0, :n, :n] = a
    k[1, :n, :n] = a.T
    k[:, :n, n] = k[:, n, :n] = 1.0
    i = np.arange(n)
    rhs = np.zeros((2, n + 1, 1))
    rhs[:, n] = 1.0
    try:
        k[:, i, i] -= float(np.linalg.eigvals(a).real.max())
        x, y = np.linalg.solve(k, rhs)[:, :n, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    if not (np.isfinite(x.sum() + y.sum()) and min(x.min(), y.min()) > 0.0):
        raise ConvergenceError(
            "dense eigensolve gave a Perron vector with zero or non-finite entries"
        )
    return x / x.sum(), y / y.sum()


def _power_vector(step: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Perron vector (sum 1) by power iteration from the uniform vector,
    ``step`` the mat-vec x -> B x of B = (A + sigma*I)/(top + sigma), ``top``
    the largest column sum of A.

    Shifted power iteration converges at max |lambda_i + sigma| / (lambda +
    sigma) over the other eigenvalues (Golub & Van Loan, Matrix
    Computations, 4th ed., section 7.3): sigma = 0 stalls on a periodic A,
    and on the eigenvalues lambda*omega of a cycle the rate worsens as sigma
    moves above lambda.  ``_shifts`` takes the mean column sum m, which lies
    between the smallest and largest column sums and is lambda on an
    out-regular graph (Collatz-Wielandt); on a cycle lambda, m and s are the
    geometric mean, mean and largest of its weights, so there m is never
    slower than s.  Steps to converge both vectors, totalled per group of
    matrices, against shifts sigma:

        ===============================  ======  ======  ======  =====  =====
        sigma                            s       s/4     0.3m    0.5m   m
        ===============================  ======  ======  ======  =====  =====
        random, n = 41-500 (11)            1776     864     776    928   1320
        periodic, p = 2-12 (11)            7000    7552    9112   7184   6360
        unequal-weight cycles 41-64 (3)   83624   98176  110448  88912  79664
        in- and out-hubs x100, x1e4 (4)   23592    6416     440    608   1000
        ===============================  ======  ======  ======  =====  =====

    (s the largest column sum, m the mean one; random are float_large-shaped
    graphs and matrices of 40% density.)  m is the only shift here that
    beats s on every group; the smaller ones gain more on random matrices and
    hubs, where s lies far above lambda, but take more steps than s on
    periodic and cycle matrices, and with 0.5m a 200-node unequal-weight
    ring stalls at ``POWER_MAX_ITER`` where s converges.

    Each block runs ``POWER_BLOCK`` steps ``step(x)``, then normalizes and
    tests its last two iterates: max |x_new - x| <= POWER_TOL * max(x_new).
    Exactly ``POWER_MAX_ITER`` steps run before ``ConvergenceError``.
    """
    x = np.full(n, 1.0 / n)
    change = np.inf
    for done in range(0, POWER_MAX_ITER, POWER_BLOCK):
        for _ in range(min(POWER_BLOCK, POWER_MAX_ITER - done) - 1):
            x = step(x)
        x = x / x.sum()
        y = step(x)
        y = y / y.sum()
        change = np.abs(y - x).max() / y.max()
        x = y
        if change <= POWER_TOL:
            return x
    raise ConvergenceError(
        f"power iteration stalled after {POWER_MAX_ITER} steps", residual=float(change)
    )


def _dense_times(a: np.ndarray, x: np.ndarray, transposed: bool) -> np.ndarray:
    return (a.T if transposed else a) @ x


def _shifts(a: np.ndarray, n: int, times: Times) -> tuple[float, float, float]:
    """Largest column sum, largest row sum and the power shift sigma = the
    mean column sum (which is the mean row sum), the sums A^T 1 and A 1 by
    ``times``.  The mean is taken of the column sums divided by the largest,
    so it is finite even where the total of the column sums is not."""
    ones = np.ones(n)
    cols, rows = times(a, ones, True), times(a, ones, False)
    top = float(cols.max())
    return top, float(rows.max()), top * float((cols / top).mean())


def _shifted(
    a: np.ndarray, times: Times, top: float, sigma: float, transposed: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """The mat-vec x -> B x of ``_power_vector``'s B, built from A^T when
    ``transposed``: a dense A gets B as one matrix, an edge list the
    product of its entries scaled by 1/(top + sigma) plus the diagonal."""
    b = a / (top + sigma)  # 1/(top + sigma) is subnormal near the float maximum
    d = sigma / (top + sigma)
    if b.ndim == 2:
        b = b.T if transposed else b
        b[np.diag_indices(len(b))] += d
        return b.__matmul__
    return lambda x: times(b, x, transposed) + d * x


def perron_triple(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Right vector, left vector, and eigenvalue of a non-negative matrix.

    Intended for irreducible matrices (adjacency of a strongly connected
    graph); there both vectors are strictly positive and the eigenvalue is
    simple.  Vectors are normalized to sum 1.  The zero matrix yields
    uniform vectors and eigenvalue 0.  ``POWER_TOL`` and ``POWER_MAX_ITER``
    bound the power iteration used above ``DENSE_EIG_LIMIT`` rows, whose
    left vector iterates on A^T with the same sigma (the mean row sum is the
    mean column sum).  Raises ``DomainError`` on a negative or non-finite
    entry and ``ConvergenceError`` when a vector entry comes out zero or
    non-finite, or the eigenvalue non-finite; no numpy warning escapes.  One
    range rule on the largest entry keeps the arithmetic in range: a matrix
    whose largest entry is below n**2 times the smallest normal float (about
    1.5e-300 at 8192 rows), where the Rayleigh quotient's products y_i A_ij
    x_j of about max(A)/n**2 are subnormal, or at or above the float maximum
    over 2n, where the power path's s + sigma <= 2s <= 2n max(A) could
    overflow, runs on A/max(A), and the eigenvalue is multiplied back.
    Every other matrix keeps its bits.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 0 or a.shape != (n, n):
        raise DomainError(f"expected a square non-empty matrix, got shape {a.shape}")
    if a.min(initial=0.0) < 0:
        raise DomainError("matrix has negative entries")
    return _perron(a, n, _dense_times)


def edge_perron_triple(
    n: int, weight: np.ndarray, times: Times
) -> tuple[np.ndarray, np.ndarray, float]:
    """``perron_triple`` of the n x n matrix A with the non-negative entries
    ``weight`` (one per edge), by its power path with no n x n array.

    ``times(c, x, transposed)`` is the mat-vec A_c @ x, or A_c^T @ x when
    ``transposed``, of the matrix A_c with the entries c in place of
    ``weight``; the power path calls it on scaled copies of ``weight``.
    """
    return _perron(weight, n, times)


def _perron(a: np.ndarray, n: int, times: Times) -> tuple[np.ndarray, np.ndarray, float]:
    """``perron_triple`` of A, given as a dense matrix or as the edge
    entries of ``edge_perron_triple``; A @ x is ``times(a, x, False)``.
    Its largest entry alone decides the zero matrix, the non-finite refusal
    and the rescale of ``perron_triple``'s range rule, on both routes."""
    top = float(a.max())
    if top == 0.0:
        u = np.full(n, 1.0 / n)
        return u, u.copy(), 0.0
    if not np.isfinite(top):
        raise DomainError("matrix has non-finite entries")
    # lambda of the matrix the vectors come from, times this
    scale = 1.0 if _TINY * n * n <= top < _HUGE / (2 * n) else top
    if scale != 1.0:
        a = a / scale
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        if a.ndim == 2 and n <= DENSE_EIG_LIMIT:
            x, y = _bordered_vectors(a)
        else:
            col_top, row_top, sigma = _shifts(a, n, times)
            x = _power_vector(_shifted(a, times, col_top, sigma, False), n)
            y = _power_vector(_shifted(a, times, row_top, sigma, True), n)
        lam = scale * float((y @ times(a, x, False)) / (y @ x))
    if not np.isfinite(lam):
        raise ConvergenceError(f"Perron eigenvalue is not finite: {lam}")
    return x, y, lam


def check_matrix_size(n: int) -> None:
    """The one refusal of a dense float matrix of more than
    ``DENSE_MATRIX_LIMIT`` nodes built from a graph: ``DomainError``."""
    if n > DENSE_MATRIX_LIMIT:
        raise DomainError(f"dense float matrix is limited to {DENSE_MATRIX_LIMIT} nodes, got {n}")


def check_solve_size(n: int) -> None:
    """The one refusal of a dense float solve of more than
    ``DENSE_SOLVE_LIMIT`` unknowns: ``DomainError``."""
    if n > DENSE_SOLVE_LIMIT:
        raise DomainError(
            f"dense float solve is limited to {DENSE_SOLVE_LIMIT} unknowns, got {n}"
        )


def solve_refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense float solve with one step of iterative refinement.

    The refinement step recovers most of the accuracy LU loses on mildly
    ill-conditioned systems, which keeps linear-system centralities within
    the tolerances the rest of the package promises.  ``SingularMatrixError``
    when LU fails or the solution is not finite: the matrix may be singular
    to float precision, or the solution may lie beyond the float range.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    check_solve_size(a.shape[0])
    try:
        x = np.linalg.solve(a, b)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite x is refused below
            x = x + np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        # LU also fails on a regular matrix whose solution lies beyond the float range
        raise SingularMatrixError(
            "float solve failed: the matrix is singular to float precision "
            "or the solution does not fit in a float"
        )
    return x


def gauss_rational(a: list[list], rhs: list) -> list[Fraction]:
    """Exact solve of a square rational system.

    Entries may be anything ``Fraction`` accepts (floats convert exactly).
    Each augmented row is scaled to integers by the LCM of its denominators
    and handed to ``solve_integer``.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DomainError("system dimensions do not match")
    m = []
    for row, r in zip(a, rhs):
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (*row, r)]
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    return solve_integer(m)


def solve_integer(m: list[list[int]]) -> list[Fraction]:
    """Exact solve of the integer augmented rows ``m`` (n rows of n + 1
    ints, modified in place).

    Systems of ``DIXON_MIN_N`` to ``DIXON_MAX_N`` unknowns are solved by
    p-adic lifting (``_dixon``), which returns only an answer verified
    exactly in integers; every other system, and every one lifting gives up
    on, by Bareiss elimination (``_bareiss``), which also names the column
    of a singular matrix: ``SingularMatrixError("no pivot in column k")``.
    Scaling a row by a non-zero integer changes neither the answer nor that
    column.
    """
    if DIXON_MIN_N <= len(m) <= DIXON_MAX_N:
        x = _dixon(m)
        if x is not None:
            return x
    return _bareiss(m)


def _bareiss(m: list[list[int]]) -> list[Fraction]:
    """Solve the integer augmented rows ``m`` (modified in place) by
    fraction-free elimination.

    Bareiss elimination updates the rows below pivot p as
    (a*p - f*b) // p_prev, exact by Sylvester's identity, so no step takes a
    gcd.  Pivots on the first non-zero entry in each column (exact
    arithmetic needs no magnitude pivoting), so the result is deterministic.
    The last pivot d is a determinant, so d * x is an integer vector that
    back substitution finds without fractions.
    """
    n = len(m)
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        p = m[col][col]
        tail = m[col][col + 1 :]
        for row in m[col + 1 :]:
            f, rest = row[col], row[col + 1 :]
            if f:
                row[col + 1 :] = [(v * p - f * b) // prev for v, b in zip(rest, tail)]
            else:
                row[col + 1 :] = [v * p // prev for v in rest]
        prev = p

    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = prev * row[n]
        for c in range(r + 1, n):
            if row[c]:
                acc -= row[c] * y[c]
        y[r] = acc // row[r]
    return [Fraction(v, prev) for v in y]


def _dixon(m: list[list[int]]) -> list[Fraction] | None:
    """Solve the integer augmented rows ``m`` by p-adic lifting (Dixon,
    Numer. Math. 40, 1982); None when the matrix is singular modulo every
    prime of ``DIXON_PRIMES`` or no verified answer appears within the
    Hadamard bound.

    With C the inverse of A modulo p, each step takes the next p-adic digit
    x_i = C r mod p of the solution and the new residual r = (r - A x_i) / p,
    exact on integers.  Every few steps the digits so far are reconstructed
    over one common denominator d and kept only if A y = d b holds exactly.
    By Cramer's rule and Hadamard's inequality, d and every |y_j| are at most
    sqrt(H), H the product of the squared norms of the augmented rows, so
    reconstruction succeeds once p^k > 2H.
    """
    n = len(m)
    rows = [([c for c, v in enumerate(row[:n]) if v], [v for v in row[:n] if v]) for row in m]

    def times(vec: list[int]) -> list[int]:  # A vec, on the sparse rows
        return [sum(map(mul, vals, map(vec.__getitem__, cols))) for cols, vals in rows]

    for p in DIXON_PRIMES:
        inverse = _inverse_mod(m, p)
        if inverse is not None:
            break
    else:
        return None
    b = [row[n] for row in m]
    limit = 2 * prod(sum(v * v for v in row) for row in m)
    residual, x, modulus, step, check = b, [0] * n, 1, 0, DIXON_CHECK_EVERY
    while True:
        digit = (inverse @ np.array([v % p for v in residual], dtype=np.int64) % p).tolist()
        residual = [(r - s) // p for r, s in zip(residual, times(digit))]
        x = [v + modulus * d for v, d in zip(x, digit)]
        modulus *= p
        step += 1
        if step == check or modulus > limit:
            check += max(DIXON_CHECK_EVERY, step // 8)
            found = _common_denominator(x, modulus)
            if found is not None:
                d, y = found
                if times(y) == [d * r for r in b]:
                    return [Fraction(v, d) for v in y]
            if modulus > limit:
                return None


def _inverse_mod(m: list[list[int]], p: int) -> np.ndarray | None:
    """Inverse of the square part of the augmented rows ``m`` modulo p by
    ``int64`` Gauss-Jordan elimination, or None when it is singular mod p.
    Entries stay below p, so every product is below p**2 < 2**52."""
    n = len(m)
    g = np.zeros((n, 2 * n), dtype=np.int64)
    g[:, :n] = [[v % p for v in row[:n]] for row in m]
    g[:, n:] = np.eye(n, dtype=np.int64)
    for col in range(n):
        nonzero = np.flatnonzero(g[col:, col])
        if not nonzero.size:
            return None
        pivot = col + int(nonzero[0])
        if pivot != col:
            g[[col, pivot]] = g[[pivot, col]]
        pivot_row = g[col, col:]
        pivot_row *= pow(int(pivot_row[0]), -1, p)
        pivot_row %= p
        factors = g[:, col].copy()
        factors[col] = 0
        hit = np.flatnonzero(factors)  # only rows with an entry in this column change
        block = g[hit, col:]
        block -= np.multiply.outer(factors[hit], pivot_row)
        block %= p
        g[hit, col:] = block
    return g[:, n:]


def _common_denominator(x: list[int], modulus: int) -> tuple[int, list[int]] | None:
    """A denominator d and numerators y with y_j = d x_j (mod ``modulus``),
    d and every |y_j| at most sqrt(modulus / 2), found by rational
    reconstruction (von zur Gathen & Gerhard, Modern Computer Algebra,
    section 5.10) of each entry the current d does not already clear; None
    when some entry has no such form."""
    half = isqrt(modulus // 2)
    d, y = 1, []
    for v in x:
        v = d * v % modulus
        if half < v < modulus - half:
            # extended Euclid on (modulus, v) until the remainder is small
            r0, r1, t0, t1 = modulus, v, 0, 1
            while r1 > half:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(d * t1) > half:
                return None
            v, t1 = (r1, t1) if t1 > 0 else (-r1, -t1)
            d *= t1
            y = [u * t1 for u in y]
        elif v > half:
            v -= modulus
        y.append(v)
    return d, y
