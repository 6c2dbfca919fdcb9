"""Numeric helpers: Perron pairs of non-negative matrices, refined dense
solves, and exact solves of rational systems by fraction-free (Bareiss)
elimination on integers.

For an irreducible non-negative A the eigenvalue with the largest real part
is the simple Perron root, and its right and left eigenvectors are
one-signed (Perron-Frobenius).  Matrices of at most ``DENSE_EIG_LIMIT`` rows
take both vectors from one dense ``numpy.linalg.eig`` call each.  Larger ones
run power iteration on B = (A + sI)/(2s) with s = the largest column sum,
which is cheaper there than a dense eigendecomposition: B is primitive (its
diagonal is positive), so the iteration converges geometrically even when A
itself is periodic, and every column of B sums to a value in [1/2, 1], so
``POWER_BLOCK`` steps run between two normalizations without overflow or
underflow.  Either way the eigenvalue is then polished with the two-sided
Rayleigh quotient, which is far more accurate than the iteration's own
normalization constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError

#: Largest matrix the dense float solver accepts.
DENSE_SOLVE_LIMIT = 512

#: Largest matrix whose Perron vectors come from a dense eigensolve.  Dense
#: ``eig`` beats blocked power iteration up to n of about 24-28 (both about
#: 0.3-0.4 ms per triple on a 2-core Xeon with OpenBLAS) and loses badly
#: beyond (2.9 against 0.4 ms at n = 64), so the limit sits a little above
#: that crossover.
DENSE_EIG_LIMIT = 32

POWER_TOL = 1e-12
POWER_MAX_ITER = 200_000

#: Power steps between two normalizations and convergence tests.
POWER_BLOCK = 8


def _eig_vector(a: np.ndarray) -> np.ndarray:
    """Perron vector (sum 1) of an irreducible matrix by dense ``eig``."""
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    vec = np.abs(vecs[:, np.argmax(vals.real)].real)
    total = vec.sum()
    if not (np.isfinite(total) and vec.min() > 0.0):
        raise ConvergenceError(
            "dense eigensolve gave a Perron vector with zero or non-finite entries"
        )
    return vec / total


def _power_vector(a: np.ndarray, shift: float) -> np.ndarray:
    """Perron vector (sum 1) by power iteration on B = (A + shift*I)/(2*shift).

    Each block runs ``POWER_BLOCK`` steps ``B @ x``, then normalizes and tests
    its last two iterates: max |x_new - x| <= POWER_TOL * max(x_new).
    Exactly ``POWER_MAX_ITER`` steps run before ``ConvergenceError``.
    """
    n = a.shape[0]
    b = a / (2.0 * shift)  # 0.5/shift is subnormal for a shift near the float maximum
    b[np.diag_indices(n)] += 0.5
    x = np.full(n, 1.0 / n)
    change = np.inf
    for done in range(0, POWER_MAX_ITER, POWER_BLOCK):
        for _ in range(min(POWER_BLOCK, POWER_MAX_ITER - done) - 1):
            x = b @ x
        x = x / x.sum()
        y = b @ x
        y = y / y.sum()
        change = np.abs(y - x).max() / y.max()
        x = y
        if change <= POWER_TOL:
            return x
    raise ConvergenceError(
        f"power iteration stalled after {POWER_MAX_ITER} steps", residual=float(change)
    )


def perron_triple(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Right vector, left vector, and eigenvalue of a non-negative matrix.

    Intended for irreducible matrices (adjacency of a strongly connected
    graph); there both vectors are strictly positive and the eigenvalue is
    simple.  Vectors are normalized to sum 1.  The zero matrix yields
    uniform vectors and eigenvalue 0.  ``POWER_TOL`` and ``POWER_MAX_ITER``
    bound the power iteration used above ``DENSE_EIG_LIMIT`` rows.  Raises
    ``ConvergenceError`` when a vector entry comes out zero or non-finite,
    or the eigenvalue non-finite; no numpy warning escapes.  Power iteration
    whose shift lies beyond half the float range runs on A/max(A) and
    multiplies the eigenvalue back.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 0 or a.shape != (n, n):
        raise DomainError(f"expected a square non-empty matrix, got shape {a.shape}")
    if a.min(initial=0.0) < 0:
        raise DomainError("matrix has negative entries")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        col_shift = float(a.sum(axis=0).max(initial=0.0))
        if col_shift == 0.0:
            u = np.full(n, 1.0 / n)
            return u, u.copy(), 0.0
        scale = 1.0  # lambda of the matrix the vectors come from, times this
        if n <= DENSE_EIG_LIMIT:
            x = _eig_vector(a)
            y = _eig_vector(a.T)
        else:
            row_shift = float(a.sum(axis=1).max(initial=0.0))
            if not np.isfinite(2.0 * max(col_shift, row_shift)):
                # B = (A + sI)/(2s) needs a finite 2s: iterate on A/max(A)
                scale = float(a.max())
                a = a / scale
                col_shift, row_shift = float(a.sum(axis=0).max()), float(a.sum(axis=1).max())
            x = _power_vector(a, col_shift)
            y = _power_vector(a.T, row_shift)
        lam = scale * float((y @ (a @ x)) / (y @ x))
    if not np.isfinite(lam):
        raise ConvergenceError(f"Perron eigenvalue is not finite: {lam}")
    return x, y, lam


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
    n = a.shape[0]
    if n > DENSE_SOLVE_LIMIT:
        raise DomainError(
            f"dense float solve is limited to {DENSE_SOLVE_LIMIT} unknowns, got {n}"
        )
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
    """Exact solve of a square rational system by fraction-free elimination.

    Entries may be anything ``Fraction`` accepts (floats convert exactly).
    Each augmented row is scaled to integers by the LCM of its denominators;
    Bareiss elimination then updates the rows below pivot p as
    (a*p - f*b) // p_prev, exact by Sylvester's identity, so no step takes a
    gcd.  Pivots on the first non-zero entry in each column (exact
    arithmetic needs no magnitude pivoting), so the result is deterministic.
    The last pivot d is a determinant, so d * x is an integer vector that
    back substitution finds without fractions.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DomainError("system dimensions do not match")
    m = []
    for row, r in zip(a, rhs):
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (*row, r)]
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])

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
