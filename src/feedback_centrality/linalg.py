"""Numeric helpers: Perron pairs of non-negative matrices, refined dense
solves, and exact Gaussian elimination over rationals.

For an irreducible non-negative A the eigenvalue with the largest real part
is the simple Perron root, and its right and left eigenvectors are
one-signed (Perron-Frobenius).  Matrices of at most ``DENSE_EIG_LIMIT`` rows
take both vectors from one dense ``numpy.linalg.eig`` call each.  Larger ones
run power iteration on A + sI with s = the largest column sum, which is
cheaper there than a dense eigendecomposition: the shifted matrix is
primitive (its diagonal is positive), so the iteration converges
geometrically even when A itself is periodic.  Either way the eigenvalue is
then polished with the two-sided Rayleigh quotient, which is far more
accurate than the iteration's own normalization constant.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError

#: Largest matrix the dense float solver accepts.
DENSE_SOLVE_LIMIT = 512

#: Largest matrix whose Perron vectors come from a dense eigensolve.  Dense
#: ``eig`` beats shifted power iteration up to n of about 40-50 and loses
#: badly beyond, so the limit sits below that crossover.
DENSE_EIG_LIMIT = 32

POWER_TOL = 1e-12
POWER_MAX_ITER = 200_000


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


def _power_vector(a: np.ndarray, shift: float, tol: float, max_iter: int) -> np.ndarray:
    """Perron vector (sum 1) by power iteration on A + shift*I.

    Convergence: max |x_new - x| <= tol * max(x_new).
    """
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    change = np.inf
    for _ in range(max_iter):
        y = a @ x + shift * x
        y = y / y.sum()
        change = np.abs(y - x).max() / y.max()
        x = y
        if change <= tol:
            return x
    raise ConvergenceError(
        f"power iteration stalled at relative change {change:.3e} "
        f"after {max_iter} steps",
        residual=float(change),
    )


def perron_triple(
    a: np.ndarray, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER
) -> tuple[np.ndarray, np.ndarray, float]:
    """Right vector, left vector, and eigenvalue of a non-negative matrix.

    Intended for irreducible matrices (adjacency of a strongly connected
    graph); there both vectors are strictly positive and the eigenvalue is
    simple.  Vectors are normalized to sum 1.  The zero matrix yields
    uniform vectors and eigenvalue 0.  ``tol`` and ``max_iter`` bound the
    power iteration used above ``DENSE_EIG_LIMIT`` rows.  Raises
    ``ConvergenceError`` when a vector entry comes out zero or non-finite,
    or the eigenvalue non-finite.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 0 or a.shape != (n, n):
        raise DomainError(f"expected a square non-empty matrix, got shape {a.shape}")
    if a.min(initial=0.0) < 0:
        raise DomainError("matrix has negative entries")
    col_shift = float(a.sum(axis=0).max(initial=0.0))
    if col_shift == 0.0:
        u = np.full(n, 1.0 / n)
        return u, u.copy(), 0.0
    if n <= DENSE_EIG_LIMIT:
        x = _eig_vector(a)
        y = _eig_vector(a.T)
    else:
        row_shift = float(a.sum(axis=1).max(initial=0.0))
        x = _power_vector(a, col_shift, tol, max_iter)
        y = _power_vector(np.ascontiguousarray(a.T), row_shift, tol, max_iter)
    lam = float((y @ (a @ x)) / (y @ x))
    if not np.isfinite(lam):
        raise ConvergenceError(f"Perron eigenvalue is not finite: {lam}")
    return x, y, lam


def perron_value(
    a: np.ndarray, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER
) -> float:
    """Perron eigenvalue of a non-negative (irreducible) matrix."""
    return perron_triple(a, tol, max_iter)[2]


def solve_refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense float solve with one step of iterative refinement.

    The refinement step recovers most of the accuracy LU loses on mildly
    ill-conditioned systems, which keeps linear-system centralities within
    the tolerances the rest of the package promises.
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
        x = x + np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution is not finite; matrix is numerically singular")
    return x


def gauss_rational(
    a: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Exact solve of a square rational system by Gaussian elimination.

    Pivots on the first non-zero entry in each column (exact arithmetic
    needs no magnitude pivoting), so the result is deterministic.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DomainError("system dimensions do not match")
    m = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(a, rhs)]

    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        prow = m[col]
        pivot = prow[col]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                factor /= pivot
                row = m[r]
                for c in range(col, n + 1):
                    row[c] -= factor * prow[c]

    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        row = m[r]
        for c in range(r + 1, n):
            if row[c]:
                acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x
