"""Numeric helpers: Perron pairs of non-negative matrices, refined dense
solves, and exact solves of rational systems on integers, by fraction-free
(Bareiss) elimination or, for larger systems, by p-adic (Dixon) lifting.

For an irreducible non-negative A the eigenvalue with the largest real part
is the simple Perron root, and its right and left eigenvectors are
one-signed (Perron-Frobenius).  Matrices of at most ``DENSE_EIG_LIMIT`` rows
take that eigenvalue from one ``numpy.linalg.eigvals`` call, without
vectors, and both vectors from one batched solve of the bordered systems of
A and A^T.  Larger ones run power iteration on B = (A + sI)/(2s) with s =
the largest column sum, which is cheaper there than a dense eigenvalue
solve: B is primitive (its diagonal is positive), so the iteration
converges geometrically even when A itself is periodic, and every column of
B sums to a value in [1/2, 1], so ``POWER_BLOCK`` steps run between two
normalizations without overflow or underflow.  Either way the eigenvalue is
then polished with the two-sided Rayleigh quotient, which is far more
accurate than ``eigvals``' value or the iteration's normalization constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul

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
#: density (mean of 8, best of 9, 2-core Xeon, OpenBLAS), that path took
#: 0.36 against 0.49 ms for blocked power iteration at n = 40, 0.43 against
#: 0.54 ms at n = 44 and 0.48 against 0.43 ms at n = 48; the limit sits a
#: little below that crossover.
DENSE_EIG_LIMIT = 40

POWER_TOL = 1e-12
POWER_MAX_ITER = 200_000

#: Power steps between two normalizations and convergence tests.
POWER_BLOCK = 8

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
    try:
        lam0 = float(np.linalg.eigvals(a).real.max())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    if not np.isfinite(lam0):
        raise ConvergenceError(f"Perron eigenvalue is not finite: {lam0}")
    k = np.zeros((2, n + 1, n + 1))
    k[0, :n, :n] = a
    k[1, :n, :n] = a.T
    k[:, :n, n] = k[:, n, :n] = 1.0
    i = np.arange(n)
    k[:, i, i] -= lam0
    rhs = np.zeros((2, n + 1, 1))
    rhs[:, n] = 1.0
    try:
        x, y = np.linalg.solve(k, rhs)[:, :n, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    if not (np.isfinite(x.sum() + y.sum()) and min(x.min(), y.min()) > 0.0):
        raise ConvergenceError(
            "dense eigensolve gave a Perron vector with zero or non-finite entries"
        )
    return x / x.sum(), y / y.sum()


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
            x, y = _bordered_vectors(a)
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
