"""Exception types shared across the package."""


class FeedbackCentralityError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(FeedbackCentralityError, ValueError):
    """Malformed graph file input.

    Carries the 1-based line number when the problem is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(FeedbackCentralityError, ValueError):
    """Input outside the domain of an operation.

    Examples: a measure applied to a graph outside its admissible class, a
    decay parameter out of range, a construction cap exceeded.
    """


class PreconditionError(FeedbackCentralityError, ValueError):
    """An axiom-check instance violates the axiom's hypothesis.

    Distinct from a failed check: the instance never made it to the equality
    being tested.
    """


class ConvergenceError(FeedbackCentralityError, RuntimeError):
    """A float Perron pass failed: power iteration hit its iteration cap
    (``residual``, the best relative change reached, is set only then), the
    dense bordered solve failed in LAPACK or gave a zero or non-finite vector
    entry, or the eigenvalue came out non-finite."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (achieved relative change {residual:.3e})"
        super().__init__(message)


class SingularMatrixError(FeedbackCentralityError, ArithmeticError):
    """A linear solve has no usable answer: exact elimination met a singular
    system, or ``linalg.solve_refined``'s LU failed or gave a non-finite
    solution.  ``transforms.profit_value`` raises it for a float profit
    value beyond the float range."""
