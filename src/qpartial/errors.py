"""Exception types shared across the library."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPositiveError(ValueError):
    """Matrix has an eigenvalue below -``linalg.PSD_TOL``.

    ``witness`` is a unit vector x with <x|Ax> < 0 and ``eigenvalue`` the
    offending (most negative) eigenvalue.
    """

    def __init__(self, message, witness=None, eigenvalue=None):
        super().__init__(message)
        self.witness = witness
        self.eigenvalue = eigenvalue


class InvalidOperatorError(ValueError):
    """Operator fails partial-density validation (trace bound, shape, ...)."""


class ChainMonotonicityError(ValueError):
    """A loop's Kleene approximant chain was not increasing.

    ``index`` is the 1-based position of the first offending step and
    ``witness`` a direction along which the chain decreases.
    """

    def __init__(self, message, index, witness=None):
        super().__init__(message)
        self.index = index
        self.witness = witness


class CrossCheckError(ArithmeticError):
    """Two redundant computations of the same quantity diverged."""


class NonUnitaryError(ValueError):
    """Gate matrix is not unitary within tolerance."""


class ParseError(ValueError):
    """Program text rejected; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
