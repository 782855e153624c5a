"""Exception types shared across the package.

Division by zero raises the builtin ZeroDivisionError; index range
violations raise the builtin IndexError.
"""


class LeonardError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(LeonardError):
    """A matrix required to be invertible has zero determinant."""


class DuplicateEigenvalue(LeonardError):
    """Two listed eigenvalues coincide."""


class NotALeonardPair(LeonardError):
    """Certification failed; carries the failing verification report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateSplit(LeonardError):
    """A split-basis vector vanished, the extracted array is invalid, two
    flags are not opposite or a premise of a construction fails: the input is
    not a Leonard system."""


class InconsistentArray(LeonardError):
    """theta = theta* held but the second split sequence is not palindromic."""


class ZeroInnerProduct(LeonardError):
    """An anchor inner product vanished; the input is not certified."""


class SingularBasis(LeonardError):
    """A claimed basis sequence is not linearly independent."""


class UnknownBasis(LeonardError):
    """Unrecognized basis identifier."""


class BudgetExceeded(LeonardError):
    """The work a call would do exceeds the configured budget."""


class ExhaustedTrials(LeonardError):
    """Random search hit its trial cap before reaching the requested limit.

    The arrays found so far are available on the ``found`` attribute.
    """

    def __init__(self, message, found=()):
        super().__init__(message)
        self.found = list(found)
