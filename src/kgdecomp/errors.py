"""Exception and warning taxonomy shared by all kgdecomp modules."""

from __future__ import annotations


class KgDecompError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(KgDecompError):
    """Operands have incompatible shapes or a non 2^n dimension."""


class NotSkewHermitianError(KgDecompError):
    """Input expected in the Lie algebra fails the skew-Hermitian check."""


class NotUnitaryError(KgDecompError):
    """Input expected in the (special) unitary group fails its check."""


class NonOrthogonalBasisError(KgDecompError):
    """A word span repeats a Pauli word or mixes word lengths."""


class SingularMatrixError(KgDecompError):
    """Matrix is numerically singular where invertibility is required."""


class BadLabelError(KgDecompError):
    """Pauli word label contains characters outside {I, X, Y, Z}."""


class SubspaceViolationError(KgDecompError):
    """An algebra element lies too far from its required span."""


class NotTensorWithIdentityError(KgDecompError):
    """Matrix lacks the A (x) I2 block pattern needed for extraction."""


class LevelExceedsRegisterError(KgDecompError):
    """A factor's level does not fit the register it is expanded on."""


class ParseError(KgDecompError):
    """A matrix or factor-tree document failed to parse.

    Attributes:
        message: what is wrong, without the location.
        location: human-readable position of the failure inside the document.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message} (at {location})" if location else message)
        self.message = message
        self.location = location


class OptimizerFailedError(KgDecompError):
    """A Cartan stage's solution failed its commutator, projection or
    eigenphase check.

    Attributes:
        best: the (k1, h) pair found, kept for diagnostics.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ReconstructionError(KgDecompError):
    """The factor product misses the input by more than the allowed error."""


class RootSearchFailedError(KgDecompError):
    """BCH root search exhausted its iterations above tolerance.

    Attributes:
        best: the best (k, m, residual) triple found.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class OrderTooHighError(KgDecompError):
    """Requested BCH truncation order exceeds the supported cap."""


class BranchAmbiguityWarning(UserWarning):
    """A unitary logarithm has an eigenvalue within 1e-8 of -1.

    The principal branch is still returned; the warning flags that the
    choice is ambiguous on this measure-zero set.
    """
