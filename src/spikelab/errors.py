"""Exception types shared across the package."""


class SpikeLabError(Exception):
    """Base class for all spikelab errors."""


class CompositeModulusError(SpikeLabError, ValueError):
    """The requested modulus is not prime."""


class OutOfRangeError(SpikeLabError, ValueError):
    """A parameter exceeds its supported range."""


class ZeroInverseError(SpikeLabError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NonSquareError(SpikeLabError, ValueError):
    """Determinant of a non-square matrix requested."""


class TooLargeError(SpikeLabError, ValueError):
    """Instance exceeds the supported desk-scale cap."""


class TooSmallError(SpikeLabError, ValueError):
    """Instance is below the minimum supported size."""


class ZeroEntryError(SpikeLabError, ValueError):
    """A vector entry that must be nonzero is zero."""


class DependentTransversalError(SpikeLabError, ValueError):
    """The selected transversal is not a basis."""


class NotInSignatureError(SpikeLabError, ValueError):
    """The index set is not a member of the signature."""


class NoCircuitHyperplaneError(SpikeLabError, ValueError):
    """The diagonal has an empty signature."""


class MismatchedShapeError(SpikeLabError, ValueError):
    """Operands have different field or length."""


class NoWitnessError(SpikeLabError, LookupError):
    """No subset attains the requested sum."""


class BudgetExceededError(SpikeLabError, RuntimeError):
    """The operation would exceed (or has exhausted) its work budget."""


class VerdictMismatchError(SpikeLabError, RuntimeError):
    """Two independent routes to the same verdict disagree."""
