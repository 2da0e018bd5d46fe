"""Exception types shared across the package."""


class MvGroverError(Exception):
    """Base class for all package errors."""


class ZeroSize(MvGroverError):
    """A grid dimension or mode count is zero."""


class CapacityExceeded(MvGroverError):
    """Requested problem size is beyond the dense-storage limits."""


class ShapeMismatch(MvGroverError):
    """An amplitude tensor or table does not match its grid."""


class GridMismatch(MvGroverError):
    """Operands live on different grids."""


class AncillaMismatch(MvGroverError):
    """Operator and state disagree about the ancilla bit."""


class ZeroNorm(MvGroverError):
    """Cannot normalize a state with numerically zero norm."""


class LatticeMisaligned(MvGroverError):
    """Position samples do not sit on the modular grid lattice."""


class WindowTooSmall(MvGroverError):
    """The truncation window loses more than the allowed norm fraction."""


class BadMode(MvGroverError):
    """Mode index out of range."""


class NonRealWeight(MvGroverError):
    """Weight tables must be real-valued."""


class DuplicateTarget(MvGroverError):
    """Multi-target searches require distinct logical strings."""


class WeightOutOfRange(MvGroverError):
    """Dilation weights must satisfy |w| <= 1."""


class BadTargetCount(MvGroverError):
    """Number of targets must satisfy 1 <= M < 2**n."""


class DegenerateWeights(MvGroverError):
    """The weight function vanishes wherever the envelopes carry mass."""


class AmbiguousAssociation(MvGroverError):
    """More than one logical state is non-orthogonal to the result."""


class NoAssociation(MvGroverError):
    """No logical state is non-orthogonal to the result."""


class ConfigInvalid(MvGroverError):
    """A run configuration failed validation; path is the JSON path of the
    offending value, "" for the file or its top level, which reads as the
    message alone."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class BadMagic(MvGroverError):
    """State file does not start with the expected magic bytes."""


class TruncatedFile(MvGroverError):
    """State file payload does not match the size promised by its header."""
