"""Exception types shared across the curation pipeline."""


class CurationError(Exception):
    """Base class for every error this package raises on purpose."""


class WrongPointCount(CurationError):
    """Trajectory does not carry exactly 12 ground-plane points."""


class NonFiniteValue(CurationError):
    """A coordinate, state scalar or metric weight is NaN, infinite or beyond
    ``states.MAX_ABS``, a weight is negative, or a distance is not finite and >= 0."""


class EmptyId(CurationError):
    """Trajectory id is empty."""


class DuplicateId(CurationError):
    """Two records in one pool or file share an id."""


class TooFewPoints(CurationError):
    """Dynamics estimation needs at least three positions."""


class ZeroDt(CurationError):
    """Sampling interval must be a positive number of seconds."""


class UnknownId(CurationError):
    """An id does not belong to the partition or pool."""


class EmptyUnlabeledPool(CurationError):
    """A sampling round needs at least one unlabeled trajectory."""


class InvalidSpec(CurationError):
    """Synthetic pool specification violates its invariants."""


class InsufficientPool(CurationError):
    """Pool is too small for the requested experiment budgets."""


class ParseError(CurationError):
    """An input file is malformed, or a cut or dendrogram does not fit its pool."""


class InvalidFlagValue(CurationError):
    """A command-line flag value is outside its legal range."""
