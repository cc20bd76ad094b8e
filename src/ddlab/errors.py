"""Exception hierarchy shared by all ddlab modules."""


class DdlabError(Exception):
    """Base class for every error raised by this package."""


class DimensionExhausted(DdlabError):
    """The ambient GF(2) space is too small for the requested construction."""


class BudgetExceeded(DdlabError):
    """An enumeration or materialization would exceed its configured cap."""


class PointInSpan(DdlabError):
    """A point that must lie outside a span was found inside it."""


class SearchBudgetExceeded(DdlabError):
    """A permutation search exceeded its budget; carries the instance."""

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance


class NoIndependentSet(DdlabError):
    """No independent set of the requested size exists."""


class DegenerateGeometry(DdlabError):
    """The closure operator is degenerate; the projective construction
    does not apply."""


class GroundExhausted(DdlabError):
    """The ground set is too small to pick the required independent points."""


class IntermediateAssertFailed(DdlabError):
    """A checked intermediate identity failed; signals an implementation
    or instance bug."""


class MajorityTie(DdlabError):
    """No strict majority exists at this finite scale."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class NotASupport(DdlabError):
    """The given parameter set does not support the relation."""


class NotEquivalence(DdlabError):
    """The relation is not an equivalence relation."""


class DichotomyViolated(DdlabError):
    """A definable partition was neither single-block nor all-singletons
    outside its support."""


class ArityMismatch(DdlabError):
    """A tuple's length does not match the formula arity."""


class FormulaSyntaxError(DdlabError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownConstant(DdlabError):
    """Formula text references a constant outside the declared parameters."""
