"""Exception types shared across the library, and the CLI exit code of each."""


class Error(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Error):
    """An input file or reference could not be read; raised from the CLI's
    loaders with the underlying failure as its cause."""
    exit_code = 2


class StructureError(Error):
    """The input is not a valid algebraic structure."""
    exit_code = 3


class PreconditionError(Error):
    """A well-formed input that the called function does not accept."""
    exit_code = 4


class NotAssociative(StructureError):
    """A multiplication table fails associativity; args carry a witness triple."""


class ZeroNotAbsorbing(StructureError):
    """The declared zero element is not absorbing."""


class NotInverseSemigroup(StructureError):
    """Some element has no, or more than one, generalized inverse."""


class SizeLimit(PreconditionError):
    """Input exceeds the supported desk-scale size."""


class AlreadyHasZero(PreconditionError):
    pass


class NoZeroElement(PreconditionError):
    pass


class NotIdempotent(PreconditionError):
    pass


class ClassMismatch(PreconditionError):
    pass


class NotHermitian(PreconditionError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class SemigroupMismatch(PreconditionError):
    pass


class IncompleteIrrepSet(PreconditionError):
    pass


class WrongBasis(PreconditionError):
    pass


class WrongSemigroup(PreconditionError):
    pass


class IndexOutOfRange(PreconditionError):
    pass


class NotPositiveDefinite(PreconditionError):
    pass


class NotARepresentation(PreconditionError):
    pass


class NotFinite(PreconditionError, ValueError):
    """A matrix or map holds a NaN or an infinite entry."""


class UnknownMode(PreconditionError, ValueError):
    """A mode name that the function does not know."""


# --- internal-consistency failures: these signal a bug, not a data condition,
# so they name no exit code (CLI exit code 5, as has any untyped exception) ---

class InternalInconsistency(Error):
    pass


class ReconstructionFailure(Error):
    pass


class NonConvergent(Error):
    pass
