"""Exception types shared across the library."""


class Error(Exception):
    """Base class for all errors raised by this package."""


# --- unreadable input (CLI exit code 2) ---

class ParseError(Error):
    """An input file or reference could not be read; raised from the CLI's
    loaders with the underlying failure as its cause."""


# --- invalid algebraic structure (CLI exit code 3) ---

class NotAssociative(Error):
    """A multiplication table fails associativity; args carry a witness triple."""


class ZeroNotAbsorbing(Error):
    """The declared zero element is not absorbing."""


class NotInverseSemigroup(Error):
    """Some element has no, or more than one, generalized inverse."""


STRUCTURE_ERRORS = (NotAssociative, ZeroNotAbsorbing, NotInverseSemigroup)


# --- precondition / usage errors (CLI exit code 4) ---

class SizeLimit(Error):
    """Input exceeds the supported desk-scale size."""


class AlreadyHasZero(Error):
    pass


class NoZeroElement(Error):
    pass


class NotIdempotent(Error):
    pass


class ClassMismatch(Error):
    pass


class NotHermitian(Error):
    pass


class DimensionMismatch(Error):
    pass


class SemigroupMismatch(Error):
    pass


class IncompleteIrrepSet(Error):
    pass


class WrongBasis(Error):
    pass


class WrongSemigroup(Error):
    pass


class IndexOutOfRange(Error):
    pass


class NotPositiveDefinite(Error):
    pass


class NotARepresentation(Error):
    pass


class NotFinite(Error, ValueError):
    """A matrix or map holds a NaN or an infinite entry."""


class UnknownMode(Error, ValueError):
    """A mode name that the function does not know."""


PRECONDITION_ERRORS = (
    SizeLimit,
    AlreadyHasZero,
    NoZeroElement,
    NotIdempotent,
    ClassMismatch,
    NotHermitian,
    DimensionMismatch,
    SemigroupMismatch,
    IncompleteIrrepSet,
    WrongBasis,
    WrongSemigroup,
    IndexOutOfRange,
    NotPositiveDefinite,
    NotARepresentation,
    NotFinite,
    UnknownMode,
)


# --- internal-consistency failures: these signal a bug, not a data condition
# (CLI exit code 5, as is any exception the library does not type) ---

class InternalInconsistency(Error):
    pass


class ReconstructionFailure(Error):
    pass


class NonConvergent(Error):
    pass
