"""Exception hierarchy shared by all exteq modules."""


class ExtEqError(Exception):
    """Base class for all errors raised by this package."""


class ResourceBound(ExtEqError):
    """A configured cap (ball size, state count, stream length) was hit."""


class BallTooSmall(ExtEqError):
    """A distance query walked outside the precomputed ball."""


class GroupMismatch(ExtEqError):
    """Arithmetic attempted between elements of different groups."""


class NotInImage(ExtEqError):
    """Partial inverse applied to an element outside the map's image."""


class NotTrivialInBase(ExtEqError):
    """central_defect called on a word that is not trivial in the base group."""


class CoordMismatch(ExtEqError):
    """Extension elements in different coordinate systems were combined."""


class AlphabetMismatch(ExtEqError):
    """A word contains letters outside the expected alphabet."""


class UnknownState(ExtEqError):
    """A state index outside the automaton's state set was referenced."""


class SchemaError(ExtEqError):
    """A JSON artifact failed schema validation; message names the path."""


class Incompatible(ExtEqError):
    """A word is not compatible with the given accepting state."""


class NotAcceptingState(ExtEqError):
    """An operation restricted to accepting states got a non-accepting one."""


class AccumulatorBound(ExtEqError):
    """The reachable accumulator value set exceeded its cap."""


class ValueNotInASet(ExtEqError):
    """A branch value outside the computed finite value set was requested."""


class LiftVerificationFailed(ExtEqError):
    """A lifted solution failed direct verification; payload names the row."""


class EmptyEquation(ExtEqError):
    """An equation with no symbols was supplied."""


class SynthesisInconsistent(ExtEqError):
    """A synthesized automaton disagreed with direct evaluation during
    validation; carries the validation report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ValueSetUnstable(ExtEqError):
    """An observed value set kept growing between the learning and the
    validation radius."""
