"""Exception types shared across the package."""


class GramflowError(Exception):
    """Base class for every error this package raises on bad input or data."""


class ArgumentError(GramflowError, ValueError):
    """An argument is outside its valid range (also a ``ValueError``)."""


class DiagramError(GramflowError, ValueError):
    """A reduction diagram breaks an invariant of its sequence (also a ``ValueError``)."""


class ParseError(GramflowError):
    """Malformed type notation, tensor file, model file, or lexicon line."""


class SpaceError(GramflowError):
    """A basic type has no dimension assigned in the active space."""


class ShapeError(GramflowError):
    """A tensor's shape does not match the shape its type requires."""


class SizeCapError(GramflowError):
    """An evaluation would materialize more entries than its cap allows."""


class UnknownWordError(GramflowError):
    """A word is missing from the lexicon, model, or corpus."""


class DegenerateVectorError(GramflowError):
    """A zero or non-finite vector was passed where a direction is required."""


class CorpusError(GramflowError):
    """The corpus cannot support the requested operation (empty, too small)."""
