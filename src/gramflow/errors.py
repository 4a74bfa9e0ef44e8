"""Exception types shared across the package, and the one integer rule its argument checks share."""

import operator

__all__ = ["GramflowError", "ArgumentError", "DiagramError", "ParseError", "SpaceError", "ShapeError",
           "SizeCapError", "UnknownWordError", "DegenerateVectorError", "CorpusError"]


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
    """A word is missing from the lexicon or the vector model."""


class DegenerateVectorError(GramflowError):
    """A zero or non-finite vector was passed where a direction is required."""


class CorpusError(GramflowError):
    """The corpus cannot support the requested operation (empty, too small)."""


def integer(what: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; :class:`ArgumentError` unless it is an integer of at least ``minimum``.

    Any type with ``__index__`` passes, numpy integers included, but not ``bool``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ArgumentError(f"{what} is {value!r}, not an integer")
    if minimum is not None and number < minimum:
        raise ArgumentError(f"{what} must be >= {minimum}, got {number}")
    return number


def positive_int(what: str, value) -> int:
    """``value`` as an ``int``; :class:`ArgumentError` unless it is an integer of at least 1."""
    return integer(what, value, 1)
