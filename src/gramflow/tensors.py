"""Dense tensors over typed wire spaces: shapes, products, and file I/O.

Tensors are plain float64 numpy arrays; a rank-0 array is a scalar.  The
structure added here is the link between a grammatical type and an array
shape: every basic type is assigned a fixed dimension, and a simple type's
wire carries the dimension of its base regardless of adjoint order.  Each
space carries a fixed orthonormal basis and is identified with its dual,
which is what makes the delta cups and caps of :mod:`gramflow.semantics`
basis-meaningful.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import reduce as _fold
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ArgumentError, ParseError, SpaceError, positive_int
from .pregroup import PregroupType

__all__ = ["SpaceAssignment", "shape_of", "kron", "cup", "read_tensor", "write_tensor"]


@dataclass(frozen=True)
class SpaceAssignment:
    """Dimension of the vector space attached to each basic type, by name.

    Immutable: ``dims`` is a read-only mapping, and two assignments of the
    same dimensions compare and hash equal, so a space can key a cache.
    It pickles and copies as the plain dict it is built from.
    """

    dims: Mapping[str, int] = field(compare=False)
    _items: tuple[tuple[str, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.dims, Mapping):
            raise ArgumentError(f"space dimensions are {self.dims!r}, not a mapping")
        clean = {}
        for base, d in self.dims.items():
            name = str(base)
            clean[name] = positive_int(f"dimension for base {name!r}", d)
        object.__setattr__(self, "dims", MappingProxyType(clean))
        object.__setattr__(self, "_items", tuple(sorted(clean.items())))

    def __reduce__(self):
        return SpaceAssignment, (dict(self.dims),)

    def dim(self, base: str) -> int:
        try:
            return self.dims[base]
        except KeyError:
            raise SpaceError(f"no dimension assigned to basic type {base!r}") from None


def _instance(what: str, value, cls) -> None:
    """:class:`ArgumentError` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ArgumentError(f"{what} is {value!r}, not a {cls.__name__}")


def shape_of(ptype: PregroupType, space: SpaceAssignment) -> tuple[int, ...]:
    """Shape of the tensor space a type lives in: one axis per simple type."""
    _instance("space", space, SpaceAssignment)
    return tuple(space.dim(t.base) for t in ptype)


def kron(a, b) -> np.ndarray:
    """Tensor product with axis-concatenating shape.

    ``kron(a, b)[i..., j...] = a[i...] * b[j...]`` and the result shape is
    ``a.shape + b.shape`` (unlike ``np.kron``, which flattens axis pairs).
    Associative, with the rank-0 scalar 1 as unit.
    """
    return np.multiply.outer(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def kron_all(tensors) -> np.ndarray:
    """Left fold of :func:`kron` over a sequence; empty product is scalar 1."""
    return _fold(kron, tensors, np.asarray(1.0))


def cup(d: int) -> np.ndarray:
    """The maximally correlated pair state: shape [d, d] with entries d_ij.

    Used both as a state (cup) and, read as a bilinear functional, as the
    cap that cancels a pair of wires by summing their matched coordinates.
    """
    return np.eye(positive_int("dimension", d))


def _file_path(path):
    """``path``; :class:`ArgumentError` unless it is a ``str``, ``bytes`` or ``os.PathLike``.

    ``open`` takes an integer as a file descriptor, which it closes afterwards.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ArgumentError(f"path is {path!r}, not a str, bytes or os.PathLike")
    return path


def _read_text(path) -> str:
    """The file's text, less one leading byte-order mark; ``ParseError`` unless it is UTF-8."""
    try:
        with open(_file_path(path), "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_tensor(path) -> np.ndarray:
    """Read the whitespace tensor format.

    Line 1 holds the space-separated dimensions (empty for a rank-0 tensor),
    later lines hold the row-major values; ``#`` lines are comments.  The
    file is read in text mode, so lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``.  Text that is not UTF-8, a negative dimension, a shape numpy
    cannot hold and ``nan`` or infinite values raise ``ParseError``.
    """
    text = _read_text(path)
    # (line number, line); the text after the last line end is a line only when not empty
    lines = list(enumerate(text.split("\n"), start=1))
    if not lines[-1][1]:
        lines.pop()
    lines = [(ln, line) for ln, line in lines if not line.lstrip().startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty tensor file")
    head = lines[0][1]
    try:
        shape = tuple(int(tok) for tok in head.split())
    except ValueError:
        raise ParseError(f"{path}: bad dimension line {head!r}") from None
    if min(shape, default=0) < 0:
        raise ParseError(f"{path}: negative dimension in {head!r}")
    tokens = " ".join([line for _, line in lines[1:]]).split()
    try:
        # parses each text exactly as float() does, in one call
        values = np.array(tokens, dtype=float)
    except ValueError:
        raise ParseError(f"{path}: non-numeric tensor value") from None
    expected = math.prod(shape)
    if len(values) != expected:
        raise ParseError(f"{path}: expected {expected} values for shape {list(shape)}, got {len(values)}")
    finite = np.isfinite(values)
    if not finite.all():
        first = rest = int(np.argmin(finite))
        for ln, line in lines[1:]:
            rest -= len(line.split())
            if rest < 0:
                raise ParseError(f"{path}:{ln}: non-finite tensor value {tokens[first]!r}")
    try:
        return values.reshape(shape)
    except ValueError as exc:  # more axes than numpy allows, or an empty shape too large
        raise ParseError(f"{path}: unsupported shape {list(shape)}: {exc}") from None


def write_tensor(tensor, path) -> None:
    """Write the whitespace tensor format; values round-trip bit-exactly.

    Raises :class:`ArgumentError`, before the file is opened, for a ``nan``
    or infinite value, which :func:`read_tensor` would reject.
    """
    arr = np.asarray(tensor, dtype=float)
    if not np.isfinite(arr).all():
        raise ArgumentError("tensor has a non-finite value")
    with open(_file_path(path), "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(d) for d in arr.shape) + "\n")
        if arr.ndim == 0:
            fh.write(repr(float(arr)) + "\n")
            return
        # sizes given, since numpy cannot infer an axis of an empty array
        for row in arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1]):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
