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
from dataclasses import dataclass
from functools import reduce as _fold
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ArgumentError, ParseError, SpaceError
from .pregroup import PregroupType

__all__ = ["SpaceAssignment", "shape_of", "kron", "cup", "read_tensor", "write_tensor"]


@dataclass(frozen=True, eq=False)
class SpaceAssignment:
    """Dimension of the vector space attached to each basic type, by name.

    Immutable: ``dims`` is a read-only mapping, and two assignments of the
    same dimensions compare and hash equal, so a space can key a cache.
    """

    dims: Mapping[str, int]

    def __post_init__(self):
        clean = {}
        for base, d in self.dims.items():
            name = str(base)
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
                raise ArgumentError(f"dimension for base {name!r} is {d!r}, not an integer")
            if d < 1:
                raise ArgumentError(f"dimension for base {name!r} must be >= 1, got {d}")
            clean[name] = int(d)
        object.__setattr__(self, "dims", MappingProxyType(clean))
        object.__setattr__(self, "_items", tuple(sorted(clean.items())))

    def __eq__(self, other):
        if not isinstance(other, SpaceAssignment):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def dim(self, base: str) -> int:
        try:
            return self.dims[base]
        except KeyError:
            raise SpaceError(f"no dimension assigned to basic type {base!r}") from None


def shape_of(ptype: PregroupType, space: SpaceAssignment) -> tuple[int, ...]:
    """Shape of the tensor space a type lives in: one axis per simple type."""
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
    tensors = list(tensors)
    if not tensors:
        return np.asarray(1.0)
    return _fold(kron, (np.asarray(t, dtype=float) for t in tensors))


def cup(d: int) -> np.ndarray:
    """The maximally correlated pair state: shape [d, d] with entries d_ij.

    Used both as a state (cup) and, read as a bilinear functional, as the
    cap that cancels a pair of wires by summing their matched coordinates.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return np.eye(d)


def read_tensor(path) -> np.ndarray:
    """Read the whitespace tensor format.

    Line 1 holds the space-separated dimensions (empty for a rank-0 tensor),
    later lines hold the row-major values; ``#`` lines are comments.  Text
    that is not UTF-8, a negative dimension, a shape numpy cannot hold and
    ``nan`` or infinite values raise ``ParseError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1)
             if not line.lstrip().startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty tensor file")
    header = lines[0][1].split()
    try:
        shape = tuple(int(tok) for tok in header)
    except ValueError:
        raise ParseError(f"{path}: bad dimension line {lines[0][1]!r}") from None
    if min(shape, default=0) < 0:
        raise ParseError(f"{path}: negative dimension in {lines[0][1]!r}")
    tokens = " ".join(line for _, line in lines[1:]).split()
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
    """Write the whitespace tensor format; values round-trip bit-exactly."""
    arr = np.asarray(tensor, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(d) for d in arr.shape) + "\n")
        if arr.ndim == 0:
            fh.write(repr(float(arr)) + "\n")
            return
        rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
