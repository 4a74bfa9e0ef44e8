"""Evaluation of reduction diagrams as linear maps on word tensors.

A grammatical reduction is read as a linear map: every cup becomes the
functional that sums matched coordinates of the two wires it joins
(sum_i <ii|) and every surviving wire becomes an identity.  Applying that
map to the tensor product of the word tensors, taken in sentence order,
yields the sentence tensor.

Two evaluators are provided.  :func:`meaning_naive` follows the definition
literally: it materializes the full word product and the full linear map and
is the reference oracle.  :func:`meaning` computes the same value in one
left-to-right walk over the wires with a stack of partial tensors (linear
pregroup processing, after Preller), never building the word product.

Input tensors are never mutated and every function here is pure, so
independent sentences can be evaluated concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, DiagramError, ShapeError, SizeCapError
from .pregroup import PregroupType, ReductionDiagram, validate_diagram
from .tensors import SpaceAssignment, cup, kron_all, shape_of

__all__ = [
    "WordMeaning",
    "meaning",
    "meaning_naive",
    "snake_check",
    "choi_embed",
    "is_separable",
    "cosine",
]

DEFAULT_SIZE_CAP = 10_000_000


@dataclass(frozen=True)
class WordMeaning:
    """A word, its grammatical type, and a tensor shaped like that type."""

    word: str
    type: PregroupType
    tensor: np.ndarray


def _checked_sequence(words, diagram, space):
    """Validate words against the diagram; return (sequence, per-position dims)."""
    for w in words:
        expected = shape_of(w.type, space)
        got = tuple(np.shape(w.tensor))
        if got != expected:
            raise ShapeError(
                f"word {w.word!r}: tensor shape {list(got)} does not match "
                f"type {str(w.type)!r} with shape {list(expected)}"
            )
    seq = PregroupType(tuple(t for w in words for t in w.type))
    if len(seq) != diagram.length:
        raise ShapeError(
            f"diagram was built for {diagram.length} wire positions, "
            f"words supply {len(seq)}"
        )
    try:
        validate_diagram(seq, diagram)
    except DiagramError as exc:
        raise ShapeError(f"diagram does not fit the word sequence: {exc}") from None
    return seq, [space.dim(t.base) for t in seq]


def meaning_naive(words, diagram, space, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Reference evaluator: build everything, then apply the map.

    Step 1 materializes the tensor product of the word tensors in sentence
    order.  Step 2 materializes the linear map as an array with one output
    axis per surviving wire and one input axis per position, the product of
    a delta factor per cup and a delta factor routing each surviving wire to
    its output.  Step 3 contracts the map with the word product.

    Intended as a desk-scale oracle: refuses to materialize more than
    ``size_cap`` entries.
    """
    words = list(words)
    _, dims = _checked_sequence(words, diagram, space)
    total = 1
    for d in dims:
        total *= d
    if total > size_cap:
        raise SizeCapError(f"word product holds {total} entries, above the cap of {size_cap}")
    big = kron_all([w.tensor for w in words])

    out_dims = [dims[p] for p in diagram.through]
    n_out, n_in = len(out_dims), len(dims)
    fmap = np.ones(tuple(out_dims) + tuple(dims))
    for i, j in diagram.links:
        shape = [1] * (n_out + n_in)
        shape[n_out + i] = dims[i]
        shape[n_out + j] = dims[j]
        fmap = fmap * cup(dims[i]).reshape(shape)
    for o, p in enumerate(diagram.through):
        shape = [1] * (n_out + n_in)
        shape[o] = dims[p]
        shape[n_out + p] = dims[p]
        fmap = fmap * cup(dims[p]).reshape(shape)
    return np.tensordot(fmap, big, axes=(list(range(n_out, n_out + n_in)), list(range(n_in))))


def meaning(words, diagram, space) -> np.ndarray:
    """Evaluate the diagram in one left-to-right walk over the wires.

    Produces the same value as :func:`meaning_naive` (within floating-point
    reordering) without building the word product.  A stack holds the
    tensors built so far, in wire order, with one axis per open wire.  The
    cups of a valid diagram are fully nested, so at a cup's right end every
    wire under it is closed and its left end is the last open axis: an
    earlier axis of the current word's tensor (a trace) or else the last
    axis of the stack top (a tensordot).  A tensor with no open axis left
    multiplies into a scalar.

    >>> from gramflow import SpaceAssignment, parse_type, reduce
    >>> space = SpaceAssignment({"n": 2, "s": 2})
    >>> alice = WordMeaning("alice", parse_type("n"), np.array([1.0, 0.0]))
    >>> bob = WordMeaning("bob", parse_type("n"), np.array([0.0, 1.0]))
    >>> hates = WordMeaning("hates", parse_type("n^r s n^l"),
    ...                     np.arange(8.0).reshape(2, 2, 2))
    >>> diagram = reduce(alice.type + hates.type + bob.type, parse_type("s"))
    >>> print(diagram)
    links (0,1) (3,4); through 2
    >>> vec = meaning([alice, hates, bob], diagram, space)
    >>> np.array_equal(vec, hates.tensor[0, :, 1])
    True
    """
    words = list(words)
    _checked_sequence(words, diagram, space)
    rights = {j for _, j in diagram.links}
    stack, scalar, start = [], 1.0, 0
    for w in words:
        # open_axes counts the axes of cur that come before wire p's axis
        cur, open_axes = np.asarray(w.tensor, dtype=float), 0
        for p in range(start, start + len(w.type)):
            if p not in rights:
                open_axes += 1
            elif open_axes:
                cur = np.trace(cur, axis1=open_axes - 1, axis2=open_axes)
                open_axes -= 1
            else:
                top = stack.pop()
                open_axes = top.ndim - 1
                cur = np.tensordot(top, cur, axes=([open_axes], [0]))
        start += len(w.type)
        if np.ndim(cur):
            stack.append(cur)
        else:
            scalar *= float(cur)
    return kron_all(stack) * scalar


def snake_check(d: int) -> np.ndarray:
    """Compose (cap x Id) after (Id x cup) by explicit index summation.

    The composite is a d-by-d matrix; it equals the identity exactly, which
    is the defining yanking identity of the delta cup and cap.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    cap = state = cup(d)
    out = np.zeros((d, d))
    for b in range(d):
        for a in range(d):
            acc = 0.0
            for i in range(d):
                acc += cap[a, i] * state[i, b]
            out[b, a] = acc
    return out


def choi_embed(f) -> np.ndarray:
    """Embed a linear map as the bipartite state obtained by feeding it a cup.

    ``f`` is a matrix indexed [input, output]; the returned state has
    entries state[i, k] = f[i, k].  Used as the tensor of an intransitive
    verb, the state makes the sentence meaning of "subject verb" equal to
    the map applied to the subject vector: the subject's cup picks out
    ``sum_i v[i] * f[i, :]``.
    """
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {list(arr.shape)}")
    return arr.copy()


def is_separable(tensor, split_after: int, tol: float = 1e-9) -> bool:
    """True when the tensor factors across the given axis bipartition.

    Reshapes into a matrix with the first ``split_after`` axes as rows and
    tests for rank <= 1: the second singular value must be at most ``tol``
    times the largest.  The zero tensor counts as separable.
    """
    arr = np.asarray(tensor, dtype=float)
    if not 1 <= split_after < arr.ndim:
        raise ValueError(f"split_after must be in [1, {arr.ndim - 1}], got {split_after}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rows = int(np.prod(arr.shape[:split_after]))
    sing = np.linalg.svd(arr.reshape(rows, -1), compute_uv=False)
    if len(sing) < 2:
        return True
    return sing[1] <= tol * sing[0]


def cosine(u, v) -> float:
    """Cosine of the angle between two vectors of equal shape.

    A zero vector, or one whose norm is not finite, raises
    :class:`DegenerateVectorError`.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    if not (math.isfinite(nu) and math.isfinite(nv)):
        raise DegenerateVectorError("cosine of a vector with a non-finite norm is undefined")
    return float(np.dot(u, v) / (nu * nv))
