"""Evaluation of reduction diagrams as linear maps on word tensors.

A grammatical reduction is read as a linear map: every cup becomes the
functional that sums matched coordinates of the two wires it joins
(sum_i <ii|) and every surviving wire becomes an identity.  Applying that
map to the tensor product of the word tensors, taken in sentence order,
yields the sentence tensor.

Two evaluators are provided.  :func:`meaning_naive` follows the definition
literally: it materializes the full word product and the full linear map and
is the reference oracle.  :func:`meaning` computes the same value without
ever materializing the product, by contracting cups innermost first, which
the nesting of any valid diagram makes possible.

Input tensors are never mutated and every function here is pure, so
independent sentences can be evaluated concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, ShapeError, SizeCapError
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
    except ValueError as exc:
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
    """Evaluate the diagram by pairwise contraction, innermost cups first.

    Produces the same value as :func:`meaning_naive` (within floating-point
    reordering) while keeping intermediates near word-tensor size: because
    the cups of a valid diagram are fully nested, processing them by
    increasing span guarantees that when a cup is reached everything
    strictly under it is already contracted, so the cup joins two live axes
    of at most two intermediate tensors.
    """
    words = list(words)
    _, dims = _checked_sequence(words, diagram, space)

    # segments: (tensor, ascending list of still-open positions)
    segments = []
    pos = 0
    for w in words:
        k = len(w.type)
        segments.append((np.asarray(w.tensor, dtype=float), list(range(pos, pos + k))))
        pos += k
    scalar = 1.0

    def locate(p):
        for si, (_, open_pos) in enumerate(segments):
            if p in open_pos:
                return si
        raise AssertionError(f"position {p} already consumed")

    for i, j in sorted(diagram.links, key=lambda link: (link[1] - link[0], link[0])):
        si, sj = locate(i), locate(j)
        ti, pi = segments[si]
        ai = pi.index(i)
        if si == sj:
            aj = pi.index(j)
            merged = np.trace(ti, axis1=ai, axis2=aj)
            open_pos = [p for p in pi if p not in (i, j)]
            segments[si] = (merged, open_pos)
        else:
            tj, pj = segments[sj]
            aj = pj.index(j)
            merged = np.tensordot(ti, tj, axes=([ai], [aj]))
            open_pos = [p for p in pi if p != i] + [p for p in pj if p != j]
            segments[si] = (merged, open_pos)
            del segments[sj]
        if not segments[si][1]:
            scalar *= float(segments[si][0])
            del segments[si]

    segments.sort(key=lambda seg: seg[1][0])
    result = kron_all([t for t, _ in segments]) * scalar
    return result


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
    """Cosine of the angle between two vectors of equal shape."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))
