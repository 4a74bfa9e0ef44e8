"""Evaluation of reduction diagrams as linear maps on word tensors.

A grammatical reduction is read as a linear map: every cup becomes the
functional that sums matched coordinates of the two wires it joins
(sum_i <ii|) and every surviving wire becomes an identity.  Applying that
map to the tensor product of the word tensors, taken in sentence order,
yields the sentence tensor.

Two evaluators are provided.  :func:`meaning_naive` follows the definition
literally: it materializes the full word product and the full linear map and
is the reference oracle.  :func:`meaning` computes the same value by a
:class:`ContractionPlan`: a cup inside one word is a trace, words joined by
cups merge pairwise, one tensordot over every cup the two share, and the
pieces left unconnected join by outer products.  The merge order is the
cheaper of left to right (linear pregroup processing, after Preller) and
smallest result first.  A plan depends only on the word types, the diagram
and the dimensions, so :func:`contraction_plan` checks and builds each one
once and keeps it in a bounded cache.  A plan whose largest intermediate
would exceed both ``DEFAULT_SIZE_CAP`` and the largest word tensor is refused
before anything is allocated.

Input tensors are never mutated and every function here is pure: plans are
immutable values, and evaluation keeps its partial tensors in local
variables, so independent sentences can be evaluated concurrently without
coordination.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ArgumentError, DegenerateVectorError, DiagramError, ShapeError, SizeCapError,
                     positive_int)
from .pregroup import PregroupType, ReductionDiagram, _pregroup, _tuple, validate_diagram
from .tensors import SpaceAssignment, _instance, cup, kron_all, shape_of

__all__ = [
    "WordMeaning",
    "ContractionStep",
    "ContractionPlan",
    "contraction_plan",
    "meaning",
    "meaning_naive",
    "snake_check",
    "choi_embed",
    "is_separable",
    "cosine",
]

DEFAULT_SIZE_CAP = 10_000_000
# norms whose squares are normal floats: outside, cosine rescales first
_TINY_NORM, _HUGE_NORM = 1e-150, 1e150


@dataclass(frozen=True, eq=False)
class WordMeaning:
    """A word, its grammatical type, and a tensor shaped like that type; equal only to itself."""

    word: str
    type: PregroupType
    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "type", _pregroup(self.type))


def _wiring(types, diagram, space):
    """Check the diagram against words of these types, in the order :func:`meaning` documents.

    Returns ``(shapes, dims, partner)``: each word's shape, each wire's
    dimension, and each wire's partner, the other end of its cup or -1.
    """
    _instance("diagram", diagram, ReductionDiagram)
    _instance("space", space, SpaceAssignment)
    shapes = tuple(shape_of(t, space) for t in types)
    dims = sum(shapes, ())
    if len(dims) != diagram.length:
        raise ShapeError(f"diagram was built for {diagram.length} wire positions, words supply {len(dims)}")
    try:
        partner = validate_diagram(PregroupType(tuple(s for t in types for s in t)), diagram)
    except DiagramError as exc:
        raise ShapeError(f"diagram does not fit the word sequence: {exc}") from None
    return shapes, dims, partner


def _word_tensors(words, shapes) -> list[np.ndarray]:
    """Each word's tensor as a float array; :class:`ShapeError` unless it has its shape in ``shapes``."""
    tensors = []
    for w, shape in zip(words, shapes):
        try:
            tensor = np.asarray(w.tensor, dtype=float)
        except (TypeError, ValueError):
            raise ShapeError(f"word {w.word!r}: tensor is not an array of numbers") from None
        if tensor.shape != shape:
            raise ShapeError(
                f"word {w.word!r}: tensor shape {list(tensor.shape)} does not match "
                f"type {str(w.type)!r} with shape {list(shape)}"
            )
        tensors.append(tensor)
    return tensors


def meaning_naive(words, diagram, space, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Reference evaluator: build everything, then apply the map.

    Step 1 materializes the tensor product of the word tensors in sentence
    order.  Step 2 materializes the linear map as an array with one output
    axis per surviving wire and one input axis per position, the product of
    a delta factor per cup and a delta factor routing each surviving wire to
    its output.  Step 3 contracts the map with the word product.

    Checks the space, the diagram, the size cap and then the tensors, as
    :func:`meaning` does.  Intended as a desk-scale oracle: refuses, before
    allocating more than the words, a map of more than ``size_cap`` entries.
    """
    words = list(words)
    shapes, dims, _ = _wiring([w.type for w in words], diagram, space)
    out_dims = tuple(dims[p] for p in diagram.through)
    # an axis per wire and one per surviving wire: no array built here is larger
    entries = math.prod(out_dims) * math.prod(dims)
    if entries > size_cap:
        raise SizeCapError(f"linear map holds {entries} entries, above the cap of {size_cap}")
    big = kron_all(_word_tensors(words, shapes))

    # a delta factor per pair of map axes: each cup's two inputs, then each
    # surviving wire's output and input
    n_out = len(out_dims)
    axes = out_dims + dims
    pairs = [(n_out + i, n_out + j) for i, j in diagram.links]
    pairs += [(o, n_out + p) for o, p in enumerate(diagram.through)]
    fmap = np.ones(axes)
    for a, b in pairs:
        shape = [1] * len(axes)
        shape[a] = shape[b] = axes[a]
        fmap = fmap * cup(axes[a]).reshape(shape)
    return np.tensordot(fmap, big, axes=(list(range(n_out, len(axes))), list(range(len(dims)))))


class ContractionStep(NamedTuple):
    """One numpy call of a plan; its result replaces operand slot ``a``.

    ``op`` is ``"trace"``, ``np.trace`` of slot ``a`` over the axis pair
    ``axes``, or ``"dot"``, ``np.tensordot`` of slots ``a`` and ``b`` over
    the pair of axis lists ``axes`` (both empty for an outer product).
    ``shape`` and ``entries`` describe the result; ``flops`` counts its
    multiply-adds.
    """

    op: str
    a: int
    b: int
    axes: tuple
    shape: tuple[int, ...]
    entries: int
    flops: int


class ContractionPlan(NamedTuple):
    """How :func:`meaning` evaluates one (word types, diagram, dimensions).

    Slot k starts as word k's tensor, which must have shape ``shapes[k]``.
    The steps run in order and leave the sentence tensor in slot ``result``
    (-1 when there are no words); ``perm`` puts its axes in through-wire
    order (``None`` when they already are).
    """

    shapes: tuple[tuple[int, ...], ...]
    steps: tuple[ContractionStep, ...]
    result: int
    perm: Optional[tuple[int, ...]]

    @property
    def peak(self) -> int:
        """Entries of the largest intermediate."""
        return max((s.entries for s in self.steps), default=0)

    @property
    def flops(self) -> int:
        return sum(s.flops for s in self.steps)


class _Network:
    """The open wires of each slot while one merge order is written down."""

    def __init__(self, spans, partner, dims):
        self.partner, self.dims = partner, dims
        self.axes = [list(range(lo, hi)) for lo, hi in spans]
        self.where = {p: k for k, (lo, hi) in enumerate(spans) for p in range(lo, hi)}
        self.steps = []

    def size(self, slot):
        return math.prod(self.dims[p] for p in self.axes[slot])

    def _record(self, op, a, b, axes, kept, summed):
        self.axes[a] = kept
        shape = tuple(self.dims[p] for p in kept)
        entries = math.prod(shape)
        self.steps.append(ContractionStep(op, a, b, axes, shape, entries, entries * summed))

    def close(self, p):
        """Close the cup whose right end is ``p``: a trace when one slot holds both
        ends, else a merge of the slot holding its left end with the one holding ``p``."""
        q = self.partner[p]
        a, b = self.where[q], self.where[p]
        if a != b:
            self.merge(a, b)
            return
        ax = self.axes[a]
        del self.where[p], self.where[q]
        kept = [r for r in ax if r != p and r != q]
        self._record("trace", a, -1, (ax.index(q), ax.index(p)), kept, self.dims[p])

    def merge(self, a, b):
        """Close every cup between slots ``a`` and ``b``; the result replaces ``a``."""
        ax_a, ax_b = self.axes[a], self.axes[b]
        at_b = {p: k for k, p in enumerate(ax_b)}
        ia, ib, gone, summed = [], [], set(), 1
        for k, p in enumerate(ax_a):
            q = self.partner[p]
            if q in at_b:
                ia.append(k)
                ib.append(at_b[q])
                gone.update((p, q))
                summed *= self.dims[p]
        for p in gone:
            del self.where[p]
        kept_b = [p for p in ax_b if p not in gone]
        for p in kept_b:
            self.where[p] = a
        self.axes[b] = None
        self._record("dot", a, b, (tuple(ia), tuple(ib)), [p for p in ax_a if p not in gone] + kept_b, summed)


def _left_to_right(net):
    # each cup closed when its right end is read (Preller's linear processing),
    # unless a merge for an earlier cup has closed it already
    for p, q in enumerate(net.partner):
        if 0 <= q < p and p in net.where:
            net.close(p)


def _smallest_first(net):
    # every cup inside a word first, then always the connected pair with the
    # smallest result, ties leftmost; stale heap entries fail the version check
    for p, q in enumerate(net.partner):
        if 0 <= q < p and net.where[q] == net.where[p]:
            net.close(p)
    version = [0] * len(net.axes)
    heap = []

    def push(s):
        shared = {}
        for p in net.axes[s]:
            q = net.partner[p]
            if q >= 0:
                t = net.where[q]
                shared[t] = shared.get(t, 1) * net.dims[p]
        size = net.size(s)
        for t, d in shared.items():
            lo, hi = min(s, t), max(s, t)
            heapq.heappush(heap, (size * net.size(t) // (d * d), lo, hi, version[lo], version[hi]))

    for s in range(len(net.axes)):
        push(s)
    while heap:
        _, lo, hi, v_lo, v_hi = heapq.heappop(heap)
        if version[lo] == v_lo and version[hi] == v_hi:
            net.merge(lo, hi)
            version[lo] += 1
            version[hi] += 1
            push(lo)


def _fold(net, through):
    """Join the unconnected pieces by outer products, smallest first.

    Returns the result slot (-1 when there are no words) and the permutation
    putting its axes in through-wire order (``None`` when they already are).
    """
    alive = sorted((net.size(s), s) for s, ax in enumerate(net.axes) if ax is not None)
    if not alive:
        return -1, None
    result = alive[0][1]
    for _, s in alive[1:]:
        net.merge(result, s)
    at = {p: k for k, p in enumerate(net.axes[result])}
    perm = tuple(at[p] for p in through)
    return result, (None if perm == tuple(range(len(perm))) else perm)


def contraction_plan(types, diagram, space) -> ContractionPlan:
    """Check and plan the evaluation of a diagram over words of these types.

    ``types`` is an iterable with one :class:`PregroupType` per word, taken as
    a tuple.  Raises what :func:`meaning` raises for anything but the tensors
    themselves: ``ArgumentError`` for a diagram that is not a
    :class:`ReductionDiagram` (such as the ``None`` of a failed ``reduce``),
    a space that is not a :class:`SpaceAssignment` or a word type that is not
    a :class:`PregroupType`, ``SpaceError`` for a base with no dimension,
    ``ShapeError`` for a diagram that does not fit the words, and
    ``SizeCapError`` when some step would hold more entries than both
    ``DEFAULT_SIZE_CAP`` and the largest word tensor.  Results are cached,
    keyed by all three arguments; ``contraction_plan.cache_info()`` and
    ``cache_clear()`` report and empty that cache.
    """
    # before the cache hashes them
    _instance("diagram", diagram, ReductionDiagram)
    _instance("space", space, SpaceAssignment)
    if types.__class__ is not tuple:
        types = _tuple("word types", types)
    for t in types:
        if t.__class__ is not PregroupType:
            _instance("word type", t, PregroupType)
    return _plan(types, diagram, space)


@lru_cache(maxsize=256)
def _plan(types, diagram, space) -> ContractionPlan:
    shapes, dims, partner = _wiring(types, diagram, space)
    spans, lo = [], 0
    for t in types:
        spans.append((lo, lo + len(t)))
        lo += len(t)
    plans = []
    for order in (_left_to_right, _smallest_first):
        net = _Network(spans, partner, dims)
        order(net)
        result, perm = _fold(net, diagram.through)
        plans.append(ContractionPlan(shapes, tuple(net.steps), result, perm))
    walk, smallest = plans
    # smallest-first replaces left to right only where it is no worse in either
    plan = smallest if smallest.peak <= walk.peak and smallest.flops <= walk.flops else walk
    largest = max((math.prod(s) for s in shapes), default=1)
    if plan.peak > max(DEFAULT_SIZE_CAP, largest):
        raise SizeCapError(
            f"contraction would build an intermediate of {plan.peak} entries, above both "
            f"the cap of {DEFAULT_SIZE_CAP} and the largest word tensor ({largest} entries)"
        )
    return plan


contraction_plan.cache_info, contraction_plan.cache_clear = _plan.cache_info, _plan.cache_clear


def meaning(words, diagram, space) -> np.ndarray:
    """Evaluate the diagram by its cached :class:`ContractionPlan`.

    Produces the same value as :func:`meaning_naive` (within floating-point
    reordering) without building the word product.  The plan for these word
    types, diagram and dimensions is built and checked once; later calls only
    compare each tensor's shape with it and run its steps, each one
    ``np.trace`` or ``np.tensordot``.  No intermediate is larger than the
    left-to-right order would build, and a plan needing one above both
    ``DEFAULT_SIZE_CAP`` entries and the largest word tensor raises
    ``SizeCapError`` before any allocation.

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
    plan = contraction_plan(tuple(w.type for w in words), diagram, space)
    slots = _word_tensors(words, plan.shapes)
    for step in plan.steps:
        if step.op == "dot":
            slots[step.a] = np.tensordot(slots[step.a], slots[step.b], axes=step.axes)
            slots[step.b] = None
        else:
            slots[step.a] = np.trace(slots[step.a], axis1=step.axes[0], axis2=step.axes[1])
    if plan.result < 0:
        return np.ones(())
    out = slots[plan.result]
    if plan.perm:
        out = out.transpose(plan.perm)
    # with no step run, out is still the caller's tensor
    return out if plan.steps else out.copy()


def snake_check(d: int) -> np.ndarray:
    """Compose (cap x Id) after (Id x cup) by explicit index summation.

    The composite is a d-by-d matrix; it equals the identity exactly, which
    is the defining yanking identity of the delta cup and cap.
    """
    d = positive_int("dimension", d)
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
    (a finite real number above 0) times the largest.  The zero tensor
    counts as separable.
    """
    arr = np.asarray(tensor, dtype=float)
    if positive_int("split_after", split_after) >= arr.ndim:
        raise ArgumentError(f"split_after must be in [1, {arr.ndim - 1}], got {split_after}")
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < math.inf:
        raise ArgumentError(f"tol must be a positive finite number, got {tol!r}")
    # sizes given, since numpy cannot infer an axis of an empty array
    matrix = arr.reshape(math.prod(arr.shape[:split_after]), math.prod(arr.shape[split_after:]))
    sing = np.linalg.svd(matrix, compute_uv=False)
    if len(sing) < 2:
        return True
    return sing[1] <= tol * sing[0]


def cosine(u, v) -> float:
    """Cosine of the angle between two vectors of equal shape.

    A zero vector, or one with an infinite or ``nan`` entry, raises
    :class:`DegenerateVectorError`.  A norm whose square would overflow or
    underflow is taken after scaling the vectors by their largest magnitudes,
    so huge and tiny finite vectors get the same cosine as moderate ones.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    # the bits of np.linalg.norm (the root of dot), but vdot gives no overflow
    # warning: a square sum that overflows is rescaled below
    nu, nv = math.sqrt(np.vdot(u, u)), math.sqrt(np.vdot(v, v))
    if not (_TINY_NORM < nu < _HUGE_NORM and _TINY_NORM < nv < _HUGE_NORM):
        top_u, top_v = np.max(np.abs(u), initial=0.0), np.max(np.abs(v), initial=0.0)
        if top_u == 0.0 or top_v == 0.0:
            raise DegenerateVectorError("cosine of a zero vector is undefined")
        if not (math.isfinite(top_u) and math.isfinite(top_v)):
            raise DegenerateVectorError("cosine of a vector with a non-finite norm is undefined")
        u, v = u / top_u, v / top_v
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return float(np.dot(u, v) / (nu * nv))
