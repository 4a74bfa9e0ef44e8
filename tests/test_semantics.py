import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gramflow import (
    ArgumentError,
    DegenerateVectorError,
    PregroupType,
    ReductionDiagram,
    ShapeError,
    SimpleType,
    SizeCapError,
    SpaceAssignment,
    WordMeaning,
    choi_embed,
    cosine,
    cup,
    ascii_diagram,
    is_separable,
    kron,
    make_logical_does,
    make_logical_not,
    meaning,
    meaning_naive,
    parse_type,
    reduce,
    shape_of,
    snake_check,
    validate_diagram,
)
from gramflow import semantics
from gramflow.semantics import DEFAULT_SIZE_CAP, contraction_plan
from gramflow.pregroup import left_adjoint, right_adjoint

from oracles import bracket_diagram, meaning_by_loops

SENT = parse_type("s")
SA22 = SpaceAssignment({"n": 2, "s": 2})


def make_words(rng, seq, boundaries, space):
    """Cut a type sequence into words at the given boundaries, random tensors."""
    words = []
    cuts = [0] + sorted(boundaries) + [len(seq)]
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        wtype = PregroupType(tuple(seq)[lo:hi])
        tensor = rng.normal(size=shape_of(wtype, space))
        words.append(WordMeaning(f"w{k}", wtype, tensor))
    return words


# ------------------------------------------------------------ meaning_naive

def test_intransitive_contraction_formula():
    alice = WordMeaning("alice", parse_type("n"), np.array([1.0, 2.0]))
    rng = np.random.default_rng(1)
    dmat = rng.normal(size=(2, 2))
    dreams = WordMeaning("dreams", parse_type("n^r s"), dmat)
    diagram = reduce(alice.type + dreams.type, SENT)
    assert diagram.links == ((0, 1),) and diagram.through == (2,)
    got = meaning_naive([alice, dreams], diagram, SA22)
    expected = np.array([sum(alice.tensor[i] * dmat[i, k] for i in range(2)) for k in range(2)])
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def test_transitive_basis_nouns_pick_a_verb_slice():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(2, 2, 2))
    alice = WordMeaning("alice", parse_type("n"), np.array([1.0, 0.0]))
    bob = WordMeaning("bob", parse_type("n"), np.array([0.0, 1.0]))
    verb = WordMeaning("hates", parse_type("n^r s n^l"), t)
    diagram = reduce(alice.type + verb.type + bob.type, SENT)
    assert diagram.links == ((0, 1), (3, 4))
    got = meaning_naive([alice, verb, bob], diagram, SA22)
    assert np.allclose(got, t[0, :, 1], rtol=0, atol=1e-15)
    # full summation oracle agrees
    looped = meaning_by_loops(
        [alice.tensor, t, bob.tensor], [1, 3, 1], diagram.links, [2] * 5
    )
    assert np.allclose(got, looped, rtol=0, atol=1e-12)


def test_no_links_is_the_identity_wire():
    word = WordMeaning("it", SENT, np.array([0.3, -0.7]))
    diagram = reduce(SENT, SENT)
    assert np.array_equal(meaning_naive([word], diagram, SA22), word.tensor)
    assert np.array_equal(meaning([word], diagram, SA22), word.tensor)


def test_naive_matches_explicit_loops_on_negated_sentence():
    rng = np.random.default_rng(3)
    seq = parse_type("n n^r s s^l n n^r s s^l n n^r s n^l n")
    diagram = reduce(seq, SENT)
    words = make_words(rng, seq, [1, 5, 9, 12], SA22)
    got = meaning_naive(words, diagram, SA22)
    looped = meaning_by_loops(
        [w.tensor for w in words], [len(w.type) for w in words],
        diagram.links, [2] * 13,
    )
    assert np.allclose(got, looped, rtol=1e-12, atol=1e-12)


def test_size_cap_is_enforced():
    word = WordMeaning("v", parse_type("n^r s n^l"), np.zeros((2, 2, 2)))
    diagram = reduce(parse_type("n^r s n^l"), parse_type("n^r s n^l"))
    with pytest.raises(SizeCapError):
        meaning_naive([word], diagram, SA22, size_cap=7)


def test_word_meanings_are_equal_only_to_themselves():
    a = WordMeaning("alice", parse_type("n"), np.zeros(2))
    b = WordMeaning("alice", parse_type("n"), np.zeros(2))
    assert a == a and a != b and len({a, b, a}) == 2
    assert WordMeaning("w", [SimpleType("n")], np.zeros(2)).type == parse_type("n")


NOUN_SEQ = parse_type("n")
# bad inputs: (words, diagram, the ShapeError message both evaluators give)
BAD_INPUTS = {
    "tensor shape": ([WordMeaning("alice", NOUN_SEQ, np.zeros(3))], reduce(NOUN_SEQ, NOUN_SEQ),
                     "word 'alice': tensor shape [3] does not match type 'n' with shape [2]"),
    "diagram length": ([WordMeaning("alice", NOUN_SEQ, np.zeros(2))], reduce(parse_type("n n^r s"), SENT),
                       "diagram was built for 3 wire positions, words supply 1"),
    "non-numeric tensor": ([WordMeaning("alice", NOUN_SEQ, "xy")], reduce(NOUN_SEQ, NOUN_SEQ),
                           "word 'alice': tensor is not an array of numbers"),
    "ragged tensor": ([WordMeaning("alice", NOUN_SEQ, [[1.0], []])], reduce(NOUN_SEQ, NOUN_SEQ),
                      "word 'alice': tensor is not an array of numbers"),
    # two faults: the diagram is checked first
    "diagram length and tensor shape": ([WordMeaning("alice", NOUN_SEQ, np.zeros(3))],
                                        reduce(parse_type("n n^r s"), SENT),
                                        "diagram was built for 3 wire positions, words supply 1"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("evaluate", [meaning, meaning_naive])
def test_both_evaluators_raise_the_same_error(case, evaluate):
    words, diagram, message = BAD_INPUTS[case]
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        evaluate(words, diagram, SA22)


def test_diagram_length_mismatch_is_checked():
    word = WordMeaning("alice", parse_type("n"), np.zeros((2,)))
    diagram = reduce(parse_type("n n^r s"), SENT)
    with pytest.raises(ShapeError, match="positions"):
        meaning([word], diagram, SA22)
    # the right length, but the cup joins two n wires
    with pytest.raises(ShapeError, match=r"does not fit the word sequence: link \(0,1\) joins n and n"):
        meaning([word, word], reduce(parse_type("n n^r"), PregroupType(())), SA22)


# ------------------------------------------------- efficient == naive oracle

def random_sentence_case(rng):
    alphabet = [SimpleType(b, z) for b in ("n", "s") for z in (-1, 0, 1)]
    target = PregroupType(tuple(rng.choice(alphabet) for _ in range(rng.integers(0, 3))))
    simples = list(target)
    for _ in range(int(rng.integers(0, 5))):
        t = rng.choice(alphabet)
        pair = [t, right_adjoint(t)] if rng.random() < 0.5 else [left_adjoint(t), t]
        at = int(rng.integers(0, len(simples) + 1))
        simples[at:at] = pair
    seq = PregroupType(tuple(simples))
    dims = {"n": int(rng.integers(1, 5)), "s": int(rng.integers(1, 5))}
    space = SpaceAssignment(dims)
    if not seq:
        return None
    n_words = int(rng.integers(1, min(5, len(seq)) + 1))
    boundaries = sorted(rng.choice(range(1, len(seq)), size=n_words - 1, replace=False).tolist()) if n_words > 1 else []
    words = make_words(rng, seq, boundaries, space)
    total = 1
    for t in seq:
        total *= space.dim(t.base)
    if total > 100_000:
        return None
    return words, target, seq, space


def test_meaning_matches_naive_randomized():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        case = random_sentence_case(rng)
        if case is None:
            continue
        words, target, seq, space = case
        diagrams = [reduce(seq, target)]
        if diagrams[0] is None:
            continue
        fast = meaning(words, diagrams[0], space)
        slow = meaning_naive(words, diagrams[0], space)
        assert fast.shape == slow.shape == shape_of(target, space)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert np.max(np.abs(fast - slow)) <= 1e-9 * scale
        checked += 1


def test_meaning_is_multilinear_in_each_word():
    rng = np.random.default_rng(8)
    seq = parse_type("n n^r s n^l n")
    diagram = reduce(seq, SENT)
    words = make_words(rng, seq, [1, 4], SA22)
    base = meaning(words, diagram, SA22)
    for k in range(len(words)):
        scaled = list(words)
        scaled[k] = WordMeaning(words[k].word, words[k].type, 2.5 * words[k].tensor)
        assert np.allclose(meaning(scaled, diagram, SA22), 2.5 * base, rtol=1e-12)

        other = rng.normal(size=words[k].tensor.shape)
        bumped = list(words)
        bumped[k] = WordMeaning(words[k].word, words[k].type, words[k].tensor + other)
        alone = list(words)
        alone[k] = WordMeaning(words[k].word, words[k].type, other)
        assert np.allclose(
            meaning(bumped, diagram, SA22),
            base + meaning(alone, diagram, SA22),
            rtol=1e-12, atol=1e-12,
        )


UNIT = PregroupType(())


@pytest.mark.parametrize("at", [0, 2, 3, None], ids=["first", "middle", "last", "alone"])
def test_unit_type_words_scale_the_meaning(at):
    unit = WordMeaning("very", UNIT, np.array(2.5))
    if at is None:
        words, diagram, plain = [unit], reduce(UNIT, UNIT), np.array(1.0)
    else:
        seq = parse_type("n n^r s n^l n")
        words = make_words(np.random.default_rng(31), seq, [1, 4], SA22)
        diagram = reduce(seq, SENT)
        plain = meaning(words, diagram, SA22)
        words.insert(at, unit)
    got = meaning(words, diagram, SA22)
    assert got.shape == plain.shape
    assert np.allclose(got, meaning_naive(words, diagram, SA22), rtol=1e-12, atol=0)
    assert np.allclose(got, 2.5 * plain, rtol=1e-12, atol=0)


@st.composite
def sentence_cases(draw):
    """Words cut at random from a random fully nested diagram, unit-type words mixed in."""
    n, links = bracket_diagram(draw(st.text(alphabet="().", max_size=7)))
    alphabet = [SimpleType(b, z) for b in ("n", "s") for z in (-1, 0, 1)]
    types = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    for i, j in links:
        types[j] = right_adjoint(types[i])
    cuts = sorted(draw(st.sets(st.sampled_from(range(1, n))))) if n > 1 else []
    spans = list(zip([0] + cuts, cuts + [n])) if n else []
    for _ in range(draw(st.integers(0 if spans else 1, 2))):
        spans.insert(draw(st.integers(0, len(spans))), None)
    # meaning_naive's map has an axis per wire and per surviving wire: keep it small
    dim = st.integers(1, 3 if n <= 6 else 2)
    space = SpaceAssignment({"n": draw(dim), "s": draw(dim)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = []
    for k, span in enumerate(spans):
        wtype = UNIT if span is None else PregroupType(tuple(types[span[0]:span[1]]))
        words.append(WordMeaning(f"w{k}", wtype, rng.normal(size=shape_of(wtype, space))))
    return words, ReductionDiagram(n, links), space


def left_to_right_cost(words, diagram):
    """(largest intermediate, FLOPs) of the left-to-right stack walk, from shapes.

    Before contraction plans, ``meaning`` walked the wires left to right with
    a stack of partial tensors.  At a cup's right end it traced the current
    tensor when the left end was one of its axes, else took a one-axis
    tensordot with the stack top.  It then folded the stack by outer
    products and multiplied by the product of the scalar words.  No plan may
    cost more than that walk.
    """
    rights = {j: i for i, j in diagram.links}
    stack, sizes, flops, start = [], [], 0, 0

    def step(shape, summed):
        nonlocal flops
        sizes.append(math.prod(shape))
        flops += math.prod(shape) * summed

    for w in words:
        cur, open_axes = list(np.shape(w.tensor)), 0
        for p in range(start, start + len(w.type)):
            if p not in rights:
                open_axes += 1
            elif open_axes:
                d = cur[open_axes]
                del cur[open_axes - 1:open_axes + 1]
                open_axes -= 1
                step(cur, d)
            else:
                top = stack.pop()
                open_axes = len(top) - 1
                cur = top[:-1] + cur[1:]
                step(cur, top[-1])
        start += len(w.type)
        if cur:
            stack.append(cur)
        else:
            flops += 1
    out = []
    for k, shape in enumerate(stack):
        out = out + shape
        if k:
            step(out, 1)
    step(out, 1)
    return max(sizes), flops


# tracing "s s^r" before the cup to "n" costs more than after it when d_s = 1
TRACE_LATE = (
    [WordMeaning("a", parse_type("n"), np.arange(1.0, 4.0)),
     WordMeaning("w", parse_type("n^r s s^r"), np.arange(3.0).reshape(3, 1, 1))],
    ReductionDiagram(4, ((0, 1), (2, 3))),
    SpaceAssignment({"n": 3, "s": 1}),
)


@settings(max_examples=400, deadline=None)
@given(sentence_cases())
@example(TRACE_LATE)
# no words and no wires: the empty contraction, the scalar 1.0
@example(([], reduce(PregroupType(()), PregroupType(())), SpaceAssignment({"n": 2})))
def test_meaning_matches_naive_and_loops(case):
    words, diagram, space = case
    plan = contraction_plan(tuple(w.type for w in words), diagram, space)
    peak, flops = left_to_right_cost(words, diagram)
    assert plan.peak <= peak and plan.flops <= flops
    fast = meaning(words, diagram, space)
    slow = meaning_naive(words, diagram, space)
    assert fast.shape == slow.shape
    scale = max(1.0, float(np.max(np.abs(slow), initial=0.0)))
    assert np.max(np.abs(fast - slow), initial=0.0) <= 1e-9 * scale
    dims = [space.dim(t.base) for w in words for t in w.type]
    if np.prod(dims) <= 256:
        looped = meaning_by_loops([w.tensor for w in words], [len(w.type) for w in words],
                                  diagram.links, dims)
        assert np.max(np.abs(fast - looped), initial=0.0) <= 1e-9 * scale


def negated_sentence(d, seed):
    """Words, diagram and space of "alice does not like bob" at n=s=d, and its value."""
    rng = np.random.default_rng(seed)
    space = SpaceAssignment({"n": d, "s": d})
    alice = WordMeaning("alice", parse_type("n"), rng.normal(size=d))
    like = WordMeaning("like", parse_type("n^r s n^l"), rng.normal(size=(d, d, d)))
    bob = WordMeaning("bob", parse_type("n"), rng.normal(size=d))
    negation = rng.normal(size=(d, d))
    words = [alice, make_logical_does(space), make_logical_not(space, negation), like, bob]
    seq = PregroupType(tuple(t for w in words for t in w.type))
    want = negation @ np.einsum("i,iaj,j->a", alice.tensor, like.tensor, bob.tensor)
    return words, reduce(seq, SENT), space, want


def test_negated_sentence_intermediates_stay_small(monkeypatch):
    """At n=s=8 no contraction step of "alice does not like bob" exceeds 8**3 entries."""
    words, diagram, space, want = negated_sentence(8, 37)
    sizes = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def tensordot(self, *args, **kwargs):
            out = np.tensordot(*args, **kwargs)
            sizes.append(np.size(out))
            return out

        def trace(self, *args, **kwargs):
            out = np.trace(*args, **kwargs)
            sizes.append(np.size(out))
            return out

    monkeypatch.setattr(semantics, "np", RecordingNumpy())
    got = meaning(words, diagram, space)
    monkeypatch.undo()
    assert sizes and max(sizes) <= 8**3
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


def test_negated_sentence_at_d64_builds_no_intermediate_above_d_squared():
    # the left-to-right order peaks at d**3; einsum_path's optimum is d**2
    d = 64
    words, diagram, space, want = negated_sentence(d, 41)
    plan = contraction_plan(tuple(w.type for w in words), diagram, space)
    assert plan.peak == d**2
    got = meaning(words, diagram, space)
    assert got.shape == (d,)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


N, ADJ, TV, IV, LOGICAL = "n", "n n^l", "n^r s n^l", "n^r s", "n^r s s^l n"


# the benchmark's sentence classes at n = s = 8: (word types, (peak, flops, steps))
@pytest.mark.parametrize("types, cost", [
    ([N, TV, N], (64, 576, 2)),
    ([N, IV], (8, 64, 1)),
    ([ADJ, N, TV, N], (64, 640, 3)),
    ([ADJ, ADJ, N, TV, ADJ, N], (64, 768, 5)),
    ([ADJ] * 3 + [N, TV] + [ADJ] * 2 + [N], (64, 896, 7)),
    ([ADJ] * 3 + [N, IV], (8, 256, 4)),
    ([N, LOGICAL, LOGICAL, TV, N], (64, 8768, 4)),
    ([N, LOGICAL, LOGICAL, IV], (64, 8256, 3)),
], ids=["svo", "intransitive", "adjective", "adjectives 2+1", "adjectives 3+2", "adjectives 3 intransitive",
        "does not", "does not intransitive"])
def test_sentence_class_plan_costs(types, cost):
    types = tuple(map(parse_type, types))
    diagram = reduce(PregroupType(tuple(t for w in types for t in w)), SENT)
    plan = contraction_plan(types, diagram, SpaceAssignment({"n": 8, "s": 8}))
    assert (plan.peak, plan.flops, len(plan.steps)) == cost


def test_plan_takes_any_iterable_of_types_as_a_tuple():
    types = tuple(map(parse_type, ["n", "n^r s n^l", "n"]))
    diagram = reduce(PregroupType(tuple(t for w in types for t in w)), SENT)
    plan = contraction_plan(types, diagram, SA22)
    hits = contraction_plan.cache_info().hits
    assert contraction_plan(list(types), diagram, SA22) is plan
    assert contraction_plan(iter(types), diagram, SA22) is plan
    assert contraction_plan.cache_info().hits == hits + 2


def test_cached_plan_still_checks_tensor_shapes():
    rng = np.random.default_rng(43)
    seq = parse_type("n n^r s n^l n")
    words = make_words(rng, seq, [1, 4], SA22)
    diagram = reduce(seq, SENT)
    first = meaning(words, diagram, SA22)
    hits = contraction_plan.cache_info().hits
    assert np.array_equal(meaning(words, diagram, SpaceAssignment({"s": 2, "n": 2})), first)
    assert contraction_plan.cache_info().hits == hits + 1
    words[2] = WordMeaning("bob", parse_type("n"), np.zeros(3))
    message = "word 'bob': tensor shape [3] does not match type 'n' with shape [2]"
    for _ in range(2):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            meaning(words, diagram, SA22)


def test_threads_sharing_the_plan_cache_get_the_same_values():
    cases = [negated_sentence(4, seed)[:3] for seed in range(3)]
    cases.append((make_words(np.random.default_rng(47), parse_type("n n^r s n^l n"), [1, 4], SA22),
                  reduce(parse_type("n n^r s n^l n"), SENT), SA22))
    want = [meaning(*case) for case in cases]
    wrong = []

    def work(k):
        for rep in range(60):
            if (rep + k) % 15 == 0:
                contraction_plan.cache_clear()
            for case, value in zip(cases, want):
                if not np.array_equal(meaning(*case), value):
                    wrong.append((k, rep))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_plan_over_the_size_cap_is_refused_before_allocating():
    d = 300
    space = SpaceAssignment({"n": d})
    nouns = [WordMeaning(f"w{k}", parse_type("n"), np.ones(d)) for k in range(3)]
    seq = parse_type("n n n")
    diagram = reduce(seq, seq)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="27000000 entries"):
            meaning(nouns, diagram, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d**3 * 8 // 1000
    # two nouns fit under the cap
    assert meaning(nouns[:2], reduce(seq[:2], seq[:2]), space).shape == (d, d)


def test_naive_map_over_the_size_cap_is_refused_before_allocating():
    # the word product holds 200**3 entries, under the cap; the map holds 200**6
    d = 200
    space = SpaceAssignment({"n": d})
    nouns = [WordMeaning(f"w{k}", parse_type("n"), np.ones(d)) for k in range(3)]
    seq = parse_type("n n n")
    diagram = reduce(seq, seq)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"linear map holds {d**6} entries"):
            meaning_naive(nouns, diagram, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d**3 * 8 // 1000
    # at d = 12 the map (12**6 entries) is what the cap counts, not the word product
    space = SpaceAssignment({"n": 12})
    nouns = [WordMeaning(f"w{k}", parse_type("n"), np.ones(12)) for k in range(3)]
    with pytest.raises(SizeCapError, match=f"{12**6} entries"):
        meaning_naive(nouns, diagram, space, size_cap=12**6 - 1)
    assert meaning_naive(nouns, diagram, space, size_cap=12**6).shape == (12, 12, 12)


def test_plan_as_large_as_a_word_is_not_refused():
    # one step holds more than the cap, but no more than the word tensor
    space = SpaceAssignment({"n": 216})
    types = (parse_type("n n n"), UNIT)
    diagram = reduce(types[0], types[0])
    plan = contraction_plan(types, diagram, space)
    assert DEFAULT_SIZE_CAP < plan.peak == 216**3


def test_two_thousand_nested_cups_take_linear_time():
    depth = 2000
    seq = PregroupType(tuple([SimpleType("n")] * depth
                             + [SimpleType("n", 1)] * depth
                             + [SimpleType("s")]))
    links = tuple((k, 2 * depth - 1 - k) for k in range(depth))
    diagram = ReductionDiagram(2 * depth + 1, links)
    v = np.array([0.6, 0.8])
    words = [WordMeaning(f"w{p}", PregroupType((t,)), v) for p, t in enumerate(seq)]

    start = time.perf_counter()
    validate_diagram(seq, diagram, SENT)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    art = ascii_diagram(seq, diagram).splitlines()
    assert time.perf_counter() - start < 1.0
    assert len(art) == depth + 1 and art[1].strip() == "\\___/" and art[-1].startswith("\\")
    start = time.perf_counter()
    got = meaning(words, diagram, SA22)
    assert time.perf_counter() - start < 1.0
    assert np.allclose(got, v * float(v @ v) ** depth, rtol=1e-9, atol=0)


# ----------------------------------------------------------------- snake

def test_snake_small_dimensions():
    assert np.array_equal(snake_check(1), np.eye(1))
    assert np.array_equal(snake_check(2), np.eye(2))
    assert float(np.max(np.abs(snake_check(8) - np.eye(8)))) < 1e-12


def test_snake_exact_identity_up_to_eight():
    for d in range(1, 9):
        assert np.array_equal(snake_check(d), np.eye(d))


# ------------------------------------------------------------------ choi

def test_choi_of_identity_is_the_cup():
    assert np.array_equal(choi_embed(np.eye(2)), cup(2))


def test_choi_swap_map_on_basis_subject():
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    subject = WordMeaning("x", parse_type("n"), np.array([1.0, 0.0]))
    verb = WordMeaning("v", parse_type("n^r s"), choi_embed(f))
    diagram = reduce(subject.type + verb.type, SENT)
    got = meaning_naive([subject, verb], diagram, SA22)
    assert np.allclose(got, [0.0, 1.0], rtol=0, atol=1e-15)


def test_choi_zero_map_gives_zero_meanings():
    verb = WordMeaning("v", parse_type("n^r s"), choi_embed(np.zeros((2, 2))))
    assert not np.any(verb.tensor)
    subject = WordMeaning("x", parse_type("n"), np.array([1.0, 2.0]))
    diagram = reduce(subject.type + verb.type, SENT)
    assert not np.any(meaning([subject, verb], diagram, SA22))


def test_choi_retraction_random_maps():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d_in, d_out = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        space = SpaceAssignment({"n": d_in, "s": d_out})
        f = rng.normal(size=(d_in, d_out))
        v = rng.normal(size=d_in)
        subject = WordMeaning("x", parse_type("n"), v)
        verb = WordMeaning("v", parse_type("n^r s"), choi_embed(f))
        diagram = reduce(subject.type + verb.type, SENT)
        got = meaning([subject, verb], diagram, space)
        assert np.max(np.abs(got - f.T @ v)) < 1e-12


def test_choi_rejects_non_matrices():
    with pytest.raises(ShapeError):
        choi_embed(np.zeros((2, 2, 2)))


# ------------------------------------------------------------- separability

def test_cup_is_entangled_products_are_not():
    assert not is_separable(cup(2), 1)
    assert is_separable(kron([1.0, 2.0], [3.0, 4.0]), 1)


def test_choi_of_rank_one_map_is_separable():
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 4.0, 5.0]])
    assert is_separable(choi_embed(u @ v), 1)
    rng = np.random.default_rng(17)
    assert not is_separable(choi_embed(rng.normal(size=(3, 3))), 1)


def test_zero_tensor_counts_as_separable():
    assert is_separable(np.zeros((2, 3)), 1)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 3), (3, 1)])
def test_empty_and_single_row_tensors_are_separable(shape):
    assert is_separable(np.arange(math.prod(shape), dtype=float).reshape(shape) + 1, 1)


def test_is_separable_parameter_validation():
    with pytest.raises(ValueError):
        is_separable(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        is_separable(np.zeros((2, 2)), 2)
    rank_one = np.outer([1.0, 2.0], [3.0, 4.0])
    for tol in (0.0, -1e-9, None, "1e-9", True, math.nan, np.float64("nan"), math.inf,
                np.array([1e-9])):
        with pytest.raises(ArgumentError, match="^tol must be a positive finite number, got "):
            is_separable(rank_one, 1, tol=tol)
    assert is_separable(rank_one, 1, tol=np.float32(1e-6)) and is_separable(rank_one, 1, tol=1)


# ------------------------------------------------------------------ cosine

def test_cosine_examples():
    rng = np.random.default_rng(19)
    v = rng.normal(size=5)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(2 ** -0.5, abs=1e-12)


def test_cosine_rejects_zero_vectors_and_shape_mismatch():
    with pytest.raises(DegenerateVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ShapeError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cosine_of_huge_and_tiny_vectors(scale):
    v = [scale, scale]
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine(v, [1.0, 0.0]) == pytest.approx(2 ** -0.5, abs=1e-12)
    assert cosine([3 * scale, 4 * scale], [4.0, -3.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateVectorError, match="zero vector"):
        cosine(v, [0.0, 0.0])
    with pytest.raises(DegenerateVectorError, match="non-finite norm"):
        cosine(v, [np.inf, scale])


@pytest.mark.parametrize("u", [[np.inf, 1.0], [np.nan, 1.0]])
def test_cosine_rejects_vectors_with_non_finite_norms(u):
    for a, b in ((u, [1.0, 0.0]), ([1.0, 0.0], u)):
        with pytest.raises(DegenerateVectorError, match="non-finite norm"):
            cosine(a, b)


# ----------------------------------------------- semantic claims about verbs

def _sentence_vector(subject_vec, verb_tensor, object_vec, space):
    d_n = space.dim("n")
    subject = WordMeaning("a", parse_type("n"), subject_vec)
    obj = WordMeaning("b", parse_type("n"), object_vec)
    verb = WordMeaning("v", parse_type("n^r s n^l"), verb_tensor)
    seq = subject.type + verb.type + obj.type
    return meaning([subject, verb, obj], reduce(seq, SENT), space)


def test_word_order_matters_for_asymmetric_verbs():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(20):
        t = rng.normal(size=(3, 2, 3))
        sa = SpaceAssignment({"n": 3, "s": 2})
        i, j = 0, 1
        if np.allclose(t[i, :, j], t[j, :, i]):
            continue
        a = np.eye(3)[i]
        b = np.eye(3)[j]
        ab = _sentence_vector(a, t, b, sa)
        ba = _sentence_vector(b, t, a, sa)
        assert not np.allclose(ab, ba)
        hits += 1
    assert hits >= 19


def test_separable_verbs_collapse_subject_distinctions():
    rng = np.random.default_rng(29)
    sa = SpaceAssignment({"n": 3, "s": 2})
    for _ in range(20):
        verb = kron(kron(rng.normal(size=3), rng.normal(size=2)), rng.normal(size=3))
        w = rng.normal(size=3)
        u1, u2 = rng.normal(size=3), rng.normal(size=3)
        m1 = _sentence_vector(u1, verb, w, sa)
        m2 = _sentence_vector(u2, verb, w, sa)
        if not np.any(m1) or not np.any(m2):
            continue
        assert abs(abs(cosine(m1, m2)) - 1.0) < 1e-9
