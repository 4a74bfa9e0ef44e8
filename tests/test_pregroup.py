import copy
import gc
import math
import pickle
import random
import re
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from gramflow import (
    ArgumentError,
    DiagramError,
    GramflowError,
    ParseError,
    PregroupType,
    ReductionDiagram,
    SimpleType,
    SpaceAssignment,
    WordMeaning,
    ascii_diagram,
    contracts,
    enumerate_reductions,
    is_sentence,
    left_adjoint,
    meaning,
    meaning_naive,
    parse_type,
    reduce,
    right_adjoint,
    validate_diagram,
)
from oracles import (
    ascii_by_recursion,
    bracket_diagram,
    exists_by_intervals,
    oracle_exists,
    oracle_witnesses,
    parse_type_by_regex,
    reduces_by_rewriting,
    simples,
    validate_by_pairs,
)

N = "n"
S = "s"
SENT = parse_type("s")
ALPHABET = [SimpleType(b, z) for b in (N, S) for z in (-1, 0, 1)]
NOUN = WordMeaning("alice", parse_type("n"), np.array([1.0, 0.0]))


def random_type(rng, length):
    return PregroupType(tuple(rng.choice(ALPHABET) for _ in range(length)))


def random_reducible(rng, target, pairs):
    """Insert cancelling pairs into the target, so reduction is guaranteed."""
    simples = list(target)
    for _ in range(pairs):
        t = rng.choice(ALPHABET)
        pair = [t, right_adjoint(t)] if rng.random() < 0.5 else [left_adjoint(t), t]
        at = rng.randrange(len(simples) + 1)
        simples[at:at] = pair
    return PregroupType(tuple(simples))


# ---------------------------------------------------------------- parsing

def test_parse_plain_basic_type():
    assert parse_type("n").simples == (SimpleType(N, 0),)


def test_parse_transitive_verb_type():
    assert parse_type("n^r s n^l").simples == (
        SimpleType(N, 1),
        SimpleType(S, 0),
        SimpleType(N, -1),
    )


def test_parse_iterated_adjoint():
    assert parse_type("n^rr").simples == (SimpleType(N, 2),)
    assert parse_type("n^ll").simples == (SimpleType(N, -2),)
    assert parse_type("n^rl").simples == (SimpleType(N, 0),)


def test_parse_dot_separator_and_unit():
    assert parse_type("n.s") == parse_type("n s")
    assert parse_type("") == PregroupType(())
    assert parse_type("   ") == PregroupType(())


@pytest.mark.parametrize("bad", ["n^x", "^r", "n^", "3n", "n^lr2"])
def test_parse_rejects_malformed_token(bad):
    with pytest.raises(ParseError) as err:
        parse_type(bad)
    assert bad.split()[0] in str(err.value)


# ASCII letters, digits, marks and separators, every character str.split() and re's \s
# split on below U+0100 and two above it, and look-alikes of letters, digits and spaces
TYPE_TEXT = st.text(st.sampled_from([*"nsx_09^lr. \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000\u200b",
                                     *"\u00e9\u0131\u212a\u0663\u00b2\x00"]), max_size=16)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None)
# a text, or one that repeats its tokens around another, so parse_type meets tokens it has built
@given(TYPE_TEXT | st.builds("{0} {1} {0}".format, TYPE_TEXT, TYPE_TEXT))
def test_parse_type_matches_the_regex_rule(text):
    want = parse_outcome(parse_type_by_regex, text)
    event("parses" if isinstance(want, tuple) else "malformed")
    tokens = text.replace(".", " ").split()
    event("repeats a token" if len(set(tokens)) < len(tokens) else "no repeated token")
    assert parse_outcome(lambda t: simples(parse_type(t)), text) == want


@pytest.mark.parametrize("args, message", [
    (("n", 0.5), "simple type order z is 0.5, not an integer"),
    (("n", "1"), "simple type order z is '1', not an integer"),
    (("n", None), "simple type order z is None, not an integer"),
    (("n", True), "simple type order z is True, not an integer"),
    ((1, 0), "simple type base is 1, not a str"),
])
def test_simple_type_refuses_wrong_typed_fields(args, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        SimpleType(*args)


def test_simple_type_stores_an_integer_order_as_int():
    t = SimpleType("n", np.int64(-2))
    assert type(t.z) is int and t == SimpleType("n", -2) and str(t) == "n^ll"


@pytest.mark.parametrize("call, message", [
    (lambda: reduce(PregroupType(("n",)), parse_type("n")),
     "pregroup type element is 'n', not a SimpleType"),
    (lambda: PregroupType("n n"), "pregroup type element is 'n', not a SimpleType"),
    (lambda: PregroupType(5), "pregroup type is 5, not an iterable"),
    (lambda: validate_diagram(parse_type("n n^r"), ReductionDiagram(2.0, [(0, 1)])),
     "diagram length is 2.0, not an integer"),
    (lambda: ReductionDiagram(True, []), "diagram length is True, not an integer"),
    (lambda: ReductionDiagram(-1, []), "diagram length must be >= 0, got -1"),
    (lambda: ReductionDiagram(2, None), "diagram link list is None, not an iterable"),
    (lambda: ascii_diagram(parse_type("n n^r"), ReductionDiagram(2, [(0, 1, 2)])),
     "diagram link (0, 1, 2) is not a pair"),
    (lambda: ReductionDiagram(2, [0, 1]), "diagram link is 0, not an iterable"),
    (lambda: ReductionDiagram(2, [(0, 1.0)]), "diagram link entry is 1.0, not an integer"),
    (lambda: reduce(parse_type("n n^r s"), "s"), "pregroup type element is 's', not a SimpleType"),
    (lambda: enumerate_reductions("n n^r s", SENT, 2), "pregroup type element is 'n', not a SimpleType"),
    (lambda: is_sentence("n n^r s"), "pregroup type element is 'n', not a SimpleType"),
    (lambda: validate_diagram(parse_type("n n^r s"), ReductionDiagram(3, [(0, 1)]), "s"),
     "pregroup type element is 's', not a SimpleType"),
    (lambda: validate_diagram(parse_type("n"), None), "diagram is None, not a ReductionDiagram"),
    (lambda: meaning([NOUN], reduce(parse_type("n"), SENT), SpaceAssignment({"n": 2})),
     "diagram is None, not a ReductionDiagram"),
    (lambda: meaning([NOUN], reduce(parse_type("n"), parse_type("n")), {"n": 2}),
     "space is {'n': 2}, not a SpaceAssignment"),
    (lambda: meaning_naive([NOUN], reduce(parse_type("n"), parse_type("n")), None),
     "space is None, not a SpaceAssignment"),
    (lambda: WordMeaning("alice", "n", np.ones(2)), "pregroup type element is 'n', not a SimpleType"),
])
def test_pregroup_type_and_diagram_refuse_wrong_typed_fields(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()


def test_pregroup_type_and_diagram_store_any_iterable_of_their_fields_as_tuples():
    n = SimpleType("n")
    t = PregroupType([n])
    assert t == PregroupType((n,)) and hash(t) == hash(PregroupType((n,))) and type(t.simples) is tuple
    d = ReductionDiagram(np.int64(3), iter([[np.int8(0), np.int64(1)]]))
    assert d == ReductionDiagram(3, ((0, 1),)) and d.through == (2,)
    assert type(d.length) is int and {type(p) for p in (*d.links[0], *d.through)} == {int}
    # structure is still validate_diagram's to check
    with pytest.raises(DiagramError, match="out of range"):
        validate_diagram(parse_type("n n^r"), ReductionDiagram(2, [(1, 0)]))


@pytest.mark.parametrize("other", [5, (SimpleType("s"),)])
def test_pregroup_type_adds_only_a_pregroup_type(other):
    with pytest.raises(TypeError, match="unsupported operand"):
        parse_type("n") + other


@pytest.mark.parametrize("text", [None, b"n", 3])
def test_parse_type_refuses_text_that_is_not_a_str(text):
    with pytest.raises(ArgumentError, match=f"^type text is {re.escape(repr(text))}, not a str$"):
        parse_type(text)


def test_parse_str_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        t = random_type(rng, rng.randrange(0, 6))
        assert parse_type(str(t)) == t


# ---------------------------------------------------------------- adjoints

def test_adjoint_examples():
    n = SimpleType(N, 0)
    assert right_adjoint(n) == SimpleType(N, 1)
    assert left_adjoint(n) == SimpleType(N, -1)
    assert left_adjoint(right_adjoint(SimpleType(S, 0))) == SimpleType(S, 0)


def test_adjoint_involution_everywhere():
    for t in (SimpleType(b, z) for b in (N, S) for z in range(-3, 4)):
        assert left_adjoint(right_adjoint(t)) == t
        assert right_adjoint(left_adjoint(t)) == t


def test_contracts_examples():
    assert contracts(SimpleType(N, 0), SimpleType(N, 1))
    assert contracts(SimpleType(N, -1), SimpleType(N, 0))
    assert not contracts(SimpleType(N, 0), SimpleType(S, 1))


def test_contraction_shift_property():
    for t in (SimpleType(b, z) for b in (N, S) for z in range(-3, 4)):
        assert contracts(t, right_adjoint(t))
        assert contracts(left_adjoint(t), t)
        assert not contracts(t, t)


def test_a_basic_type_is_its_name():
    base = parse_type("n^r s")[0].base
    assert base == "n" and type(base) is str
    assert len({SimpleType("n"), parse_type("n")[0]}) == 1
    ordered = sorted(parse_type("s n^r n s^l n^l"))
    assert [(t.base, t.z) for t in ordered] == [("n", -1), ("n", 0), ("n", 1), ("s", -1), ("s", 0)]
    assert SpaceAssignment({"n": 3}).dim(parse_type("n")[0].base) == 3


# ------------------------------------------------------------- value types

FIELDS = {SimpleType: ("base", "z"), PregroupType: ("simples",),
          ReductionDiagram: ("length", "links")}
PAIRS = st.tuples(st.sampled_from(["n", "s", "np", "é"]), st.integers(-3, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(PAIRS, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_value_types_are_immutable_field_tuples(pairs, rng):
    simples = tuple(SimpleType(*pair) for pair in pairs)
    cups = [[2 * i, 2 * i + 1] for i in range(len(pairs))]
    rng.shuffle(cups)
    for value in (simples[0], PregroupType(simples),
                  ReductionDiagram(2 * len(cups) + 1, cups)):
        cls, names = type(value), FIELDS[type(value)]
        fields = tuple(getattr(value, name) for name in names)
        assert cls(*fields) == value == cls(**dict(zip(names, fields)))
        assert hash(value) == hash(fields)
        assert value != fields and fields != value and value != fields[0]
        assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={f!r}' for n, f in zip(names, fields))})"
        assert eval(repr(value), {c.__name__: c for c in FIELDS}) == value
        pickled = [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in [copy.copy(value), copy.deepcopy(value), *pickled]:
            assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in names) == fields


@settings(max_examples=200, deadline=None)
@given(PAIRS, PAIRS)
def test_simple_types_order_as_base_then_z(a, b):
    x, y = SimpleType(*a), SimpleType(*b)
    assert (x < y, x <= y, x > y, x >= y, x == y) == (a < b, a <= b, a > b, a >= b, a == b)
    with pytest.raises(TypeError):
        x < a
    with pytest.raises(TypeError):
        PregroupType((x,)) < PregroupType((y,))
    match x:
        case SimpleType(base, z):
            assert (base, z) == a


def test_value_type_defaults_and_normal_form():
    assert SimpleType("n") == SimpleType("n", 0) == SimpleType(base="n", z=0)
    assert PregroupType() == PregroupType(()) == parse_type("") and len(PregroupType()) == 0
    d = ReductionDiagram(5, iter([[3, 4], (0, 1)]))
    assert d.links == ((0, 1), (3, 4)) and type(d.links[1]) is tuple and d.through == (2,)
    assert d == ReductionDiagram(length=5, links=((0, 1), (3, 4)))
    assert repr(d) == "ReductionDiagram(length=5, links=((0, 1), (3, 4)))"
    assert repr(parse_type("n^r")) == "PregroupType(simples=(SimpleType(base='n', z=1),))"
    assert SimpleType("n") != PregroupType((SimpleType("n"),))


# ---------------------------------------------------------------- reduce

def test_reduce_transitive_sentence():
    d = reduce(parse_type("n n^r s n^l n"), SENT)
    assert d.links == ((0, 1), (3, 4))
    assert d.through == (2,)


def test_reduce_identity():
    d = reduce(SENT, SENT)
    assert d.links == ()
    assert d.through == (0,)


def test_reduce_absent():
    assert reduce(parse_type("n n^r s n^l"), SENT) is None


def test_reduce_negated_sentence_sequence():
    seq = parse_type("n n^r s s^l n n^r s s^l n n^r s n^l n")
    d = reduce(seq, SENT)
    assert set(d.links) == {(0, 1), (4, 5), (8, 9), (3, 6), (7, 10), (11, 12)}
    assert d.through == (2,)
    # and the witness is unique
    assert len(enumerate_reductions(seq, SENT, 50)) == 1


def test_reduce_empty_target_full_cancellation():
    d = reduce(parse_type("n n^r"), PregroupType(()))
    assert d.links == ((0, 1),)
    assert d.through == ()


def test_reduce_unit_to_unit():
    d = reduce(PregroupType(()), PregroupType(()))
    assert d.length == 0 and d.links == () and d.through == ()


def test_iterated_adjoints_contract_by_the_same_rule():
    assert contracts(SimpleType(N, 1), SimpleType(N, 2))
    d = reduce(parse_type("n^r n^rr"), PregroupType(()))
    assert d.links == ((0, 1),)
    # snake-shaped sequence through an iterated adjoint
    assert reduce(parse_type("n n^r n^rr n^r"), parse_type("n n^r")) is not None


def test_enumerate_examples():
    assert len(enumerate_reductions(parse_type("n n^r s n^l n"), SENT, 10)) == 1
    only = enumerate_reductions(parse_type("n n^r"), PregroupType(()), 10)
    assert [d.links for d in only] == [((0, 1),)]
    only = enumerate_reductions(parse_type("n n^r n n^r"), PregroupType(()), 10)
    assert [d.links for d in only] == [((0, 1), (2, 3))]


def test_enumerate_limit_validation():
    with pytest.raises(ArgumentError, match=r"^limit must be >= 1, got 0$"):
        enumerate_reductions(SENT, SENT, 0)


def test_enumerate_limit_past_the_largest_index_is_no_limit():
    seq = parse_type("n n^r n n^r")
    every = enumerate_reductions(seq, parse_type("n n^r"), 100)
    assert len(every) == 2
    assert enumerate_reductions(seq, parse_type("n n^r"), 10**30) == every


def test_enumerate_respects_limit_and_reduce_is_first():
    # either the left or the right n n^r block can survive as the target
    seq = parse_type("n n^r n n^r")
    target = parse_type("n n^r")
    all_of_them = enumerate_reductions(seq, target, 100)
    assert [d.links for d in all_of_them] == [((0, 1),), ((2, 3),)]
    assert enumerate_reductions(seq, target, 1) == all_of_them[:1]
    assert reduce(seq, target) == all_of_them[0]


# 300 nested and 300 sibling cups (601 wires) under a recursion limit of 200:
# the witness search must not recurse once per cup
DEEP_CUPS = """
import sys
from gramflow import enumerate_reductions, parse_type, reduce
sys.setrecursionlimit(200)
cups, sent = 300, parse_type("s")
for text, links in [
    ("n " * cups + "n^r " * cups + "s", tuple((i, 2 * cups - 1 - i) for i in range(cups))),
    ("n n^r " * cups + "s", tuple((2 * i, 2 * i + 1) for i in range(cups))),
]:
    seq = parse_type(text)
    diagram = reduce(seq, sent)
    assert diagram.links == links and diagram.through == (2 * cups,), text[:12]
    assert enumerate_reductions(seq, sent, 2) == [diagram], text[:12]
print("ok")
"""


def test_many_nested_or_sibling_cups_need_no_recursion():
    # a child interpreter, so the lowered limit cannot reach other tests
    out = subprocess.run([sys.executable, "-c", DEEP_CUPS], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr[-2000:]


def test_reduce_leaves_no_cyclic_garbage():
    # every table a search builds is freed on return, without a collector pass
    cases = [
        (parse_type("n n^r s n^l n"), SENT),
        (parse_type("n n^r n n^r"), parse_type("n n^r")),  # two witnesses
        (parse_type("n " * 60 + "n^r " * 60 + "s"), SENT),
        (PregroupType(()), PregroupType(())),
    ]
    gc.collect()
    gc.disable()
    try:
        for seq, target in cases:
            reduce(seq, target)
            enumerate_reductions(seq, target, limit=16)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_is_sentence_examples():
    assert is_sentence(parse_type("n n^r s n^l n"))
    assert not is_sentence(parse_type("n"))
    assert is_sentence(parse_type("n n^r s"))


# ------------------------------------------------------ diagram validation

def test_validate_rejects_crossing_links():
    seq = parse_type("n n n^r n^r")
    with pytest.raises(ValueError, match="cross|nested"):
        validate_diagram(seq, ReductionDiagram(4, ((0, 2), (1, 3))))


def test_validate_rejects_unnested_interior():
    seq = parse_type("n s n^r")
    with pytest.raises(ValueError, match="nested"):
        validate_diagram(seq, ReductionDiagram(3, ((0, 2),)))


def test_validate_rejects_noncancelling_link():
    seq = parse_type("n n")
    with pytest.raises(ValueError, match="cancel"):
        validate_diagram(seq, ReductionDiagram(2, ((0, 1),)))


def test_validate_rejects_wrong_target():
    seq = parse_type("n n^r s")
    with pytest.raises(ValueError, match="target"):
        validate_diagram(seq, ReductionDiagram(3, ((0, 1),)), parse_type("n"))


def test_reduce_output_always_validates():
    rng = random.Random(11)
    for _ in range(300):
        target = random_type(rng, rng.randrange(0, 3))
        seq = random_reducible(rng, target, rng.randrange(0, 5))
        d = reduce(seq, target)
        assert d is not None
        validate_diagram(seq, d, target)


FAULTS = [
    ("n n^r", ((0, 2),), None, "out of range"),
    ("n n^r n^r", ((0, 1), (0, 2)), None, "reuses"),
    ("n n n^r n^r", ((0, 2), (1, 3)), None, "cross"),
    ("n s n^r", ((0, 2),), None, "not nested"),
    ("n n", ((0, 1),), None, "do not cancel"),
    ("n n^r s", ((0, 1),), "n", "target"),
]


@pytest.mark.parametrize("text, links, target, message", FAULTS)
def test_validate_names_each_fault_like_the_pairwise_oracle(text, links, target, message):
    seq = parse_type(text)
    target = None if target is None else parse_type(target)
    with pytest.raises(DiagramError, match=message) as raised:
        validate_diagram(seq, ReductionDiagram(len(seq), links), target)
    assert isinstance(raised.value, GramflowError) and isinstance(raised.value, ValueError)
    with pytest.raises(ValueError, match=message):
        validate_by_pairs(simples(seq), len(seq), links, None if target is None else simples(target))


@st.composite
def typed_diagrams(draw, faults):
    """A bracket-word diagram over random types, each link made to cancel."""
    word = draw(st.text(alphabet="().", max_size=10))
    n, links = bracket_diagram(word, keep_unlinked_under_cups=faults and draw(st.booleans()))
    types = draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n))
    for i, j in links:
        types[j] = right_adjoint(types[i])
    return n, list(links), types


def verdict(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


MUTATIONS = ["extra link", "drop link", "move end", "cross two", "retype", "length"]


@settings(max_examples=600, deadline=None)
@given(typed_diagrams(faults=True), st.lists(st.sampled_from(MUTATIONS), max_size=2), st.data())
def test_validate_accepts_exactly_what_the_pairwise_oracle_accepts(case, mutations, data):
    n, links, types = case
    length = n
    for m in mutations:
        if m == "extra link":
            i, j = data.draw(st.integers(-1, n)), data.draw(st.integers(-1, n))
            links.append((i, j))
            if 0 <= i < j < n:
                types[j] = right_adjoint(types[i])
        elif m == "drop link" and links:
            links.pop(data.draw(st.integers(0, len(links) - 1)))
        elif m == "move end" and links:
            k = data.draw(st.integers(0, len(links) - 1))
            shift = data.draw(st.sampled_from([-2, -1, 1, 2]))
            i, j = links[k]
            links[k] = (i + shift, j) if data.draw(st.booleans()) else (i, j + shift)
        elif m == "cross two" and len(links) > 1:
            w, x, y, z = sorted(links.pop() + links.pop())
            links += [(w, y), (x, z)]
            if 0 <= w and z < n:
                types[y], types[z] = right_adjoint(types[w]), right_adjoint(types[x])
        elif m == "retype" and n:
            types[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(ALPHABET))
        elif m == "length":
            length += 1
    seq = PregroupType(tuple(types))
    diagram = ReductionDiagram(length, links)
    survivors = tuple(types[p] for p in diagram.through if p < n)
    target = data.draw(st.sampled_from([None, survivors, survivors[1:], (ALPHABET[0],)]))
    got = verdict(validate_diagram, seq, diagram, None if target is None else PregroupType(target))
    want = verdict(validate_by_pairs, simples(seq), length, diagram.links,
                   None if target is None else simples(target))
    assert (got is None) == (want is None), (got, want)
    kinds = [k for k in ("diagram length", *(f[-1] for f in FAULTS)) if got is not None and k in got]
    assert got is None or kinds, got
    event(kinds[0] if kinds else "accepted")


@settings(max_examples=300, deadline=None)
@given(typed_diagrams(faults=False))
def test_ascii_diagram_matches_recursive_oracle(case):
    n, links, types = case
    seq = PregroupType(tuple(types))
    through = ReductionDiagram(n, links).through
    diagrams = enumerate_reductions(seq, PregroupType(tuple(types[p] for p in through)), 50)
    assert any(d.links == tuple(links) for d in diagrams)
    for d in diagrams:
        assert ascii_diagram(seq, d) == ascii_by_recursion([str(t) for t in seq], d.links)


# ------------------------------------------------ agreement with oracles

def test_existence_matches_oracles_exhaustive_small():
    for length in range(0, 6):
        for combo in product(ALPHABET, repeat=length):
            seq = PregroupType(combo)
            plain = simples(seq)
            got = reduce(seq, SENT) is not None
            assert got == reduces_by_rewriting(plain, (("s", 0),))
            assert got == oracle_exists(plain, (("s", 0),))


def test_enumeration_matches_oracle_witness_sets():
    rng = random.Random(23)
    reached = set()
    for i in range(600):
        target = random_type(rng, rng.randrange(0, 4))
        if i % 2:
            seq = random_reducible(rng, target, rng.randrange(0, 3))
        else:
            seq = random_type(rng, rng.randrange(0, 7))
        mine = [d.links for d in enumerate_reductions(seq, target, 10_000)]
        assert mine == oracle_witnesses(simples(seq), simples(target))
        if mine:
            reached.add(len(target))
    assert reached == {0, 1, 2, 3}


# three bases, adjoint orders -2..2: a pair (t, t^r) takes t's order from -2..1
BASES = st.sampled_from([N, S, "p"])
SIMPLE = st.builds(SimpleType, BASES, st.integers(-2, 2))
PAIRED = st.builds(SimpleType, BASES, st.integers(-2, 1))


def insert_pairs(draw, seq, pairs):
    """The list ``seq`` with ``pairs`` drawn pairs (t, t^r) inserted at drawn places."""
    for _ in range(pairs):
        t = draw(PAIRED)
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = [t, right_adjoint(t)]
    return seq


@st.composite
def sequences_and_targets(draw):
    """Up to 8 simple types and a target of 0-3: random, or the target with pairs inserted."""
    target = draw(st.lists(SIMPLE, max_size=3))
    if draw(st.booleans()):
        return PregroupType(draw(st.lists(SIMPLE, max_size=8))), PregroupType(target)
    seq = insert_pairs(draw, list(target), draw(st.integers(0, (8 - len(target)) // 2)))
    return PregroupType(seq), PregroupType(target)


ONE_BASE = st.builds(SimpleType, st.just(N), st.integers(-1, 1))


@st.composite
def one_base_nests(draw, wires):
    """Pairs (t, t^r) of one base, nested and side by side, a target and perhaps a planted pair.

    Each pair wraps a drawn run of the blocks made so far, or none, so most
    wires have several partners at odd distance whose inner interval does
    not cancel.  The target's wires sit between the top-level blocks, and
    the planted pair is some t^r and, somewhere after it, t: at most
    ``wires`` types in all.
    """
    target = draw(st.lists(ONE_BASE, max_size=min(3, wires)))
    planted = len(target) + 2 <= wires and draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(0, (wires - len(target) - 2 * planted) // 2))):
        t = draw(ONE_BASE)
        a = draw(st.integers(0, len(blocks)))
        b = draw(st.integers(a, len(blocks)))
        blocks[a:b] = [[t, *(s for block in blocks[a:b] for s in block), right_adjoint(t)]]
    for t in target:
        blocks.insert(draw(st.integers(0, len(blocks))), [t])
    seq = [s for block in blocks for s in block]
    if planted:
        t = draw(ONE_BASE)
        at = draw(st.integers(0, len(seq)))
        seq.insert(draw(st.integers(at, len(seq))), t)
        seq.insert(at, right_adjoint(t))
    return PregroupType(seq), PregroupType(target)


# half the examples from each strategy, so about 1,000 from sequences_and_targets
@settings(max_examples=2000, deadline=None)
@given(sequences_and_targets() | one_base_nests(8))
def test_enumeration_matches_oracle_over_iterated_adjoints(case):
    seq, target = case
    mine = enumerate_reductions(seq, target, 10_000)
    assert [d.links for d in mine] == oracle_witnesses(simples(seq), simples(target))
    event(f"witnesses: {min(len(mine), 2)}")


def assert_partners_and_through(seq, diagram):
    """validate_diagram's partner list against the links, ``through`` against the positions in none."""
    partner = validate_diagram(seq, diagram)
    linked = {p for link in diagram.links for p in link}
    assert diagram.through == tuple(p for p in range(diagram.length) if p not in linked)
    assert len(partner) == diagram.length
    assert tuple(p for p, q in enumerate(partner) if q == -1) == diagram.through
    for i, j in diagram.links:
        assert partner[i] == j and partner[j] == i
    pickled = [pickle.loads(pickle.dumps(diagram, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [copy.copy(diagram), copy.deepcopy(diagram), *pickled]:
        assert copied == diagram and copied.through == diagram.through


@settings(max_examples=300, deadline=None)
@given(typed_diagrams(faults=False))
def test_validate_returns_each_wires_partner(case):
    n, links, types = case
    assert_partners_and_through(PregroupType(tuple(types)), ReductionDiagram(n, links))


@settings(max_examples=300, deadline=None)
@given(sequences_and_targets())
def test_every_witness_has_partners_and_through_of_its_links(case):
    seq, target = case
    for diagram in enumerate_reductions(seq, target, 50):
        assert_partners_and_through(seq, diagram)
        assert tuple(seq[p] for p in diagram.through) == target.simples


@st.composite
def long_sequences_and_targets(draw):
    """A target of 0-3 with up to 18 pairs inserted, and perhaps one planted pair: up to 41 types.

    The planted pair is some t^r and, somewhere after it, t: together they
    leave every base's count unchanged, but they cancel only if other wires
    take both of them.
    """
    target = draw(st.lists(SIMPLE, max_size=3))
    seq = insert_pairs(draw, list(target), draw(st.integers(0, 18)))
    if draw(st.booleans()):
        t = draw(PAIRED)
        at = draw(st.integers(0, len(seq)))
        seq.insert(draw(st.integers(at, len(seq))), t)
        seq.insert(at, right_adjoint(t))
    return PregroupType(seq), PregroupType(target)


@settings(max_examples=1000, deadline=None)
@given(long_sequences_and_targets())
def test_reduce_matches_the_interval_oracle_past_eight_wires(case):
    seq, target = case
    diagram = reduce(seq, target)
    assert (diagram is not None) == exists_by_intervals(simples(seq), simples(target))
    if diagram is not None:
        validate_diagram(seq, diagram, target)
    event("reduces" if diagram is not None else "does not reduce")
    event(f"wires: {len(seq) // 10 * 10}-{len(seq) // 10 * 10 + 9}")


# half the examples from each strategy, so about 1,000 from long_sequences_and_targets
@settings(max_examples=2000, deadline=None)
@given(long_sequences_and_targets() | one_base_nests(41))
def test_long_witnesses_are_distinct_ordered_and_valid(case):
    seq, target = case
    found = enumerate_reductions(seq, target, 16)
    assert (found != []) == exists_by_intervals(simples(seq), simples(target))
    links = [d.links for d in found]
    assert all(a < b for a, b in zip(links, links[1:]))  # strictly increasing, so distinct
    assert found[:1] == [d for d in [reduce(seq, target)] if d is not None]
    for diagram in found:
        validate_diagram(seq, diagram, target)
    event(f"witnesses: {min(len(found), 2)}")


@pytest.mark.parametrize("k", range(1, 8))
def test_clause_chain_has_catalan_many_witnesses_in_order(k):
    # k clauses n n^r s joined by the connective s^l s s^r: each way to bracket
    # the k clauses is one witness, so there are Catalan(k) of them
    seq = parse_type(" s^l s s^r ".join(["n n^r s"] * k))
    assert len(seq) == 6 * k - 3
    found = enumerate_reductions(seq, SENT, 10**6)
    assert len(found) == math.comb(2 * k, k) // (k + 1)
    links = [d.links for d in found]
    assert all(a < b for a, b in zip(links, links[1:]))
    for diagram in found:
        validate_diagram(seq, diagram, SENT)
    assert found[0] == reduce(seq, SENT)


def test_long_planted_non_reducing_sequence_does_not_reduce():
    # balanced, so the table is filled; the planted s^r has no partner to cancel with
    cups = 299
    seq = parse_type("n " * cups + "s^r " + "n^r " * cups + "s s")
    assert len(seq) == 601
    assert reduce(seq, SENT) is None
    assert reduce(parse_type("n " * cups + "n^r " * cups + "s"), SENT) is not None


@pytest.mark.parametrize("seq, target", [
    ("", "n^r n"),
    ("n", "n n^r n"),
    ("s", "s n^r n"),
    ("n^r n", "n^r n n^r n"),
])
def test_target_is_never_reached_by_expansion(seq, target):
    seq, target = parse_type(seq), parse_type(target)
    assert oracle_witnesses(simples(seq), simples(target)) == []
    assert reduce(seq, target) is None
    assert enumerate_reductions(seq, target, 10) == []


def test_two_wire_target_nests_its_through_cups():
    seq, target = parse_type("s s s^l s s^r s"), parse_type("s s")
    found = enumerate_reductions(seq, target, 10)
    assert [d.links for d in found] == oracle_witnesses(simples(seq), simples(target))
    assert [(d.links, d.through) for d in found] == [
        (((1, 4), (2, 3)), (0, 5)),
        (((2, 5), (3, 4)), (0, 1)),
    ]
    for d in found:
        validate_diagram(seq, d, target)


def test_canonical_choice_is_lexicographic_minimum():
    rng = random.Random(29)
    seen_ambiguous = 0
    for _ in range(300):
        target = random_type(rng, rng.randrange(0, 3))
        seq = random_reducible(rng, target, rng.randrange(2, 6))
        witnesses = oracle_witnesses(simples(seq), simples(target))
        assert witnesses
        assert reduce(seq, target).links == witnesses[0]
        seen_ambiguous += len(witnesses) > 1
    assert seen_ambiguous > 10


# ---------------------------------------------------------------- render

def test_ascii_diagram_five_types():
    seq = parse_type("n n^r s n^l n")
    art = ascii_diagram(seq, reduce(seq, SENT))
    assert art.splitlines() == [
        "n  n^r  s  n^l  n",
        "\\___/       \\___/",
    ]


def test_ascii_diagram_nested_arcs_sit_below():
    seq = parse_type("n n^r s s^l n n^r s s^l n n^r s n^l n")
    lines = ascii_diagram(seq, reduce(seq, SENT)).splitlines()
    assert len(lines) == 3
    assert lines[1].count("/") == 4 and lines[2].count("/") == 2


@pytest.mark.parametrize("seq, diagram", [
    # a diagram for three wires drawn over one: the parent returned 'n'
    (parse_type("n"), ReductionDiagram(3, ((0, 1),))),
    # right length, but the cup joins n^r and n, which do not cancel
    (parse_type("n n^r n n^r"), ReductionDiagram(4, ((1, 2),))),
])
def test_ascii_diagram_checks_its_diagram(seq, diagram):
    with pytest.raises(DiagramError):
        ascii_diagram(seq, diagram)


def test_diagram_str_lists_links_and_through():
    d = reduce(parse_type("n n^r s n^l n"), SENT)
    assert str(d) == "links (0,1) (3,4); through 2"


def test_module_doctests():
    import doctest

    import gramflow.pregroup
    import gramflow.semantics
    for module in (gramflow.pregroup, gramflow.semantics):
        failures, tried = doctest.testmod(module)
        assert failures == 0 and tried > 0
