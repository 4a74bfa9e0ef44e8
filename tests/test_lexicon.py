import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gramflow.demo as demo
import gramflow.lexicon as lexicon_module
from gramflow import (
    BasisSpec,
    GramflowError,
    ParseError,
    ShapeError,
    SizeCapError,
    SpaceAssignment,
    UnknownWordError,
    VectorSpaceModel,
    WordMeaning,
    choi_embed,
    is_separable,
    load_lexicon,
    make_logical_does,
    make_logical_not,
    meaning,
    meaning_naive,
    parse_type,
    read_tensor,
    reduce,
)
from gramflow.lexicon import LOGICAL_TYPE
from oracles import lexicon_by_lines

SENT = parse_type("s")
SA22 = SpaceAssignment({"n": 2, "s": 2})

CANONICAL_NEGATION_LINKS = ((0, 1), (3, 6), (4, 5), (7, 10), (8, 9), (11, 12))


def write_matrix(path, mat):
    arr = np.asarray(mat)
    lines = [" ".join(str(d) for d in arr.shape)]
    lines += [" ".join(repr(float(v)) for v in row) for row in arr.reshape(arr.shape[0], -1)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- file loading

def test_demo_lexicon_loads_and_binds():
    lex = load_lexicon(demo.lexicon_path(), SA22)
    assert lex.words() == ["alice", "bob", "does", "dreams", "hates", "like", "likes", "not"]
    alice = lex.bind("alice")
    assert np.array_equal(alice.tensor, [1.0, 0.0])
    hates = lex.bind("hates")
    assert hates.tensor.shape == (2, 2, 2)
    assert str(hates.type) == "n^r s n^l"


def test_bind_unknown_word():
    lex = load_lexicon(demo.lexicon_path(), SA22)
    with pytest.raises(UnknownWordError, match="'xyzzy'"):
        lex.bind("xyzzy")


def test_bind_is_a_pure_memo():
    lex = load_lexicon(demo.lexicon_path(), SA22)
    first = lex.bind("dreams")
    second = lex.bind("dreams")
    assert first == second
    assert first.tensor is second.tensor


def test_vector_sourced_entry(tmp_path):
    model = VectorSpaceModel(
        BasisSpec(("u", "v")), {"alice": np.array([0.25, 0.75])}, {"alice": 4}
    )
    path = tmp_path / "lex.tsv"
    path.write_text("alice\tn\tvector\n")
    lex = load_lexicon(path, SA22, model)
    assert np.array_equal(lex.bind("alice").tensor, [0.25, 0.75])

    with pytest.raises(ParseError, match="model"):
        load_lexicon(path, SA22)


def test_choi_sourced_entry(tmp_path):
    write_matrix(tmp_path / "f.tns", [[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "lex.tsv"
    path.write_text("runs\tn^r s\tchoi:f.tns\n")
    for each in (path, bytes(path)):  # a bytes path resolves the entry's file too
        lex = load_lexicon(each, SA22)
        assert np.array_equal(lex.bind("runs").tensor, choi_embed([[1.0, 2.0], [3.0, 4.0]]))


def test_shape_mismatch_rejected_at_load(tmp_path):
    write_matrix(tmp_path / "bad.tns", [[1.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "lex.tsv"
    path.write_text("hates\tn^r s n^l\ttensor:bad.tns\n")
    with pytest.raises(ShapeError) as err:
        load_lexicon(path, SA22)
    msg = str(err.value)
    assert "hates" in msg and "[2, 2]" in msg and "[2, 2, 2]" in msg


def test_load_errors_name_the_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# fine\nalice\tn\n")
    with pytest.raises(ParseError, match="2"):
        load_lexicon(path, SA22)
    path.write_text("alice\tn\ttensor:nowhere.tns\n")
    with pytest.raises(ParseError, match="nowhere"):
        load_lexicon(path, SA22)
    path.write_text("alice\tn?\tlogical:does\n")
    with pytest.raises(ParseError, match="n\\?"):
        load_lexicon(path, SA22)
    path.write_text("alice\tn\tmystery:x\n")
    with pytest.raises(ParseError, match="mystery"):
        load_lexicon(path, SA22)
    path.write_text("a\tn\tlogical:does\n")
    with pytest.raises(ShapeError):
        load_lexicon(path, SA22)
    write_matrix(tmp_path / "a.tns", [[1.0, 0.0], [0.0, 1.0]])
    path.write_text("alice\tn n\ttensor:a.tns\nalice\tn n\ttensor:a.tns\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_lexicon(path, SA22)


@pytest.mark.parametrize("source", ["logical:does", "logical:not:neg.tns"])
@pytest.mark.parametrize("type_text", ["n^r n s^l s", "s^r  n n^l s"])
def test_logical_word_must_have_the_logical_type(tmp_path, source, type_text):
    # the shape fits at n = s = 2, but the routing is wired for LOGICAL_TYPE
    write_matrix(tmp_path / "neg.tns", [[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "lex.tsv"
    path.write_text(f"# aux\naux\t{type_text}\t{source}\n")
    message = f"{path}:2: logical word 'aux' has type {type_text!r}, not {LOGICAL_TYPE!r}"
    for load in (load_lexicon, lexicon_by_lines):
        with pytest.raises(ParseError) as err:
            load(path, SA22)
        assert str(err.value) == message
    # where the shape does not fit, the shape error comes first, as before
    with pytest.raises(ShapeError):
        load_lexicon(path, SpaceAssignment({"n": 2, "s": 3}))
    path.write_text(f"aux\t {LOGICAL_TYPE.replace(' ', '  ')} \t{source}\n")
    assert load_lexicon(path, SA22).bind("aux").type == parse_type(LOGICAL_TYPE)


@pytest.mark.parametrize("source", ["logical:does", "logical:not:neg.tns"])
def test_logical_word_too_large_for_numpy_is_a_size_cap_error(tmp_path, source):
    # d_n = 10**10 gives 4e20 entries: numpy refuses the shape before allocating anything
    write_matrix(tmp_path / "neg.tns", [[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "lex.tsv"
    path.write_text(f"aux\t{LOGICAL_TYPE}\t{source}\n")
    with pytest.raises(SizeCapError, match="entry 'aux': .* 400000000000000000000 entries"):
        load_lexicon(path, SpaceAssignment({"n": 10**10, "s": 2}))


@pytest.mark.parametrize("word, dims", [
    ("does", {"n": 10**10, "s": 2}),
    ("does", {"n": 2, "s": 10**10}),
    ("not", {"n": 10**10, "s": 2}),
    # no negation matrix can be 10**10 x 10**10 (numpy refuses the shape), so the widest
    # sentence space a negation can have: a 10**9 x 10**9 zero-stride view
    ("not", {"n": 2, "s": 10**9}),
])
def test_uncapped_logical_word_numpy_cannot_allocate_is_a_size_cap_error(word, dims):
    # make_logical_* have no cap: numpy refuses the shape, and nothing is allocated
    space = SpaceAssignment(dims)
    ds = dims["s"]
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"^logical:{word} needs d_n\\^2\\*d_s\\^2 = "
                                               f"{dims['n'] ** 2 * ds ** 2} entries .* numpy can allocate$"):
            if word == "does":
                make_logical_does(space)
            else:
                make_logical_not(space, np.broadcast_to(0.0, (ds, ds)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("source", ["logical:does", "logical:not:neg.tns"])
def test_logical_word_over_the_size_cap_is_refused_before_it_is_built(tmp_path, source):
    # d_n = d_s = 57 gives 10,556,001 entries, just over DEFAULT_SIZE_CAP: an 84 MB tensor
    write_matrix(tmp_path / "neg.tns", np.eye(57)[::-1])
    path = tmp_path / "lex.tsv"
    path.write_text(f"aux\t{LOGICAL_TYPE}\t{source}\n")
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="^entry 'aux': .* 10556001 entries .* the cap of 10000000$"):
            load_lexicon(path, SpaceAssignment({"n": 57, "s": 57}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    if source != "logical:does":  # a negation of the wrong shape still fails its own check first
        write_matrix(tmp_path / "neg.tns", np.eye(2))
        with pytest.raises(ShapeError, match="negation matrix must be 57x57"):
            load_lexicon(path, SpaceAssignment({"n": 57, "s": 57}))


def test_non_utf8_lexicon_is_a_parse_error(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes("alice\tn\tvector\ncaf\u00e9\tn\tvector\n".encode("latin-1"))
    with pytest.raises(ParseError, match="lex.tsv: not UTF-8 text"):
        load_lexicon(path, SA22)


def test_lexicon_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "lex.tsv"
    (tmp_path / "n.tns").write_bytes(b"\xef\xbb\xbf2\n1 0\n")
    path.write_bytes(b"\xef\xbb\xbfalice\tn\ttensor:n.tns\n")
    lex = load_lexicon(path, SA22)
    assert lex.words() == ["alice"]
    assert lex.bind("alice").tensor.tolist() == [1.0, 0.0]


def test_each_type_text_is_parsed_once(tmp_path, monkeypatch):
    # logical words build their own type, so this lexicon has none
    write_matrix(tmp_path / "m.tns", [[1.0, 0.0], [0.0, 1.0]])
    (tmp_path / "v.tns").write_text("2\n0.5 0.25\n")
    path = tmp_path / "lex.tsv"
    path.write_text("a\tn\ttensor:v.tns\nb\tn\ttensor:v.tns\nc\tn n^l\ttensor:m.tns\n"
                    "# n^r s\n\nd\tn  n^l\ttensor:m.tns\ne\tn^r s\tchoi:m.tns\n"
                    "f\tn n^l\ttensor:m.tns\ng\tn^r s\ttensor:m.tns\n")
    calls, reads = [], []

    def counting(text):
        calls.append(text)
        return parse_type(text)

    def counting_reads(file):
        reads.append(os.path.basename(file))
        return read_tensor(file)

    monkeypatch.setattr(lexicon_module, "parse_type", counting)
    monkeypatch.setattr(lexicon_module, "read_tensor", counting_reads)
    lex = load_lexicon(path, SA22)
    assert sorted(calls) == ["n", "n  n^l", "n n^l", "n^r s"]
    # one read per file-sourced entry, however often a file is named
    assert sorted(reads) == ["m.tns"] * 5 + ["v.tns"] * 2
    assert lex.bind("c").type == lex.bind("d").type == lex.bind("f").type
    assert lex.bind("c").type is lex.bind("f").type


# ------------------------------------------------- loader against the oracle

LEX_POOL = ["alice", "bob"] + [f"w{i}" for i in range(30)]
LEX_MODEL = VectorSpaceModel(
    BasisSpec(("u", "v")),
    {w: np.array([0.25 * i, 2.0 - i]) for i, w in enumerate(LEX_POOL[:-2])},
    {w: 1 + i for i, w in enumerate(LEX_POOL[:-2])},
)
# the same words with vectors that are lists or integer arrays, which need converting
LEX_MODEL_PLAIN = VectorSpaceModel(
    LEX_MODEL.basis,
    {w: [0.25 * i, 2.0 - i] if i % 2 else np.array([i, 2 - i]) for i, w in enumerate(LEX_POOL[:-2])},
    LEX_MODEL.counts,
)

# every good (type, source) pair; "p" has no dimension in SA22
GOOD_PAIRS = [
    ("n", "tensor:n.tns"), ("n", "vector"), ("n n^l", "tensor:nn.tns"),
    ("n  n^l", "tensor:nn.tns"), ("n.n^l", "tensor:nn.tns"), ("n^r s", "choi:nn.tns"),
    ("n^r s n^l", "tensor:tv.tns"), (LOGICAL_TYPE, "logical:does"),
    (LOGICAL_TYPE, "logical:not:nn.tns"), ("", "tensor:scalar.tns"), ("n n^l", "tensor:cr.tns"),
]
TYPE_TEXTS = sorted({t for t, _ in GOOD_PAIRS}) + ["p", "n p", "n?", "s^x"]
SOURCES = sorted({s for _, s in GOOD_PAIRS}) + [
    "tensor:nan.tns", "tensor:crnan.tns", "tensor:latin1.tns", "tensor:count.tns", "tensor:missing.tns",
    "logical:not:tv.tns", "mystery:x",
]
FAULTS = st.tuples(st.sampled_from(LEX_POOL), st.sampled_from(TYPE_TEXTS),
                   st.sampled_from(SOURCES)).map("\t".join) | st.sampled_from(
    ["alice\tn", "alice\tn\tvector\textra"])


@st.composite
def lexicon_lines(draw):
    """Good entries with distinct words (the last two are not in the model),
    padded with whitespace that is no line break in a file, comments and blank
    lines, and now and then one line that may be at fault."""
    entries = draw(st.lists(st.tuples(st.sampled_from(LEX_POOL), st.sampled_from(GOOD_PAIRS),
                                      st.sampled_from(["", " ", "  ", "\x0c", "\u2028"])),
                            max_size=16, unique_by=lambda e: e[0]))
    lines = [f"{word}\t{pad}{type_text}\t{source}{pad}" for word, (type_text, source), pad in entries]
    extras = draw(st.lists(st.sampled_from(["", "   ", "# comment", "  # indented\tcomment",
                                            "#c\tn\tvector", "\t#c\tn", "\t\t", " \t \t ",
                                            " \tn\ttensor:n.tns"]),
                           max_size=3))
    if draw(st.booleans()):
        extras.append(draw(FAULTS))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


@pytest.fixture(scope="module")
def lexicon_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lexicon")
    (tmp / "n.tns").write_text("2\n0.5 -1.25\n")
    (tmp / "nn.tns").write_text("# a matrix\n2 2\n1.0 2.0\n\n3.0 4.0\n")
    (tmp / "tv.tns").write_text("2 2 2\n" + " ".join(
        repr(float(x)) for x in np.random.default_rng(5).normal(size=8)) + "\n")
    (tmp / "scalar.tns").write_text("\n2.5\n")
    (tmp / "nan.tns").write_text("2\n1.0\n# c\nnan\n")
    # "\r" and "\r\n" line ends, which text mode would have turned into "\n"
    (tmp / "cr.tns").write_bytes(b"2 2\r1.0 2.0\r\n# c\r3.0 4.0\r")
    (tmp / "crnan.tns").write_bytes(b"2\r\n1.0\r# c\r\nnan\r")
    (tmp / "latin1.tns").write_bytes("2\n1.0 caf\u00e9\n".encode("latin-1"))
    (tmp / "count.tns").write_text("2 2\n1 2 3\n")
    return tmp


def outcome(load):
    try:
        return load()
    except GramflowError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(lexicon_lines(), st.sampled_from(["\n", "\r\n", "\r"]),
       st.sampled_from([None, LEX_MODEL, LEX_MODEL_PLAIN]))
@example(["alice\tn\tvector", "# c", "", "c\tn n^l\ttensor:nn.tns", "d\tn  n^l\ttensor:nn.tns",
          "e\tn.n^l\ttensor:nn.tns", "bob\tn\ttensor:n.tns", f"does\t{LOGICAL_TYPE}\tlogical:does"],
         "\n", LEX_MODEL)
@example(["alice\tn\tvector", "bob\tn\tvector", "alice\tn\ttensor:n.tns"], "\n", LEX_MODEL)
@example(["alice\tn\tvector", f"{LEX_POOL[-1]}\tn\tvector"], "\n", LEX_MODEL)
@example(["a\tn\ttensor:n.tns", "b\tn?\ttensor:n.tns", "c\tn?\ttensor:n.tns"], "\n", None)
@example(["a\tn p\ttensor:nn.tns", "b\tn p\ttensor:missing.tns"], "\n", None)
@example(["a\tn p\ttensor:missing.tns"], "\n", None)
@example(["a\tn n^l\ttensor:nn.tns", "b\tn n^l\ttensor:tv.tns"], "\r\n", None)
@example(["a\tn\ttensor:nan.tns"], "\n", None)
@example(["a\tn n^l\ttensor:cr.tns", "b\tn\ttensor:crnan.tns"], "\r", None)
@example(["#c\tn\tvector", "w0\tn\tvector", "\t\t", " \t \t ", "\t#c\tn", "w1\tn\tvector",
          " \tn\ttensor:n.tns"], "\n", LEX_MODEL_PLAIN)
def test_load_lexicon_matches_line_oracle(lexicon_dir, lines, newline, model):
    path = lexicon_dir / "lex.tsv"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    want = outcome(lambda: lexicon_by_lines(path, SA22, model))
    got = outcome(lambda: load_lexicon(path, SA22, model))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.words() == sorted(want)
    for word, (ptype, tensor) in want.items():
        bound = got.bind(word)
        assert bound.word == word and bound.type == ptype
        assert bound.tensor.dtype == tensor.dtype and bound.tensor.shape == tensor.shape
        assert bound.tensor.tobytes() == tensor.tobytes()


# ------------------------------------------------------------ logical words

def test_logical_does_entries():
    does = make_logical_does(SA22)
    assert str(does.type) == "n^r s s^l n"
    assert does.tensor.shape == (2, 2, 2, 2)
    assert np.sum(does.tensor) == 4.0
    for i in range(2):
        for a in range(2):
            for b in range(2):
                for j in range(2):
                    expected = 1.0 if (i == j and a == b) else 0.0
                    assert does.tensor[i, a, b, j] == expected


def test_does_is_transparent_in_sentences():
    rng = np.random.default_rng(31)
    alice = WordMeaning("alice", parse_type("n"), rng.normal(size=2))
    dreams = WordMeaning("dreams", parse_type("n^r s"), rng.normal(size=(2, 2)))
    does = make_logical_does(SA22)

    plain_seq = alice.type + dreams.type
    plain = meaning([alice, dreams], reduce(plain_seq, SENT), SA22)
    aux_seq = alice.type + does.type + dreams.type
    aux_diagram = reduce(aux_seq, SENT)
    assert np.array_equal(meaning([alice, does, dreams], aux_diagram, SA22), plain)
    # the naive evaluator sums in a different order, so only up to rounding
    assert np.allclose(meaning_naive([alice, does, dreams], aux_diagram, SA22), plain,
                       rtol=0, atol=1e-12)


def test_logical_tensors_are_wire_connected():
    does = make_logical_does(SA22)
    swap = make_logical_not(SA22, [[0.0, 1.0], [1.0, 0.0]])
    for word in (does, swap):
        for split in (1, 2, 3):
            assert not is_separable(word.tensor, split)


def test_not_with_identity_negation_is_does():
    does = make_logical_does(SA22)
    ident = make_logical_not(SA22, np.eye(2))
    assert np.array_equal(does.tensor, ident.tensor)


def test_not_rejects_wrong_negation_shape():
    with pytest.raises(ShapeError):
        make_logical_not(SA22, np.eye(3))


def test_canonical_negation_diagram():
    seq = parse_type("n") + make_logical_does(SA22).type + make_logical_not(SA22, np.eye(2)).type \
        + parse_type("n^r s n^l") + parse_type("n")
    diagram = reduce(seq, SENT)
    assert diagram.length == 13
    assert diagram.links == CANONICAL_NEGATION_LINKS
    assert diagram.through == (2,)


def test_negation_theorem_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(25):
        dn, ds = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        space = SpaceAssignment({"n": dn, "s": ds})
        negation = rng.normal(size=(ds, ds))
        subject = WordMeaning("a", parse_type("n"), rng.normal(size=dn))
        obj = WordMeaning("b", parse_type("n"), rng.normal(size=dn))
        verb = WordMeaning("v", parse_type("n^r s n^l"), rng.normal(size=(dn, ds, dn)))
        does = make_logical_does(space)
        neg = make_logical_not(space, negation)

        plain_seq = subject.type + verb.type + obj.type
        plain = meaning([subject, verb, obj], reduce(plain_seq, SENT), space)

        full_seq = subject.type + does.type + neg.type + verb.type + obj.type
        diagram = reduce(full_seq, SENT)
        negated = meaning([subject, does, neg, verb, obj], diagram, space)
        assert np.max(np.abs(negated - negation @ plain)) < 1e-12


def test_chained_negations_compose_their_matrices():
    rng = np.random.default_rng(41)
    z1, z2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    subject = WordMeaning("a", parse_type("n"), rng.normal(size=2))
    obj = WordMeaning("b", parse_type("n"), rng.normal(size=2))
    verb = WordMeaning("v", parse_type("n^r s n^l"), rng.normal(size=(2, 2, 2)))
    does = make_logical_does(SA22)
    not1 = make_logical_not(SA22, z1)
    not2 = make_logical_not(SA22, z2)

    plain_seq = subject.type + verb.type + obj.type
    plain = meaning([subject, verb, obj], reduce(plain_seq, SENT), SA22)

    words = [subject, does, not1, not2, verb, obj]
    seq = plain_seq[0:0]
    for w in words:
        seq = seq + w.type
    chained = meaning(words, reduce(seq, SENT), SA22)
    assert np.allclose(chained, z1 @ z2 @ plain, rtol=0, atol=1e-12)
