import contextlib
import os
import random
import re
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from gramflow import (
    ArgumentError,
    BasisSpec,
    CorpusError,
    DegenerateVectorError,
    GramflowError,
    ParseError,
    VectorSpaceModel,
    build_basis,
    build_model,
    cosine,
    load_model,
    save_model,
    tokenize,
)
from gramflow import distributional
from gramflow.distributional import documents_from_text, load_corpus
from oracles import model_by_lines, model_by_loops, tokens_by_regex


def test_tokenize_examples():
    assert tokenize("Alice hates Bob.") == ["alice", "hates", "bob"]
    assert tokenize("don't") == ["don", "t"]
    assert tokenize("") == []
    assert tokenize("__under_score__") == ["under", "score"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
@example("\u0130stanbul")  # İ lowers to "i" and a combining dot
@example("\u212a K\u212ag")  # the Kelvin sign lowers to ASCII "k"
@example("\uff21\uff42\uff43 \uff11")  # fullwidth letters and digit
@example("\u00bd cup, 1\u00bd")  # vulgar fraction one half
@example("\u0663\u0664 \u0660-\u0669")  # Arabic-Indic digits
@example("\U0001d7d8\U0001d7d9 \U00011066")  # non-BMP digits
@example("a\u00a0b")  # no-break space
@example("a_b A__B_")  # the underscore separates
@example("Tab\tline\nfeed\x1c\x1f\x7f\x00end")  # ASCII controls
def test_tokenize_matches_regex_oracle(text):
    assert tokenize(text) == tokens_by_regex(text)


@pytest.mark.parametrize("text", [None, b"ab", 5, ["a b"]], ids=["None", "bytes", "int", "list"])
@pytest.mark.parametrize("call", [tokenize, documents_from_text])
def test_text_that_is_not_a_str_is_an_argument_error(call, text):
    with pytest.raises(ArgumentError, match=f"^{re.escape(f'text is {text!r}, not a str')}$"):
        call(text)


def test_documents_split_on_blank_lines():
    docs = documents_from_text("Alice hates Bob.\n\nBob dreams.\n\n\n")
    assert docs == [["alice", "hates", "bob"], ["bob", "dreams"]]


def test_documents_hold_one_string_per_distinct_token():
    docs = documents_from_text("Bob hates Alice, alice hates BOB.\n\nBob dreams of bob.")
    tokens = [tok for doc in docs for tok in doc]
    assert tokens.count("bob") == 4
    assert len({id(tok) for tok in tokens}) == len(set(tokens))


def test_load_corpus_multiple_files(tmp_path):
    (tmp_path / "a.txt").write_text("one two\n\nthree")
    (tmp_path / "b.txt").write_text("four")
    (tmp_path / "c.txt").write_text("Two THREE")
    corpus = load_corpus([tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"])
    assert corpus == [["one", "two"], ["three"], ["four"], ["two", "three"]]
    # one string object per distinct token across all the files
    assert corpus[3][0] is corpus[0][1] and corpus[3][1] is corpus[1][0]


def test_load_corpus_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("caf\u00e9 au lait".encode("latin-1"))
    with pytest.raises(CorpusError, match="latin1.txt: not UTF-8 text at byte 3"):
        load_corpus([path])


def test_build_basis_examples():
    assert build_basis([["a", "b", "a"]], 1).words == ("a",)
    assert build_basis([["a", "b"], ["b", "c"]], 2).words == ("b", "a")
    with pytest.raises(CorpusError, match="3"):
        build_basis([["a", "b", "c"]], 5)


def test_build_basis_takes_a_generator_corpus():
    docs = [["a", "b", "a"], ["b", "c", "b", "b"]]
    assert build_basis((doc for doc in docs), 2) == build_basis(docs, 2) == BasisSpec(("b", "a"))


def test_build_model_takes_a_generator_corpus():
    # the corpus is read once: a generator gives the model the list gives
    docs = [["a", "b", "a"], ["b", "c"]]
    basis = BasisSpec(("a", "b"))
    got, want = build_model((doc for doc in docs), basis), build_model(docs, basis)
    assert list(got.vectors) == list(want.vectors) == list(got.counts) == ["a", "b", "c"]
    assert got.counts == want.counts == {"a": 2, "b": 2, "c": 1}
    for tok, vec in want.vectors.items():
        assert got.vectors[tok].tobytes() == vec.tobytes()


def test_build_basis_stop_words_and_window_default():
    basis = build_basis([["x", "x", "y", "z"]], 2, stop={"x"})
    assert basis.words == ("y", "z")
    assert basis.window == 2
    assert build_basis([["x", "y"]], 1, window=5) == BasisSpec(("x",), window=5)


@pytest.mark.parametrize("stop", ["the", b"the", Path("the"), 5], ids=["str", "bytes", "path", "int"])
def test_stop_words_are_a_collection_of_tokens(stop):
    # a str would be taken as its characters and leave "the" in the basis
    message = f"stop words is {stop!r}, not a sequence of tokens"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        build_basis([["the", "a", "the"]], 1, stop=stop)
    assert build_basis([["the", "a", "the"]], 1, stop=["the"]).words == ("a",)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(("a", "a"))
    with pytest.raises(ValueError):
        BasisSpec(("a",), window=0)
    # the same errors are package errors, so the CLI reports them as data errors
    with pytest.raises(ArgumentError, match="'a' repeats"):
        BasisSpec(("a", "b", "a"))
    with pytest.raises(ArgumentError, match="window must be >= 1, got 0"):
        BasisSpec(("a",), window=0)
    with pytest.raises(ArgumentError, match="basis size must be >= 1, got 0"):
        build_basis([["a"]], 0)
    assert issubclass(ArgumentError, GramflowError)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "2", None])
def test_basis_size_and_window_must_be_integers(bad):
    with pytest.raises(ArgumentError, match=f"window is {bad!r}, not an integer"):
        BasisSpec(("a",), window=bad)
    with pytest.raises(ArgumentError, match=f"basis size is {bad!r}, not an integer"):
        build_basis([["a", "b"]], bad)


def test_numpy_integer_basis_size_and_window():
    basis = BasisSpec(build_basis([["a", "b", "a"]], np.int64(1)).words, window=np.int32(3))
    assert basis == BasisSpec(("a",), window=3)
    assert type(basis.window) is int


def test_model_vector_examples():
    corpus = [["alice", "hates", "bob"]]
    basis = BasisSpec(("hates", "bob"), window=2)
    assert list(build_model(corpus, basis).vectors["alice"]) == [1.0, 1.0]

    assert list(build_model(corpus, BasisSpec(("alice",), window=2)).vectors["alice"]) == [0.0]

    far = [["alice", "x", "x", "x", "bob"]]
    assert list(build_model(far, BasisSpec(("bob",), window=2)).vectors["alice"]) == [0.0]


def test_entries_bounded_by_window():
    rng = random.Random(9)
    vocab = list("abc")
    for window in (1, 2, 3):
        corpus = [[rng.choice(vocab) for _ in range(rng.randrange(1, 20))] for _ in range(10)]
        basis = BasisSpec(tuple(vocab), window=window)
        model = build_model(corpus, basis)
        for vec in model.vectors.values():
            assert np.all(vec >= 0.0)
            assert np.all(vec <= 2 * window)


def test_document_permutation_invariance():
    rng = random.Random(11)
    vocab = list("abcde")
    corpus = [[rng.choice(vocab) for _ in range(rng.randrange(1, 9))] for _ in range(12)]
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    basis = BasisSpec(("a", "b", "c"))
    m1, m2 = build_model(corpus, basis), build_model(shuffled, basis)
    assert m1.counts == m2.counts
    assert set(m1.vectors) == set(m2.vectors)
    for word in m1.vectors:
        assert np.array_equal(m1.vectors[word], m2.vectors[word])


def test_concatenation_order_invariance():
    c1 = [["a", "b"], ["b", "c", "a"]]
    c2 = [["c", "c", "b"]]
    basis = BasisSpec(("a", "b", "c"))
    m12, m21 = build_model(c1 + c2, basis), build_model(c2 + c1, basis)
    for word in m12.vectors:
        assert np.array_equal(m12.vectors[word], m21.vectors[word])


def duplicate_with_twin(corpus, w1, w2):
    out = list(corpus)
    for doc in corpus:
        if w1 in doc:
            out.append([w2 if tok == w1 else tok for tok in doc])
    return out


def test_exact_synonym_construction():
    rng = random.Random(13)
    vocab = ["alice", "bob", "sees", "likes", "park"]
    corpus = [[rng.choice(vocab) for _ in range(rng.randrange(2, 8))] for _ in range(10)]
    assert any("alice" in doc for doc in corpus)
    twinned = duplicate_with_twin(corpus, "alice", "alys")
    basis = build_basis(twinned, 4)
    model = build_model(twinned, basis)
    assert np.array_equal(model.vectors["alice"], model.vectors["alys"])
    assert cosine(model.vectors["alice"], model.vectors["alys"]) == 1.0


def test_cosine_of_model_vectors():
    corpus = [["a", "x", "b"], ["a", "y", "b"]]
    vectors = build_model(corpus, BasisSpec(("a", "b"), window=1)).vectors
    # x and y sit in identical contexts
    assert cosine(vectors["x"], vectors["y"]) == 1.0
    assert cosine(vectors["x"], vectors["x"]) == 1.0
    # disjoint contexts are orthogonal
    disjoint = build_model([["a", "x"], ["b", "y"]], BasisSpec(("a", "b"), window=1)).vectors
    assert cosine(disjoint["x"], disjoint["y"]) == 0.0


def test_cosine_of_a_zero_model_vector_is_degenerate():
    vectors = build_model([["a", "b", "c", "far", "x"]], BasisSpec(("b",), window=1)).vectors
    # "far" never sits next to "b", so its vector is all zero
    with pytest.raises(DegenerateVectorError):
        cosine(vectors["a"], vectors["far"])


def test_model_file_round_trip_bitwise(tmp_path):
    rng = random.Random(17)
    vocab = list("pqrstu")
    corpus = [[rng.choice(vocab) for _ in range(rng.randrange(1, 10))] for _ in range(8)]
    basis = build_basis(corpus, 3)
    model = build_model(corpus, basis)
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.basis.words == model.basis.words
    assert back.counts == model.counts
    for word in model.vectors:
        assert np.array_equal(back.vectors[word], model.vectors[word])
    # writing the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.txt"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header\n")
    with pytest.raises(ParseError, match="#basis"):
        load_model(path)
    path.write_text("#basis a b\nword 1 0.5\n")
    with pytest.raises(ParseError, match="fields"):
        load_model(path)
    path.write_text("#basis a\nword one 0.5\n")
    with pytest.raises(ParseError, match="bad number"):
        load_model(path)


@pytest.mark.parametrize("text, message", [
    ("#basis a a\nword 1 0.5 0.5\n", r"bad\.txt:1: basis words must be distinct"),
    ("#basis a\nword 1 nan\n", r"bad\.txt:2: bad number: non-finite coordinate 'nan'"),
    ("#basis a b\n\nword 1 0.5 -inf\n", r"bad\.txt:3: bad number: non-finite coordinate '-inf'"),
    ("#basis a\nword 1 1e999\n", r"bad\.txt:2: bad number: non-finite coordinate '1e999'"),
    # an infinity among zeros, as in a mostly-zero row
    ("#basis a b c\nword 1 0.0 0.0 0.5\nother 1 0.0 inf 0.0\n",
     r"bad\.txt:3: bad number: non-finite coordinate 'inf'"),
    # finite coordinates whose sum overflows are accepted
    ("#basis a b\nword 1 1e308 1e308\nword 2 0.0 nan\n", r"bad\.txt:3: duplicate token"),
    ("#basis a\nword 1 0.5\nother 2 0.0\nword 3 0.25\n", r"bad\.txt:4: duplicate token 'word'"),
])
def test_model_file_hygiene(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_model(path)


def test_model_file_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xef\xbb\xbf#basis a b\nw 2 0.5 0.25\n")
    model = load_model(path)
    assert model.basis.words == ("a", "b") and model.counts == {"w": 2}
    assert model.vectors["w"].tolist() == [0.5, 0.25]


def test_model_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"#basis a\nw\xe9 1 0.5\n")
    with pytest.raises(ParseError, match="bad.txt: not UTF-8 text"):
        load_model(path)


@pytest.mark.parametrize("bad", [
    VectorSpaceModel(BasisSpec(("a", "b", "c", "d")), {"w": np.zeros(5)}, {"w": 1}),
    VectorSpaceModel(BasisSpec(("a", "b")), {"w": np.zeros((1, 2))}, {"w": 1}),
    VectorSpaceModel(BasisSpec(("a", "b")), {"w": np.array([0.5, np.nan])}, {"w": 1}),
    VectorSpaceModel(BasisSpec(("a",)), {"w": np.zeros(1), "v": np.array([-np.inf])}, {"w": 1, "v": 1}),
    VectorSpaceModel(BasisSpec(("a",)), {"two words": np.zeros(1)}, {"two words": 1}),
    VectorSpaceModel(BasisSpec(("a",)), {"": np.zeros(1)}, {"": 1}),
    VectorSpaceModel(BasisSpec(("a b",)), {"w": np.zeros(1)}, {"w": 1}),
    VectorSpaceModel(BasisSpec(("a",)), {"v": np.zeros(1), "w": np.zeros(1)}, {"v": 1}),
    VectorSpaceModel(BasisSpec(("a",)), {"w": np.zeros(1)}, {"w": 2.5}),
    VectorSpaceModel(BasisSpec(("a",)), {"w": np.zeros(1)}, {"w": True}),
    VectorSpaceModel(BasisSpec(("a",)), {"v": np.zeros(1), "w\udcff": np.zeros(1)},
                     {"v": 1, "w\udcff": 1}),
    VectorSpaceModel(BasisSpec(("a\udcff",)), {"w": np.zeros(1)}, {"w": 1}),
], ids=["too long", "2-d", "nan", "-inf", "spaced token", "empty token", "spaced basis word",
        "no count", "float count", "bool count", "unencodable token", "unencodable basis word"])
def test_save_model_rejects_what_load_model_would(tmp_path, bad):
    with pytest.raises(ArgumentError):
        save_model(bad, tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()


def test_save_model_writes_numpy_integer_counts(tmp_path):
    model = VectorSpaceModel(BasisSpec(("a",)), {"w": np.array([0.5])}, {"w": np.int64(3)})
    save_model(model, tmp_path / "m.txt")
    assert load_model(tmp_path / "m.txt").counts == {"w": 3}


def test_save_model_accepts_finite_coordinates_whose_squares_overflow(tmp_path):
    model = VectorSpaceModel(BasisSpec(("a", "b")), {"w": np.array([1e300, -1e300])}, {"w": 1})
    save_model(model, tmp_path / "m.txt")
    assert load_model(tmp_path / "m.txt").vectors["w"].tolist() == [1e300, -1e300]


def read_outcome(read, path):
    """``(basis words, vectors, counts)`` from a model reader, or its error."""
    try:
        return read(path)
    except ParseError as exc:
        return str(exc)


def assert_loads_like_lines(path):
    """``load_model`` reads ``path`` exactly as the per-line oracle does."""
    want = read_outcome(model_by_lines, path)
    model = read_outcome(load_model, path)
    if isinstance(want, str) or isinstance(model, str):
        assert model == want
        return model
    words, vectors, counts = want
    assert model.basis.words == words
    assert list(model.counts.items()) == list(counts.items())
    assert all(type(c) is int for c in model.counts.values())
    assert list(model.vectors) == list(vectors)
    for tok, vec in vectors.items():
        got = model.vectors[tok]
        assert got.dtype == vec.dtype and got.shape == vec.shape
        assert got.tobytes() == vec.tobytes()
    # every row is a view of its block's matrix, which holds exactly the block's rows
    bases = {id(vec.base): vec.base for vec in model.vectors.values()}
    assert all(vec.base is not None for vec in model.vectors.values())
    assert len(bases) <= -(-len(model.vectors) // distributional._BLOCK_LINES)
    assert sum(base.nbytes for base in bases.values()) == 8 * len(model.vectors) * len(words)
    return model


# (file text, regex of the error or None when the file loads)
MODEL_TEXTS = {
    "repr": ("#basis a b\nw 1 0.1 1e-05\nv 2 1.7976931348623157e+308 0.30000000000000004\n", None),
    "%.17g": ("#basis a b\nw 1 0.10000000000000001 2.2250738585072014e-308\n", None),
    "signed zeros": ("#basis a b c\nw 1 -0.0 0.0 -0\n", None),
    "subnormals": ("#basis a b\nw 1 5e-324 -2.225073858507201e-308\n", None),
    "overflow": ("#basis a\nw 1 0.5\nv 1 1e999\n", r"m\.txt:3: bad number: non-finite coordinate '1e999'"),
    "nan": ("#basis a b\nw 1 0.5 nan\n", r"m\.txt:2: bad number: non-finite coordinate 'nan'"),
    "underscores": ("#basis a b\nw 1_0 1_0 0.5\nv 2 0.25 0.5\n", None),
    "unicode digits": ("#basis a\nw ٣ ٣.٥\nv 1 １\n", None),
    "tabs": ("#basis\ta\tb\nw\t1\t0.5\t0.25\t\n", None),
    "double spaces": ("#basis  a  b\n  w  1  0.5  0.25  \n", None),
    "form feeds": ("#basis a b\nw\x0c1\x0c0.5\x0c0.25\n", None),
    "line separators": ("#basis a b\nw\u20281\u20280.5\u20280.25\u2028\n", None),
    "blank lines": ("#basis a\n\nw 1 0.5\n \t \n\nv 2 0.25\n\n", None),
    "CRLF": ("#basis a b\r\nw 1 0.5 0.25\r\n\r\nv 2 0.0 1.0\r\n", None),
    "CR": ("#basis a\rw 1 0.5\rv 2 0.25", None),
    "header only": ("#basis a b\n", None),
    "header only, no line break": ("#basis a b", None),
    "k=1": ("#basis a\nw 1 0.5\nv 2 -0.0\n", None),
    "k=0": ("#basis\nw 1\nv 2\n", None),
    "shortest lines": ("#basis a\n" + "\n".join(f"{c} 1 0" for c in "abcdefghijklmnopqrst"), None),
    "too many fields": ("#basis a\nw 1 0.5\nv 2 0.5 0.5\n", r"m\.txt:3: expected 3 fields, got 4"),
    "too few fields": ("#basis a b\nw 1 0.5 0.5\nv 2 0.5\n", r"m\.txt:3: expected 4 fields, got 3"),
    "one field": ("#basis a\nw\n", r"m\.txt:2: expected 3 fields, got 1"),
    "bad count": ("#basis a\nw 1 0.5\nv 2.0 0.5\n", r"m\.txt:3: bad number: invalid literal for int"),
    "bad coordinate": ("#basis a b\nw 1 0.5 0x1\n", r"m\.txt:2: bad number: could not convert string"),
    "bad before non-finite": ("#basis a b\nw 1 nan x\n", r"m\.txt:2: bad number: could not convert string to float: 'x'"),
    "duplicate": ("#basis a\nw 1 0.5\n\nw 2 0.5\n", r"m\.txt:4: duplicate token 'w'"),
}


@pytest.mark.parametrize("name", MODEL_TEXTS)
def test_model_file_inputs_load_like_the_line_oracle(tmp_path, name):
    text, error = MODEL_TEXTS[name]
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    got = assert_loads_like_lines(path)
    if error is None:
        assert not isinstance(got, str), got
    else:
        assert isinstance(got, str) and re.search(error, got), got


def test_model_values_numpy_rejects_but_float_accepts(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes("#basis a b\nw 1_0 1_0 0.5\nv ٣ ٣.٥ １\n".encode("utf-8"))
    model = load_model(path)
    assert model.counts == {"w": 10, "v": 3}
    assert model.vectors["w"].tolist() == [10.0, 0.5]
    assert model.vectors["v"].tolist() == [3.5, 1.0]


def long_model_lines(rows, k):
    rng = random.Random(rows * 31 + k)
    return [f"w{i} {i + 1} " + " ".join(repr(rng.choice([0.0, 0.5, rng.random()])) for _ in range(k))
            for i in range(rows)]


@pytest.mark.parametrize("k", [1, 3])
def test_model_file_longer_than_one_block(tmp_path, k):
    path = tmp_path / "m.txt"
    lines = long_model_lines(2 * distributional._BLOCK_LINES + 100, k)
    path.write_text("#basis " + " ".join(f"b{m}" for m in range(k)) + "\n" + "\n".join(lines) + "\n")
    model = assert_loads_like_lines(path)
    assert len(model.vectors) == len(lines)


@pytest.mark.parametrize("bad, message", [
    ("x 1 0.5 y 0.5", "bad number: could not convert string to float: 'y'"),
    ("x 1 0.5 nan 0.5", "bad number: non-finite coordinate 'nan'"),
    ("x 1 0.5 0.5", "expected 5 fields, got 4"),
    ("x 1 0.5 0.5 0.5 0.5", "expected 5 fields, got 6"),
    ("w7 1 0.5 0.5 0.5", "duplicate token 'w7'"),
    ("x one 0.5 0.5 0.5", "bad number: invalid literal for int() with base 10: 'one'"),
    ("x 1 0.5 1_0 0.5", None),
])
def test_model_file_fault_in_the_second_block(tmp_path, bad, message):
    path = tmp_path / "m.txt"
    lines = long_model_lines(2 * distributional._BLOCK_LINES, 3)
    middle = distributional._BLOCK_LINES * 3 // 2
    lines[middle] = bad
    path.write_text("#basis a b c\n" + "\n".join(lines) + "\n")
    got = assert_loads_like_lines(path)
    if message is None:
        assert got.vectors["x"].tolist() == [0.5, 10.0, 0.5]
    else:
        assert got == f"{path}:{middle + 2}: {message}"


@pytest.mark.parametrize("bad_line_first", [True, False])
def test_model_file_fault_and_non_utf8_are_reported_in_file_order(tmp_path, bad_line_first):
    # the undecodable byte sits well past the text decoded in the first read
    lines = long_model_lines(800, 3)
    lines[1 if bad_line_first else 700] = "x 1 0.5 0.5"
    lines[700 if bad_line_first else 1] = "y 1 0.5 0.5 \udcff"
    path = tmp_path / "m.txt"
    path.write_bytes(("#basis a b c\n" + "\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    got = assert_loads_like_lines(path)
    assert ("expected 5 fields" in got) == bad_line_first
    assert ("not UTF-8 text" in got) != bad_line_first


def test_model_file_non_utf8_after_valid_lines_is_reported(tmp_path):
    # every line the reader sees before the undecodable text is valid
    lines = long_model_lines(800, 3)
    lines[700] += " \udcff"
    path = tmp_path / "m.txt"
    path.write_bytes(("#basis a b c\n" + "\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert path.stat().st_size > 8192 * 2
    got = assert_loads_like_lines(path)
    assert got.startswith(f"{path}: not UTF-8 text")


def load_through_a_pipe(data):
    """``load_model`` of ``data`` written by a thread into a pipe read as ``/dev/fd/N``."""
    read_end, write_end = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load_model(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("rows", [3, 2 * distributional._BLOCK_LINES + 5])
def test_load_model_reads_a_pipe(tmp_path, rows):
    # the longer text is larger than a pipe holds, so it cannot be read back as a whole
    path = tmp_path / "m.txt"
    path.write_text("#basis a b c\n" + "\n".join(long_model_lines(rows, 3)) + "\n")
    assert rows < 10 or path.stat().st_size > 1 << 16
    want, got = load_model(path), load_through_a_pipe(path.read_bytes())
    assert got.basis == want.basis and got.counts == want.counts
    assert list(got.vectors) == list(want.vectors)
    assert all(got.vectors[tok].tobytes() == vec.tobytes() for tok, vec in want.vectors.items())


def test_blank_lines_cost_a_loaded_model_no_memory(tmp_path):
    # a matrix row per line break would take 2.4 GB for this 1.6 MB file
    path = tmp_path / "m.txt"
    path.write_text("#basis " + " ".join(f"b{m}" for m in range(300)) + "\n" + "\n" * 1_000_000
                    + "w 1" + " 0.5" * 300 + "\n")
    vec = load_model(path).vectors["w"]
    assert vec.tolist() == [0.5] * 300
    assert vec.base.nbytes <= 8 * path.stat().st_size


def test_loaded_vectors_are_rows_of_one_matrix(tmp_path):
    corpus = [["a", "b", "c", "a"], ["b", "d"]]
    save_model(build_model(corpus, BasisSpec(("a", "b"))), tmp_path / "m.txt")
    rows = list(load_model(tmp_path / "m.txt").vectors.values())
    base = rows[0].base
    assert isinstance(base, np.ndarray) and base.shape[1] == 2
    assert all(row.base is base for row in rows)


# ------------------------------------------------- oracle and property tests

WORDS = st.sampled_from(["a", "b", "c", "d", "e"])
# empty and one-token documents included; "x", "y" and "z" never occur
CORPORA = st.lists(st.lists(WORDS, max_size=9), max_size=8)
BASES = st.lists(st.sampled_from(["a", "b", "c", "x", "y", "z"]), unique=True, max_size=6)
WINDOWS = st.integers(1, 12)


def assert_matches_loops(model, corpus):
    vectors, counts = model_by_loops(corpus, model.basis.words, model.basis.window)
    assert list(model.vectors) == list(vectors)
    assert list(model.counts.items()) == list(counts.items())
    for tok, vec in vectors.items():
        got = model.vectors[tok]
        assert got.dtype == vec.dtype and got.shape == vec.shape
        assert got.tobytes() == vec.tobytes()


@settings(max_examples=200, deadline=None)
@given(CORPORA, BASES, WINDOWS)
@example([[], ["a"], ["b", "a", "b"], ["c"]], ["b", "a", "x"], 12)
@example([], ["a"], 1)
def test_build_model_matches_loop_oracle(corpus, words, window):
    assert_matches_loops(build_model(corpus, BasisSpec(tuple(words), window)), corpus)


@settings(max_examples=100, deadline=None)
@given(CORPORA, st.integers(1, 4), st.lists(WORDS, max_size=3), WINDOWS)
def test_build_model_with_stop_word_basis_matches_loop_oracle(corpus, k, stop, window):
    assume(len({tok for doc in corpus for tok in doc} - set(stop)) >= k)
    basis = BasisSpec(build_basis(corpus, k, stop=set(stop)).words, window)
    assert not set(basis.words) & set(stop)
    assert_matches_loops(build_model(corpus, basis), corpus)


def basis_by_loops(corpus, k, stop):
    """The k most frequent tokens not in ``stop``, ties in token order, by counting one at a time."""
    freq = {}
    for doc in corpus:
        for tok in doc:
            if tok not in stop:
                freq[tok] = freq.get(tok, 0) + 1
    ranked = sorted(freq, key=lambda tok: (-freq[tok], tok))
    return tuple(ranked[:k]) if len(ranked) >= k else None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "ab", "B", "é"]), max_size=9), max_size=8),
       st.integers(1, 8), st.lists(st.sampled_from(["a", "c", "B", "x"]), max_size=3))
@example([["b", "a", "b", "a", "c"]], 2, [])
def test_build_basis_matches_counting_loop(corpus, k, stop):
    want = basis_by_loops(corpus, k, set(stop))
    if want is None:
        with pytest.raises(CorpusError, match=f"need {k} distinct eligible tokens"):
            build_basis(corpus, k, stop=stop)
    else:
        assert build_basis(corpus, k, stop=stop) == BasisSpec(want)


@settings(max_examples=100, deadline=None)
@given(CORPORA, BASES, WINDOWS)
def test_save_load_save_is_byte_identical(tmp_path_factory, corpus, words, window):
    tmp = tmp_path_factory.mktemp("model")
    model = build_model(corpus, BasisSpec(tuple(words), window))
    save_model(model, tmp / "a.txt")
    back = load_model(tmp / "a.txt")
    save_model(back, tmp / "b.txt")
    assert (tmp / "a.txt").read_bytes() == (tmp / "b.txt").read_bytes()
    assert back.counts == model.counts
    for tok, vec in model.vectors.items():
        assert back.vectors[tok].tobytes() == vec.tobytes()


def write_by_repr(model, path):
    """The model file format written with one plain ``repr`` per coordinate."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#basis " + " ".join(model.basis.words) + "\n")
        for tok in sorted(model.vectors):
            row = [float(x) for x in model.vectors[tok]]
            fh.write(f"{tok} {model.counts[tok]} {' '.join(map(repr, row))}\n")


def random_model(k, rows):
    basis = BasisSpec(tuple(f"b{i}" for i in range(k)))
    vectors = {f"w{i}": np.array(row, dtype=float) for i, row in enumerate(rows)}
    return VectorSpaceModel(basis, vectors, {tok: i + 1 for i, tok in enumerate(vectors)})


# rows mostly of zeros are written through the memo, the others by plain repr;
# save_model rejects nan and infinities, which load_model would reject
COORDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(COORDS, min_size=k, max_size=k), max_size=6))))
def test_memo_formatter_writes_plain_repr(tmp_path_factory, k_rows):
    # signed zeros and subnormals included
    tmp = tmp_path_factory.mktemp("model")
    model = random_model(*k_rows)
    save_model(model, tmp / "memo.txt")
    write_by_repr(model, tmp / "repr.txt")
    assert (tmp / "memo.txt").read_bytes() == (tmp / "repr.txt").read_bytes()


# a mostly-zero row: the nonzero positions (under half of k, or exactly
# half), each a value from a small pool as a corpus row repeats its ratios
SPARSE_VALUES = st.sampled_from([0.5, 1.0, 1 / 3, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, 2.5])


@st.composite
def sparse_rows(draw, k):
    nonzero = draw(st.one_of(
        st.sets(st.integers(0, k - 1), max_size=(k - 1) // 2),
        st.sets(st.integers(0, k - 1), min_size=k // 2, max_size=k // 2),
        st.sampled_from([set(), {0}, {k - 1}, {0, k - 1}])))
    row = [0.0] * k
    for m in nonzero:
        row[m] = draw(st.one_of(SPARSE_VALUES, COORDS))
    return row


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(sparse_rows(k), min_size=1, max_size=6))))
@example((1, [[0.0], [-0.0], [5e-324]]))
@example((64, [[0.0] * 64, [1.0] + [0.0] * 63, [0.0] * 63 + [1.0], [0.0, 2.5] * 32, [2.5, 0.0] * 32]))
def test_memo_formatter_writes_zero_runs_as_plain_repr(tmp_path_factory, k_rows):
    # zero runs of every length, first and last coordinates nonzero or not,
    # all-zero rows, signed zeros, subnormals and rows at exactly half density
    tmp = tmp_path_factory.mktemp("model")
    model = random_model(*k_rows)
    save_model(model, tmp / "memo.txt")
    write_by_repr(model, tmp / "repr.txt")
    assert (tmp / "memo.txt").read_bytes() == (tmp / "repr.txt").read_bytes()


def test_memo_formatter_past_its_capacity(tmp_path):
    # mostly-zero rows with more distinct coordinates than the memo keeps
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((1000, 300)) * 10.0 ** rng.integers(-300, 300, (1000, 300))
    rows[rng.random(rows.shape) < 0.7] = 0.0
    rows[0, :3] = (0.0, -0.0, 5e-324)
    rows[-1, -2:] = (-0.0, 0.0)
    model = random_model(300, rows)
    save_model(model, tmp_path / "memo.txt")
    write_by_repr(model, tmp_path / "repr.txt")
    assert (tmp_path / "memo.txt").read_bytes() == (tmp_path / "repr.txt").read_bytes()
    back = load_model(tmp_path / "memo.txt")
    for tok, vec in model.vectors.items():
        assert back.vectors[tok].tobytes() == vec.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(sparse_rows(k), min_size=1, max_size=9))), st.sampled_from([1, 2, 3]))
def test_save_model_blocks_write_plain_repr(tmp_path_factory, k_rows, block_lines):
    # lines cut into blocks of one to three rows, so rows of every kind
    # start, end and fill a block
    tmp = tmp_path_factory.mktemp("model")
    model = random_model(*k_rows)
    with mock.patch.object(distributional, "_BLOCK_LINES", block_lines):
        save_model(model, tmp / "blocks.txt")
    write_by_repr(model, tmp / "repr.txt")
    assert (tmp / "blocks.txt").read_bytes() == (tmp / "repr.txt").read_bytes()


@pytest.mark.parametrize("k", [0, 1, 7])
def test_save_model_past_two_blocks(tmp_path, k):
    rng = np.random.default_rng(k)
    n = 2 * distributional._BLOCK_LINES + 37
    rows = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, (n, k))
    rows[rng.random(rows.shape) < 0.6] = 0.0
    if k:
        rows[1::5] = 0.0  # empty rows
        rows[2::5] = 0.0
        rows[2::5, 0] = 0.5  # nonzero only at the first column
        rows[3::5] = 0.0
        rows[3::5, -1] = 5e-324  # only at the last, a subnormal
        rows[4::7] = rng.random((len(rows[4::7]), k)) + 1.0  # dense
        rows[5::11, 0] = -0.0
        rows[6::13, -1] = -2.2250738585072014e-308
        rows[7::3] = -0.0  # signed zeros only
    model = random_model(k, rows)
    save_model(model, tmp_path / "blocks.txt")
    write_by_repr(model, tmp_path / "repr.txt")
    assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "repr.txt").read_bytes()
    back = load_model(tmp_path / "blocks.txt")
    assert back.counts == model.counts
    for tok, vec in model.vectors.items():
        assert back.vectors[tok].tobytes() == vec.tobytes()


# model file text: half the files are well-formed, the other half hold
# faults of every kind; values numpy and float treat differently are in both
FIELD_SEPS = st.sampled_from([" ", " ", " ", "\t", "  ", "\x0c", " ", " \t"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
GOOD_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
COORD_TEXTS = st.one_of(GOOD_FLOATS.map(repr), GOOD_FLOATS.map(lambda x: "%.17g" % x),
                        st.sampled_from(["0.0", "-0.0", "5e-324", "1_0", "٣", "+.5"]))
COUNT_TEXTS = st.one_of(st.integers(0, 10 ** 6).map(str), st.sampled_from(["1_0", "٣"]))
FAULTS = {
    "header": st.sampled_from(["#basisx", "basis", "# basis"]),
    "width": st.sampled_from([-1, 1]),
    "count": st.sampled_from(["1.0", "x", "-"]),
    "coordinate": st.sampled_from(["1e999", "-inf", "nan", "0x1", "x", "1e"]),
}


@st.composite
def model_files(draw):
    faulty = draw(st.booleans())

    def fault(kind):
        return faulty and draw(st.integers(0, 5)) == 0 and draw(FAULTS.get(kind, st.just(True)))

    k = draw(st.integers(0, 3))
    words = draw(st.lists(st.sampled_from("abcde"), min_size=k, max_size=k, unique=not fault("basis")))
    lines = [" ".join([fault("header") or "#basis", *words])]
    tokens = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        tokens.append(draw(st.sampled_from(tokens)) if tokens and fault("duplicate") else f"w{len(tokens)}")
        width = max(0, k + (fault("width") or 0))
        coords = draw(st.lists(COORD_TEXTS, min_size=width, max_size=width))
        if coords and fault("coordinate"):
            coords[draw(st.integers(0, len(coords) - 1))] = draw(FAULTS["coordinate"])
        fields = [tokens[-1], fault("count") or draw(COUNT_TEXTS), *coords]
        lines.append("".join(f + draw(FIELD_SEPS) for f in fields[:-1]) + fields[-1])
    data = "".join(line + draw(LINE_ENDS) for line in lines).encode("utf-8")
    if fault("utf-8"):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(model_files(), st.sampled_from([1, 2, 3, 1024]))
def test_load_model_matches_line_oracle(tmp_path_factory, data, block_lines):
    path = tmp_path_factory.mktemp("model") / "m.txt"
    path.write_bytes(data)
    with mock.patch.object(distributional, "_BLOCK_LINES", block_lines):
        got = assert_loads_like_lines(path)
    event("rejected" if isinstance(got, str) else "loaded")
