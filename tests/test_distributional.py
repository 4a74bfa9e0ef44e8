import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gramflow import (
    ArgumentError,
    BasisSpec,
    CorpusError,
    DegenerateVectorError,
    GramflowError,
    ParseError,
    UnknownWordError,
    VectorSpaceModel,
    build_basis,
    build_model,
    load_model,
    meaning_vector,
    save_model,
    similarity,
    tokenize,
)
from gramflow.distributional import documents_from_text, load_corpus
from oracles import model_by_loops


def test_tokenize_examples():
    assert tokenize("Alice hates Bob.") == ["alice", "hates", "bob"]
    assert tokenize("don't") == ["don", "t"]
    assert tokenize("") == []
    assert tokenize("__under_score__") == ["under", "score"]


def test_documents_split_on_blank_lines():
    docs = documents_from_text("Alice hates Bob.\n\nBob dreams.\n\n\n")
    assert docs == [["alice", "hates", "bob"], ["bob", "dreams"]]


def test_load_corpus_multiple_files(tmp_path):
    (tmp_path / "a.txt").write_text("one two\n\nthree")
    (tmp_path / "b.txt").write_text("four")
    corpus = load_corpus([tmp_path / "a.txt", tmp_path / "b.txt"])
    assert corpus == [["one", "two"], ["three"], ["four"]]


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


def test_build_basis_stop_words_and_window_default():
    basis = build_basis([["x", "x", "y", "z"]], 2, stop={"x"})
    assert basis.words == ("y", "z")
    assert basis.window == 2


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


def test_meaning_vector_examples():
    corpus = [["alice", "hates", "bob"]]
    basis = BasisSpec(("hates", "bob"), window=2)
    assert list(meaning_vector(corpus, "alice", basis)) == [1.0, 1.0]

    assert list(meaning_vector(corpus, "alice", BasisSpec(("alice",), window=2))) == [0.0]

    far = [["alice", "x", "x", "x", "bob"]]
    assert list(meaning_vector(far, "alice", BasisSpec(("bob",), window=2))) == [0.0]


def test_meaning_vector_unknown_word():
    with pytest.raises(UnknownWordError, match="'carol'"):
        meaning_vector([["alice"]], "carol", BasisSpec(("alice",)))


def test_meaning_vector_agrees_with_bulk_model():
    rng = random.Random(5)
    vocab = list("abcdefg")
    corpus = [[rng.choice(vocab) for _ in range(rng.randrange(1, 12))] for _ in range(15)]
    basis = build_basis(corpus, 4)
    model = build_model(corpus, basis)
    for word in model.vectors:
        assert np.array_equal(model.vectors[word], meaning_vector(corpus, word, basis))


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
    assert similarity(model, "alice", "alys") == 1.0


def test_similarity_examples():
    corpus = [["a", "x", "b"], ["a", "y", "b"]]
    model = build_model(corpus, BasisSpec(("a", "b"), window=1))
    # x and y sit in identical contexts
    assert similarity(model, "x", "y") == pytest.approx(1.0, abs=1e-12)
    assert similarity(model, "x", "x") == 1.0
    # disjoint contexts are orthogonal
    disjoint = build_model([["a", "x"], ["b", "y"]], BasisSpec(("a", "b"), window=1))
    assert similarity(disjoint, "x", "y") == 0.0


def test_similarity_error_cases():
    model = build_model([["a", "b", "c", "far", "x"]], BasisSpec(("b",), window=1))
    with pytest.raises(UnknownWordError):
        similarity(model, "a", "zzz")
    # "far" never sits next to "b", so its vector is all zero
    with pytest.raises(DegenerateVectorError):
        similarity(model, "a", "far")


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


def test_model_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"#basis a\nw\xe9 1 0.5\n")
    with pytest.raises(ParseError, match="bad.txt: not UTF-8 text"):
        load_model(path)


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


@settings(max_examples=100, deadline=None)
@given(CORPORA, BASES, WINDOWS, WORDS)
def test_meaning_vector_matches_loop_oracle(corpus, words, window, word):
    basis = BasisSpec(tuple(words), window)
    vectors, _ = model_by_loops(corpus, basis.words, window)
    if word not in vectors:
        with pytest.raises(UnknownWordError):
            meaning_vector(corpus, word, basis)
    else:
        assert meaning_vector(corpus, word, basis).tobytes() == vectors[word].tobytes()


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


# rows mostly of zeros are written through the memo, the others by plain repr
COORDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(COORDS, min_size=k, max_size=k), max_size=6))))
def test_memo_formatter_writes_plain_repr(tmp_path_factory, k_rows):
    # signed zeros, subnormals, nan and inf all included
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
