import contextlib
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import gramflow.cli as cli
import gramflow.demo as demo
from gramflow import SpaceAssignment, load_lexicon, load_model, meaning, parse_type, reduce
from gramflow.lexicon import LOGICAL_TYPE

DEMO_ARGS = ["--lexicon", demo.lexicon_path(), "--dims", "n:2,s:2"]


def run_cli(*args, timeout=None, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "gramflow", *args], capture_output=True, text=True,
        timeout=timeout, input=stdin,
    )


# ------------------------------------------------------------------- parse

def test_parse_grammatical_sentence():
    out = run_cli("parse", "Alice hates Bob", *DEMO_ARGS)
    assert out.returncode == 0
    assert "links (0,1) (3,4); through 2" in out.stdout
    assert "\\___/" in out.stdout


def test_parse_draws_deeply_nested_cups_quickly(tmp_path):
    (tmp_path / "v.tns").write_text("2\n1.0 0.0\n")
    (tmp_path / "lex.tsv").write_text("l\tn^l\ttensor:v.tns\nx\tn\ttensor:v.tns\n"
                                      "it\ts\ttensor:v.tns\n")
    start = time.monotonic()
    out = run_cli("parse", " ".join(["l"] * 24 + ["x"] * 24 + ["it"]),
                  "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "n:2,s:2", timeout=60)
    assert time.monotonic() - start < 5.0
    assert out.returncode == 0
    assert "(23,24)" in out.stdout and "(0,47)" in out.stdout
    assert sum(line.lstrip().startswith("\\") for line in out.stdout.splitlines()) == 24


def test_parse_rejects_ungrammatical():
    out = run_cli("parse", "Alice hates", *DEMO_ARGS)
    assert out.returncode == 1
    assert "no reduction to s" in out.stdout


def test_parse_unknown_word_is_a_data_error():
    out = run_cli("parse", "Alice xyzzy Bob", *DEMO_ARGS)
    assert out.returncode == 2
    assert "xyzzy" in out.stderr


def test_parse_json_payload():
    out = run_cli("--json", "parse", "Alice hates Bob", *DEMO_ARGS)
    payload = json.loads(out.stdout)
    assert payload["grammatical"] is True
    assert payload["links"] == [[0, 1], [3, 4]]
    assert payload["through"] == [2]
    assert payload["types"] == ["n", "n^r s n^l", "n"]


# ----------------------------------------------------------------- meaning

def test_meaning_demo_verb_slice():
    out = run_cli("--json", "meaning", "Alice hates Bob", *DEMO_ARGS)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["vector"] == [1.0, 0.0]


def test_meaning_choi_verb():
    out = run_cli("--json", "meaning", "Alice dreams", *DEMO_ARGS)
    payload = json.loads(out.stdout)
    # the stored map is [[1,2],[3,4]], alice = e0, so the meaning is row 0
    assert payload["vector"] == [1.0, 2.0]


def test_meaning_with_a_unit_type_word(tmp_path):
    shutil.copytree(os.path.dirname(demo.lexicon_path()), tmp_path / "demo")
    with open(tmp_path / "demo" / "lexicon.tsv", "a") as fh:
        fh.write("very\t\ttensor:two.tns\n")
    (tmp_path / "demo" / "two.tns").write_text("\n2.0\n")
    out = run_cli("meaning", "Alice very hates Bob",
                  "--lexicon", str(tmp_path / "demo" / "lexicon.tsv"), "--dims", "n:2,s:2")
    assert out.returncode == 0, out.stderr
    assert "[2, 0]" in out.stdout


def test_meaning_rejects_ungrammatical_without_vector():
    out = run_cli("meaning", "hates Alice hates", *DEMO_ARGS)
    assert out.returncode == 1
    assert "meaning:" not in out.stdout


def test_meaning_json_round_trips_bitwise():
    out = run_cli("--json", "meaning", "Alice does not like Bob", *DEMO_ARGS)
    payload = json.loads(out.stdout)
    space = SpaceAssignment({"n": 2, "s": 2})
    lex = load_lexicon(demo.lexicon_path(), space)
    bound = [lex.bind(w) for w in ["alice", "does", "not", "like", "bob"]]
    seq = parse_type("")
    for w in bound:
        seq = seq + w.type
    expected = meaning(bound, reduce(seq, parse_type("s")), space)
    assert [float(x) for x in expected] == payload["vector"]


# ----------------------------------------------------------------- compare

def test_compare_word_order():
    out = run_cli("--json", "compare", "Alice hates Bob", "Bob hates Alice", *DEMO_ARGS)
    assert out.returncode == 0
    assert json.loads(out.stdout)["cosine"] < 0.999


def test_compare_sentence_with_itself():
    out = run_cli("--json", "compare", "Alice likes Bob", "Alice likes Bob", *DEMO_ARGS)
    assert json.loads(out.stdout)["cosine"] == pytest.approx(1.0, abs=1e-12)


def test_compare_negation_flips_coordinates():
    out = run_cli("--json", "compare", "Alice does not like Bob", "Alice likes Bob", *DEMO_ARGS)
    value = json.loads(out.stdout)["cosine"]
    # swap . [0.9, 0.1] against [0.9, 0.1]
    expected = np.dot([0.1, 0.9], [0.9, 0.1]) / np.dot([0.9, 0.1], [0.9, 0.1])
    assert value == pytest.approx(expected, abs=1e-12)


def test_compare_zero_meaning_is_a_data_error(tmp_path):
    (tmp_path / "zero.tns").write_text("2 2\n0 0\n0 0\n")
    (tmp_path / "alice.tns").write_text("2\n1 0\n")
    (tmp_path / "lex.tsv").write_text(
        "alice\tn\ttensor:alice.tns\nrests\tn^r s\ttensor:zero.tns\n"
    )
    out = run_cli("compare", "alice rests", "alice rests",
                  "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "n:2,s:2")
    assert out.returncode == 2
    assert "zero" in out.stderr


@pytest.mark.parametrize("sub, sentences, message", [
    ("meaning", ["al runs"], "error: meaning vector overflowed: a coordinate is not finite"),
    ("compare", ["al runs", "al runs"], "error: cosine of a vector with a non-finite norm"),
])
def test_overflowing_meaning_is_a_data_error(tmp_path, sub, sentences, message):
    (tmp_path / "al.tns").write_text("2\n1e200 1e200\n")
    (tmp_path / "runs.tns").write_text("2 2\n1e200 1\n1e200 2\n")
    (tmp_path / "lex.tsv").write_text("al\tn\ttensor:al.tns\nruns\tn^r s\ttensor:runs.tns\n")
    out = run_cli("--json", sub, *sentences, "--lexicon", str(tmp_path / "lex.tsv"),
                  "--dims", "n:2,s:2")
    assert assert_one_line_error(out).startswith(message)
    assert out.stdout == ""


# ------------------------------------------------------------- space build

def test_space_build_writes_model(tmp_path):
    out_path = tmp_path / "model.txt"
    out = run_cli("space", "build", demo.corpus_path(), "-k", "4", "--out", str(out_path))
    assert out.returncode == 0
    assert "basis size: 4" in out.stdout
    model = load_model(out_path)
    assert model.basis.words == ("alice", "bob", "hates", "likes")
    assert all(len(v) == 4 for v in model.vectors.values())


@pytest.mark.parametrize("stop", ["The,A", "the, a", " THE  a "])
def test_space_build_stop_words_are_tokenized_like_the_corpus(tmp_path, stop):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The cat saw the dog.\n\nA cat and a dog.\n")
    out = run_cli("space", "build", str(corpus), "-k", "2", "--stop", stop,
                  "--out", str(tmp_path / "m.txt"))
    assert out.returncode == 0, out.stderr
    assert load_model(tmp_path / "m.txt").basis.words == ("cat", "dog")


def test_space_build_shortfall_and_missing_file(tmp_path):
    out = run_cli("space", "build", demo.corpus_path(), "-k", "40",
                  "--out", str(tmp_path / "m.txt"))
    assert out.returncode == 2
    out = run_cli("space", "build", str(tmp_path / "nothing.txt"), "-k", "1",
                  "--out", str(tmp_path / "m.txt"))
    assert out.returncode == 2


def test_space_build_empty_corpus(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    out = run_cli("space", "build", str(empty), "-k", "1", "--out", str(tmp_path / "m.txt"))
    assert out.returncode == 2
    assert "empty" in out.stderr


def test_space_build_huge_window_costs_no_more_than_the_documents(tmp_path):
    # the demo documents are shorter than 50 tokens, so both windows see the same pairs
    paths = [tmp_path / "huge.txt", tmp_path / "fifty.txt"]
    for window, path in zip(("1000000000", "50"), paths):
        out = run_cli("space", "build", demo.corpus_path(), "-k", "4", "--window", window,
                      "--out", str(path), timeout=60)
        assert out.returncode == 0, out.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def assert_one_line_error(out):
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_dims_digits_int_cannot_read_are_data_errors():
    # "²" is a digit to str.isdigit, but not a decimal int() can read
    out = run_cli("parse", "alice", "--lexicon", demo.lexicon_path(), "--dims", "n:²")
    assert "bad --dims entry 'n:²'" in assert_one_line_error(out)


def test_zero_dims_entry_reads_like_an_empty_basis_model(tmp_path, capsys):
    (tmp_path / "model.txt").write_text("#basis\n")
    errors = []
    for flags in (["--dims", "n:0,s:2"], ["--model", str(tmp_path / "model.txt"), "--dims", "s:2"]):
        assert cli.main(["parse", "alice", "--lexicon", demo.lexicon_path(), *flags]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: dimension for base 'n' must be >= 1, got 0\n"] * 2


def test_dims_longer_than_int_reads_are_data_errors(capsys):
    # int() refuses more than 4,300 digits by default, with a ValueError
    entry = "n:" + "1" * 5000
    assert cli.main(["parse", "alice", "--lexicon", demo.lexicon_path(), "--dims", entry]) == 2
    assert capsys.readouterr().err == f"error: bad --dims entry {entry!r}, expected base:dim with dim >= 1\n"


@pytest.mark.parametrize("flags, message", [
    (["-k", "0"], "basis size must be >= 1, got 0"),
    (["-k", "2", "--window", "0"], "window must be >= 1, got 0"),
])
def test_space_build_bad_numbers_are_data_errors(tmp_path, flags, message):
    out = run_cli("space", "build", demo.corpus_path(), *flags, "--out", str(tmp_path / "m.txt"))
    assert message in assert_one_line_error(out)
    assert not (tmp_path / "m.txt").exists()


def test_space_build_non_utf8_corpus_is_a_data_error(tmp_path):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("Alice hates Bob. Caf\u00e9.".encode("latin-1"))
    out = run_cli("space", "build", str(corpus), "-k", "1", "--out", str(tmp_path / "m.txt"))
    assert "latin1.txt: not UTF-8 text at byte 20" in assert_one_line_error(out)


@pytest.mark.parametrize("entry", ["does\tn^r s s^l n\tlogical:does",
                                   "not\tn^r s s^l n\tlogical:not:neg.tns"])
def test_logical_word_too_large_for_numpy_is_a_data_error(tmp_path, entry):
    # n = 10**10 gives 4e20 entries: numpy refuses the shape, nothing is allocated
    (tmp_path / "neg.tns").write_text("2 2\n0.0 1.0\n1.0 0.0\n")
    (tmp_path / "lex.tsv").write_text(entry + "\n")
    word = entry.split("\t")[0]
    out = run_cli("parse", word, "--lexicon", str(tmp_path / "lex.tsv"),
                  "--dims", "n:10000000000,s:2")
    line = assert_one_line_error(out)
    assert f"entry {word!r}:" in line and "400000000000000000000 entries" in line


@pytest.mark.parametrize("model, message", [
    ("#basis a\nalice 1 nan\nbob 1 0.5\n", "model.txt:2: bad number: non-finite coordinate 'nan'"),
    ("#basis a\nalice 1 0.5\nbob 1 0.5\nalice 2 0.5\n", "model.txt:4: duplicate token 'alice'"),
    ("#basis a a\nalice 1 0.5 0.5\nbob 1 0.5 0.5\n", "model.txt:1: basis words must be distinct"),
])
def test_bad_model_file_is_a_data_error(tmp_path, model, message):
    (tmp_path / "model.txt").write_text(model)
    (tmp_path / "lex.tsv").write_text("alice\tn\tvector\nbob\tn\tvector\n")
    out = run_cli("parse", "alice", "--lexicon", str(tmp_path / "lex.tsv"),
                  "--model", str(tmp_path / "model.txt"), "--dims", "s:2")
    assert message in assert_one_line_error(out)


@pytest.mark.parametrize("sub, sentences", [
    ("meaning", ["Alice hates Bob"]),
    ("compare", ["Alice hates Bob", "Bob hates Alice"]),
])
def test_non_finite_tensor_is_a_data_error(tmp_path, sub, sentences):
    shutil.copytree(os.path.dirname(demo.lexicon_path()), tmp_path / "demo")
    (tmp_path / "demo" / "alice.tns").write_text("2\nnan 0.0\n")
    out = run_cli(sub, *sentences, "--lexicon", str(tmp_path / "demo" / "lexicon.tsv"),
                  "--dims", "n:2,s:2")
    assert "alice.tns:2: non-finite tensor value 'nan'" in assert_one_line_error(out)


def test_non_utf8_lexicon_and_tensor_files_are_data_errors(tmp_path):
    (tmp_path / "lex.tsv").write_bytes("caf\u00e9\tn\tvector\n".encode("latin-1"))
    out = run_cli("parse", "alice", "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "n:2,s:2")
    assert "lex.tsv: not UTF-8 text" in assert_one_line_error(out)
    (tmp_path / "alice.tns").write_bytes("2\n1.0 0.0 # caf\u00e9\n".encode("latin-1"))
    (tmp_path / "lex.tsv").write_text("alice\tn\ttensor:alice.tns\n")
    out = run_cli("parse", "alice", "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "n:2,s:2")
    assert "alice.tns: not UTF-8 text" in assert_one_line_error(out)


@pytest.mark.parametrize("dims", [[], ["--dims", "s:2"]])
def test_empty_basis_model_is_a_data_error(tmp_path, dims):
    (tmp_path / "model.txt").write_text("#basis\n")
    out = run_cli("parse", "Alice hates Bob", "--lexicon", demo.lexicon_path(),
                  "--model", str(tmp_path / "model.txt"), *dims)
    assert "dimension for base 'n' must be >= 1, got 0" in assert_one_line_error(out)


def test_model_feeds_noun_dimension(tmp_path):
    model_path = tmp_path / "model.txt"
    run_cli("space", "build", demo.corpus_path(), "-k", "2", "--out", str(model_path))
    (tmp_path / "lex.tsv").write_text("alice\tn\tvector\nbob\tn\tvector\n")
    out = run_cli("--json", "parse", "alice", "--lexicon", str(tmp_path / "lex.tsv"),
                  "--model", str(model_path), "--dims", "s:2")
    assert out.returncode == 1  # a bare noun is not a sentence
    assert json.loads(out.stdout)["grammatical"] is False


def test_model_from_standard_input(tmp_path):
    model_path = tmp_path / "model.txt"
    run_cli("space", "build", demo.corpus_path(), "-k", "2", "--out", str(model_path))
    hates = os.path.join(os.path.dirname(demo.lexicon_path()), "hates.tns")
    (tmp_path / "lex.tsv").write_text(f"alice\tn\tvector\nbob\tn\tvector\nhates\tn^r s n^l\ttensor:{hates}\n")
    args = ["--json", "meaning", "alice hates bob", "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "s:2"]
    from_file = run_cli(*args, "--model", str(model_path))
    from_pipe = run_cli(*args, "--model", "/dev/stdin", stdin=model_path.read_text())
    assert from_file.returncode == 0, from_file.stderr
    assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (0, from_file.stdout, "")


# ------------------------------------------------------------------- snake

def test_demo_snake_passes():
    for d in ("1", "2", "64"):
        out = run_cli("demo", "snake", "-d", d)
        assert out.returncode == 0
        assert "PASS" in out.stdout


def test_demo_snake_dimension_bounds():
    assert run_cli("demo", "snake", "-d", "0").returncode == 2
    assert run_cli("demo", "snake", "-d", "65").returncode == 2


# ------------------------------------------------------------------- usage

SENTENCE_OPTIONS = "[-h] --lexicon LEXICON [--model MODEL] [--dims DIMS] [--json]"


@pytest.mark.parametrize("command, usage", [
    ([], "gramflow [-h] [--json] {space,parse,meaning,compare,demo} ..."),
    (["parse"], f"gramflow parse {SENTENCE_OPTIONS} sentence"),
    (["meaning"], f"gramflow meaning {SENTENCE_OPTIONS} sentence"),
    (["compare"], f"gramflow compare {SENTENCE_OPTIONS} sentence1 sentence2"),
    (["space", "build"],
     "gramflow space build [-h] -k BASIS_SIZE [--window WINDOW] [--stop STOP] --out OUT [--json] "
     "corpus [corpus ...]"),
    (["demo", "snake"], "gramflow demo snake [-h] [-d DIMENSION] [--json]"),
])
def test_each_command_declares_its_arguments_in_order(command, usage, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "500")  # one usage line, however wide the terminal
    with pytest.raises(SystemExit) as exit_:
        cli.main([*command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"usage: {usage}"


# ------------------------------------------------------------- determinism

def test_each_call_reads_its_files_again(tmp_path, capsys):
    # two calls in one process: nothing parsed by the first may serve the second
    (tmp_path / "it.tns").write_text("2\n1.0 0.0\n")
    (tmp_path / "lex.tsv").write_text("it\ts\ttensor:it.tns\n")
    argv = ["--json", "meaning", "it", "--lexicon", str(tmp_path / "lex.tsv"), "--dims", "s:2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["vector"] == [1.0, 0.0]
    (tmp_path / "it.tns").write_text("2\n0.25 -3.0\n")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["vector"] == [0.25, -3.0]


def test_in_process_calls_leave_no_cyclic_garbage(capsys):
    argv = ["--json", "parse", "Alice hates Bob", *DEMO_ARGS]
    assert cli.main(argv) == 0  # anything loaded on first use is loaded now
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    payloads = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(payloads) == 6 and all(p["links"] == [[0, 1], [3, 4]] for p in payloads)


def test_repeated_runs_are_identical():
    first = run_cli("--json", "meaning", "Alice does not like Bob", *DEMO_ARGS)
    second = run_cli("--json", "meaning", "Alice does not like Bob", *DEMO_ARGS)
    assert first.stdout == second.stdout


# ------------------------------------------------------------------- fuzz

FINITE = st.floats(-10, 10).map(repr)
ANY_NUMBER = FINITE | st.floats().map(repr) | st.sampled_from(
    ["0", "-0.0", "1e308", "-1e308", "nan", "inf", "1_0", "x", "٣", "1e-320"])


def numbers(number, count):
    """``count`` numbers drawn from ``number``, on two lines."""
    return st.lists(number, min_size=count, max_size=count).map(
        lambda xs: " ".join(xs[:2]) + "\n" + " ".join(xs[2:]))


def tensor(header, count, number=FINITE):
    return numbers(number, count).map(f"# c\n{header}\n{{}}\n".format)


# at n = s = 2 the tensor files fit these (type, source) pairs of each word
FUZZ_ENTRIES = {
    "a": [("n", "tensor:n.tns"), ("n", "vector")],
    "b": [("n^r s n^l", "tensor:tv.tns")],
    "c": [("n^r s", "choi:m.tns"), ("n^r s", "tensor:m.tns")],
    "d": [("n", "vector"), ("n", "tensor:n.tns")],
    "not": [(LOGICAL_TYPE, "logical:not:m.tns"), (LOGICAL_TYPE, "logical:does")],
}
FUZZ_WORDS = sorted(FUZZ_ENTRIES)
# a bad type, a source of the wrong shape or kind, a logical type with another
# wiring, a repeated word, a bad field count
FAULT_LINE = st.tuples(st.sampled_from(FUZZ_WORDS + ["e"]),
                       st.sampled_from(["n", "s", "n^r s n^l", "", "n^r n s^l s", "n?", "p"]),
                       st.sampled_from(["vector", "tensor:tv.tns", "tensor:none.tns", "logical:does",
                                        "logical:not:tv.tns", "mystery:x"])).map("\t".join) \
    | st.sampled_from(["a\tn", "a\tn\tvector\tx", "# c", ""])


@st.composite
def lexicon_text(draw, faults=0):
    lines = ["\t".join((w, *draw(st.sampled_from(FUZZ_ENTRIES[w])))) for w in FUZZ_WORDS]
    for _ in range(faults):
        lines.insert(draw(st.integers(0, len(lines))), draw(FAULT_LINE))
    return "\n".join(lines) + "\n"


def model_text(basis=st.just("a b"), count=st.just("1"), number=FINITE):
    lines = st.lists(st.tuples(count, numbers(number, 2)).map(" ".join),
                     min_size=len(FUZZ_WORDS), max_size=len(FUZZ_WORDS))
    return st.tuples(basis, lines).map(lambda m: f"#basis {m[0]}\n" + "".join(
        f"{w} {line.replace(chr(10), ' ')}\n" for w, line in zip(FUZZ_WORDS, m[1])))


GRAMMATICAL = st.sampled_from(["a c", "d b a", "a not c", "a not b d", "d not not c"])
GOOD_FILES = {"lex.tsv": lexicon_text(), "n.tns": tensor("2", 2), "m.tns": tensor("2 2", 4),
              "tv.tns": tensor("2 2 2", 8), "model.txt": model_text()}
# what may replace each part of a case that runs: arbitrary text and bytes for every
# file, and for each part some faults more likely to pass the first checks
ARBITRARY = st.text(max_size=12) | st.binary(max_size=12)
FAULTS = {
    "lex.tsv": lexicon_text(1) | lexicon_text(2) | ARBITRARY,
    "n.tns": tensor("2", 2, ANY_NUMBER) | tensor("2", 3) | tensor("-1", 0) | ARBITRARY,
    "m.tns": tensor("2 2", 4, ANY_NUMBER) | tensor("2", 2) | ARBITRARY,
    "tv.tns": tensor("2 2 2", 8, ANY_NUMBER) | tensor("2 2 2 2", 16) | ARBITRARY,
    "model.txt": model_text(number=ANY_NUMBER) | model_text(count=st.sampled_from(["0", "x", "-1"]))
    | model_text(basis=st.sampled_from(["a", "a a", "", "a b c"])) | st.none() | ARBITRARY,
    # no decimal digits in free text: a dimension under the logical-word size cap
    # but far above 8 would build a logical word of up to 80 MB
    "dims": st.none() | st.lists(st.sampled_from(
        ["n:1", "n:2", "s:1", "s:2", "s:3", "n:0", "n:10000000000", "n:57,s:57", "n:100,s:100",
         "x:2", "n", ":2", "n:²"])
        | st.text(st.characters(blacklist_categories=["Nd"]), max_size=4), max_size=3).map(",".join),
    "sentence": st.lists(st.sampled_from(FUZZ_WORDS + ["e", "?"]), max_size=5).map(" ".join),
}


@st.composite
def cli_case(draw):
    """Files, ``--dims`` and sentences of a call that runs, with up to two parts replaced."""
    case = {name: draw(files) for name, files in GOOD_FILES.items()}
    case |= {"dims": "n:2,s:2", "sentence": draw(GRAMMATICAL), "sentence2": draw(GRAMMATICAL)}
    for part in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=2)):
        case[part] = draw(FAULTS[part])
    return case


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["parse", "meaning", "compare"]), case=cli_case(), as_json=st.booleans())
def test_any_files_and_dims_give_an_exit_code_and_no_traceback(fuzz_dir, command, case, as_json):
    for name in GOOD_FILES:
        data = case[name] or ""
        (fuzz_dir / name).write_bytes(data.encode() if isinstance(data, str) else data)
    sentences = [case["sentence"], case["sentence2"]][:1 + (command == "compare")]
    argv = ["--json"] * as_json + [command, *sentences, "--lexicon", str(fuzz_dir / "lex.tsv")]
    if case["model.txt"] is not None:
        argv.append(f"--model={fuzz_dir / 'model.txt'}")
    if case["dims"] is not None:
        argv.append(f"--dims={case['dims']}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert err.getvalue() == ""
    if code == 0 and as_json and command != "parse":
        payload = json.loads(out.getvalue())
        assert all(map(math.isfinite, payload.get("vector", [payload.get("cosine")])))
    if code == 0 and not as_json:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


# argv itself: a call that runs, with each of its values replaced by a bad one 1 time in
# 4 and each of its parts dropped 1 time in 8, in any order, and, 1 time in 3, one to
# three more parts: a command word, an option with its value, a file, a number or text.
# Two --dims values are over the logical-word size cap, and none under it exceeds 8
# (such a word may still take 80 MB). --out only names paths under the test's
# directory, and no text starts with "-", so no abbreviation of --out can reach
# another path.
ARGV_TEXT = st.text(st.characters(blacklist_categories=["Nd", "Cs"], blacklist_characters="\x00"),
                    max_size=8).filter(lambda t: not t.startswith("-"))
ARGV_NUMBERS = st.sampled_from(["0", "-1", "-3", "", "1" * 30, "-" + "9" * 20, "2.5", "1e3"]) | ARGV_TEXT
ARGV_DIMS = st.sampled_from(["n:8,s:8", "n:57,s:57", "n:100,s:100", "s:1", "n:0,s:2", "s:0", "n", ":2",
                             "x:2", "n:²", "n:-2", ""]) | ARGV_TEXT
ARGV_SENTENCES = ["Alice hates Bob", "bob hates alice", "Alice does not like Bob", "alice", "hates Bob"]
# the positional values and the options of each command
ARGV_COMMANDS = {
    ("parse",): (1, ["--lexicon", "--model", "--dims"]),
    ("meaning",): (1, ["--lexicon", "--model", "--dims"]),
    ("compare",): (2, ["--lexicon", "--model", "--dims"]),
    ("space", "build"): (1, ["-k", "--window", "--stop", "--out"]),
    ("demo", "snake"): (0, ["-d"]),
}
ARGV_WORDS = ["parse", "space", "build", "demo", "snake", "xyzzy", "--json", "--help", "--model", "-k"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths a call may read, and paths ``--out`` may write."""
    base = tmp_path_factory.mktemp("argv")
    assert cli.main(["space", "build", demo.corpus_path(), "-k", "2", "--out", str(base / "model.txt")]) == 0
    hates = os.path.join(demo.directory(), "hates.tns")
    (base / "lex.tsv").write_text(f"alice\tn\tvector\nbob\tn\tvector\nhates\tn^r s n^l\ttensor:{hates}\n")
    (base / "latin1.txt").write_bytes("café au lait\n".encode("latin-1"))
    return {name: str(base / name) for name in ["model.txt", "lex.tsv", "latin1.txt", "out.txt"]} | {
        "dir": str(base), "missing": str(base / "missing" / "out.txt"), "hates": hates}


@st.composite
def argv_case(draw, files):
    bad_file = st.sampled_from([demo.lexicon_path(), demo.corpus_path(), *files.values()]) | ARGV_TEXT
    numbers = st.sampled_from(["1", "2", "3"]), ARGV_NUMBERS
    values = {  # option: (good values, bad values)
        "--lexicon": (st.sampled_from([demo.lexicon_path(), files["lex.tsv"]]), bad_file),
        "--model": (st.just(files["model.txt"]), bad_file),
        "--dims": (st.sampled_from(["n:2,s:2", "s:2", "s:2,n:2"]), ARGV_DIMS),
        "--stop": (st.sampled_from(["alice", "the,a", ""]), ARGV_TEXT),
        "-k": numbers, "--basis-size": numbers, "-d": numbers, "--dimension": numbers,
        "--window": (st.sampled_from(["1", "2", "1" + "0" * 30]), ARGV_NUMBERS),
        "--out": (st.just(files["out.txt"]), st.sampled_from([files["dir"], files["missing"]])),
        "sentence": (st.sampled_from(ARGV_SENTENCES), ARGV_TEXT),
        "corpus": (st.just(demo.corpus_path()), bad_file),
    }

    def value(name):
        good, bad = values[name]
        return draw(good if draw(st.sampled_from([True, True, True, False])) else bad)

    command = draw(st.sampled_from(sorted(ARGV_COMMANDS)))
    count, options = ARGV_COMMANDS[command]
    positional = "corpus" if command == ("space", "build") else "sentence"
    parts = [[value(positional)] for _ in range(count)] + [[option, value(option)] for option in options]
    parts = [part for part in parts if draw(st.sampled_from([True] * 7 + [False]))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2, 3]))):
        noise = draw(st.sampled_from(["word", "value", "option"]))
        option = draw(st.sampled_from(sorted(values)))
        parts.insert(draw(st.integers(0, len(parts))), {
            "word": [draw(st.sampled_from(ARGV_WORDS))], "value": [value(option)],
            "option": [option, value(option)] if option.startswith("-") else [value(option)]}[noise])
    # an option and its value as one "--option=value" token
    parts = [[f"{part[0]}={part[1]}"] if len(part) == 2 and part[0].startswith("--") and draw(st.booleans())
             else part for part in draw(st.permutations(parts))]
    argv = [*command, *(token for part in parts for token in part)]
    json_at = draw(st.sampled_from([None, 0, len(command), len(argv)]))
    return argv if json_at is None else argv[:json_at] + ["--json"] + argv[json_at:]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_gives_an_exit_code_and_no_traceback(argv_files, data):
    argv = data.draw(argv_case(argv_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            event(f"argparse exit {exc.code}")
            assert exc.code in (0, 2)
            return
    event(f"{argv[0] if argv[0] != '--json' else argv[1]} exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert err.getvalue() == ""
