import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gramflow
from gramflow import (ArgumentError, BasisSpec, SpaceAssignment, VectorSpaceModel, build_basis, build_model,
                      cup, enumerate_reductions, is_separable, load_lexicon, load_model, make_logical_does,
                      make_logical_not, meaning_vector, parse_type, read_tensor, save_model, shape_of,
                      similarity, snake_check, write_tensor)
from gramflow.distributional import load_corpus
from gramflow.semantics import contraction_plan

NUMPY_MODULES = ["numpy", "gramflow.semantics", "gramflow.tensors", "gramflow.lexicon",
                 "gramflow.distributional"]
# the grammar layer loads none of these, nor dataclasses and the inspect module it imports
GRAMMAR_ONLY_UNLOADED = NUMPY_MODULES + ["dataclasses", "inspect"]

GRAMMAR_ONLY = f"""
import json, sys
import gramflow
seq = gramflow.parse_type("n") + gramflow.parse_type("n^r s n^l") + gramflow.parse_type("n")
target = gramflow.parse_type("s")
diagram = gramflow.reduce(seq, target)
assert diagram is not None and gramflow.is_sentence(seq)
assert gramflow.enumerate_reductions(seq, target, 2) == [diagram]
gramflow.validate_diagram(seq, diagram, target)
assert gramflow.ascii_diagram(seq, diagram)
print(json.dumps([name for name in {GRAMMAR_ONLY_UNLOADED!r} if name in sys.modules]))
assert gramflow.semantics.meaning is gramflow.meaning
"""


def test_readme_library_example_does_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert str(names["diagram"]) == "links (0,1) (3,4); through 2"
    assert np.array_equal(names["vec"], names["hates"].tensor[0, :, 1])


def test_grammar_layer_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", GRAMMAR_ONLY], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(proc.stdout) == []


def test_isolated_import_loads_only_the_grammar_layer():
    # no site hook or environment preloads anything (-I -S); -I ignores PYTHONDONTWRITEBYTECODE,
    # so -B keeps the import from writing __pycache__ into the source tree
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import gramflow; print(*sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(gramflow.__file__))
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    # operator and its C half serve errors' integer check
    assert proc.stdout.split() == ["_operator", "gramflow", "gramflow.errors", "gramflow.pregroup",
                                   "operator"]


def test_every_public_name_is_its_submodules_object():
    for name in gramflow.__all__:
        value = getattr(gramflow, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
    namespace = {}
    exec("from gramflow import *", namespace)
    assert set(gramflow.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(gramflow.__all__) <= set(dir(gramflow))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gramflow.no_such_name
    with pytest.raises(ImportError):
        from gramflow import no_such_name  # noqa: F401


# the package's public names: a change here is a change of its API
PUBLIC_NAMES = {
    "ArgumentError", "CorpusError", "DegenerateVectorError", "DiagramError", "GramflowError",
    "ParseError", "ShapeError", "SizeCapError", "SpaceError", "UnknownWordError",
    "PregroupType", "ReductionDiagram", "SimpleType", "ascii_diagram", "contracts",
    "enumerate_reductions", "is_sentence", "left_adjoint", "parse_type", "reduce",
    "right_adjoint", "validate_diagram",
    "BasisSpec", "VectorSpaceModel", "build_basis", "build_model", "load_model",
    "meaning_vector", "save_model", "similarity", "tokenize",
    "Lexicon", "load_lexicon", "make_logical_does", "make_logical_not",
    "WordMeaning", "choi_embed", "cosine", "is_separable", "meaning", "meaning_naive",
    "snake_check",
    "SpaceAssignment", "cup", "kron", "read_tensor", "shape_of", "write_tensor",
}


def test_public_names_are_the_grammar_lists_and_the_lazy_names():
    errors, pregroup = gramflow.errors, gramflow.pregroup
    assert len(gramflow.__all__) == len(set(gramflow.__all__))
    assert set(gramflow.__all__) == PUBLIC_NAMES
    assert gramflow.__all__[:len(errors.__all__) + len(pregroup.__all__)] == [
        *errors.__all__, *pregroup.__all__]
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert set(errors.__all__) == classes
    # the integer check is shared by the layers, not offered to users
    assert "positive_int" not in dir(gramflow)
    with pytest.raises(AttributeError):
        gramflow.positive_int


SEQ = parse_type("n n^r")
# every argument checked by errors.positive_int: (what its message calls it, a call)
INTEGER_SITES = {
    "build_basis": ("basis size", lambda v: build_basis([["a", "b"]], v)),
    "BasisSpec": ("window", lambda v: BasisSpec(("a",), window=v)),
    "SpaceAssignment": ("dimension for base 'n'", lambda v: SpaceAssignment({"n": v})),
    "enumerate_reductions": ("limit", lambda v: enumerate_reductions(SEQ, SEQ[:0], v)),
    "cup": ("dimension", cup),
    "snake_check": ("dimension", snake_check),
    "is_separable": ("split_after", lambda v: is_separable(np.ones((2, 2)), v)),
}


@pytest.mark.parametrize("bad", [2.5, True, None, "3", 0])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_argument_is_checked_alike(site, bad):
    what, call = INTEGER_SITES[site]
    message = f"{what} must be >= 1, got 0" if bad == 0 else f"{what} is {bad!r}, not an integer"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_argument_takes_a_numpy_integer(site):
    INTEGER_SITES[site][1](np.int64(1))


SPACE = SpaceAssignment({"n": 2, "s": 2})
MODEL = VectorSpaceModel(BasisSpec(("a",)), {"a": np.ones(1)}, {"a": 1})
# an argument of the wrong class, or a str where a sequence is expected: (call, message)
ARGUMENT_SITES = {
    "load_corpus str": (lambda: load_corpus("aaa"), "corpus paths is 'aaa', not a sequence of paths"),
    "build_basis str": (lambda: build_basis("hello world", 3),
                        "corpus is 'hello world', not a sequence of documents"),
    # a document is a sequence of tokens: iterating a str one would split it into characters
    "build_basis str document": (lambda: build_basis([["a"], "hello world"], 1),
                                 "corpus document is 'hello world', not a sequence of tokens"),
    "build_basis bytes document, generator corpus": (
        lambda: build_basis((doc for doc in [["a"], b"ab"]), 1),
        "corpus document is b'ab', not a sequence of tokens"),
    "build_model str document": (lambda: build_model(["hello world"], BasisSpec(("a",))),
                                 "corpus document is 'hello world', not a sequence of tokens"),
    "meaning_vector str document": (lambda: meaning_vector([["a"], "a b"], "a", BasisSpec(("a",))),
                                    "corpus document is 'a b', not a sequence of tokens"),
    "BasisSpec str": (lambda: BasisSpec("the"), "basis words is 'the', not a sequence of words"),
    "shape_of": (lambda: shape_of(SEQ, {"n": 2}), "space is {'n': 2}, not a SpaceAssignment"),
    "load_lexicon space": (lambda: load_lexicon("lexicon.tsv", {"n": 2}),
                           "space is {'n': 2}, not a SpaceAssignment"),
    # refused before the file, which does not exist, is read
    "load_lexicon model": (lambda: load_lexicon("lexicon.tsv", SPACE, {"a": 1}),
                           "model is {'a': 1}, not a VectorSpaceModel"),
    # refused before the plan cache hashes the argument
    "contraction_plan space": (lambda: contraction_plan((SEQ,), gramflow.reduce(SEQ, SEQ[:0]), {"n": 2}),
                               "space is {'n': 2}, not a SpaceAssignment"),
    "contraction_plan diagram": (lambda: contraction_plan((SEQ,), [(0, 1)], SPACE),
                                 "diagram is [(0, 1)], not a ReductionDiagram"),
    "contraction_plan list of type texts": (
        lambda: contraction_plan(["n", "n^r s"], gramflow.reduce(SEQ, SEQ[:0]), SPACE),
        "word type is 'n', not a PregroupType"),
    "contraction_plan tuple of type texts": (
        lambda: contraction_plan(("n", "n^r s"), gramflow.reduce(SEQ, SEQ[:0]), SPACE),
        "word type is 'n', not a PregroupType"),
    "contraction_plan types not iterable": (lambda: contraction_plan(5, gramflow.reduce(SEQ, SEQ[:0]), SPACE),
                                            "word types is 5, not an iterable"),
    "make_logical_does": (lambda: make_logical_does({"n": 2}), "space is {'n': 2}, not a SpaceAssignment"),
    "make_logical_not": (lambda: make_logical_not({"n": 2}, np.eye(2)),
                         "space is {'n': 2}, not a SpaceAssignment"),
    "SpaceAssignment": (lambda: SpaceAssignment(None), "space dimensions are None, not a mapping"),
    "build_model": (lambda: build_model([["a"]], ("a",)), "basis is ('a',), not a BasisSpec"),
    "meaning_vector": (lambda: meaning_vector([["a"]], "a", ("a",)), "basis is ('a',), not a BasisSpec"),
    "similarity": (lambda: similarity({}, "a", "a"), "model is {}, not a VectorSpaceModel"),
    "save_model model": (lambda: save_model({}, "model.txt"), "model is {}, not a VectorSpaceModel"),
    # open() takes an integer as a file descriptor: 1 would close standard output, 0 read standard input
    "read_tensor fd": (lambda: read_tensor(1), "path is 1, not a str, bytes or os.PathLike"),
    "read_tensor stdin": (lambda: read_tensor(0), "path is 0, not a str, bytes or os.PathLike"),
    "write_tensor fd": (lambda: write_tensor(np.ones(2), 1), "path is 1, not a str, bytes or os.PathLike"),
    "load_lexicon fd": (lambda: load_lexicon(0, SPACE), "path is 0, not a str, bytes or os.PathLike"),
    "load_model fd": (lambda: load_model(0), "path is 0, not a str, bytes or os.PathLike"),
    "save_model fd": (lambda: save_model(MODEL, 1), "path is 1, not a str, bytes or os.PathLike"),
    "load_corpus fd": (lambda: load_corpus([0]), "path is 0, not a str, bytes or os.PathLike"),
    "load_corpus path": (lambda: load_corpus(Path("a")),
                         f"corpus paths is {Path('a')!r}, not a sequence of paths"),
}


@pytest.mark.parametrize("site", ARGUMENT_SITES)
def test_wrong_class_arguments_are_argument_errors(site, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a call that got past its check would touch only tmp_path
    call, message = ARGUMENT_SITES[site]
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()
    assert os.listdir(tmp_path) == []
