import importlib
import json
import subprocess
import sys

import pytest

import gramflow

NUMPY_MODULES = ["numpy", "gramflow.semantics", "gramflow.tensors", "gramflow.lexicon",
                 "gramflow.distributional"]

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
print(json.dumps([name for name in {NUMPY_MODULES!r} if name in sys.modules]))
assert gramflow.semantics.meaning is gramflow.meaning
"""


def test_grammar_layer_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", GRAMMAR_ONLY], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(proc.stdout) == []


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
