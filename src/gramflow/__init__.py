"""Pregroup grammar checking and tensor-contraction sentence semantics.

Verify that a sentence is grammatical by reducing its pregroup types,
represent the reduction as a planar cup diagram, and evaluate that diagram
as a tensor contraction over word meaning tensors to obtain a sentence
meaning vector.

Importing the package loads only the grammar layer (``errors`` and
``pregroup``), which never imports numpy.  The names of the numpy-backed
layers (``semantics``, ``tensors``, ``lexicon``, ``distributional``) load
their module on first access and are then cached here.
"""

from .errors import (
    ArgumentError,
    CorpusError,
    DegenerateVectorError,
    DiagramError,
    GramflowError,
    ParseError,
    ShapeError,
    SizeCapError,
    SpaceError,
    UnknownWordError,
)
from .pregroup import (
    PregroupType,
    ReductionDiagram,
    SimpleType,
    ascii_diagram,
    contracts,
    enumerate_reductions,
    is_sentence,
    left_adjoint,
    parse_type,
    reduce,
    right_adjoint,
    validate_diagram,
)

__version__ = "0.1.0"

_LAZY = {
    "distributional": ("BasisSpec", "VectorSpaceModel", "build_basis", "build_model",
                       "load_model", "meaning_vector", "save_model", "similarity", "tokenize"),
    "lexicon": ("Lexicon", "load_lexicon", "make_logical_does", "make_logical_not"),
    "semantics": ("WordMeaning", "choi_embed", "cosine", "is_separable", "meaning",
                  "meaning_naive", "snake_check"),
    "tensors": ("SpaceAssignment", "cup", "kron", "read_tensor", "shape_of", "write_tensor"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "ArgumentError", "CorpusError", "DegenerateVectorError", "DiagramError", "GramflowError",
    "ParseError", "ShapeError", "SizeCapError", "SpaceError", "UnknownWordError",
    "PregroupType", "ReductionDiagram", "SimpleType", "ascii_diagram", "contracts",
    "enumerate_reductions", "is_sentence", "left_adjoint", "parse_type", "reduce",
    "right_adjoint", "validate_diagram",
    *_HOME,
]


def __getattr__(name):
    """Import a numpy-backed module, or a name from one, on first access (PEP 562)."""
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
