"""Pregroup grammar checking and tensor-contraction sentence semantics.

Verify that a sentence is grammatical by reducing its pregroup types,
represent the reduction as a planar cup diagram, and evaluate that diagram
as a tensor contraction over word meaning tensors to obtain a sentence
meaning vector.
"""

from .distributional import (
    BasisSpec,
    VectorSpaceModel,
    build_basis,
    build_model,
    load_model,
    meaning_vector,
    save_model,
    similarity,
    tokenize,
)
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
from .lexicon import Lexicon, load_lexicon, make_logical_does, make_logical_not
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
from .semantics import (
    WordMeaning,
    choi_embed,
    cosine,
    is_separable,
    meaning,
    meaning_naive,
    snake_check,
)
from .tensors import SpaceAssignment, cup, kron, read_tensor, shape_of, write_tensor

__version__ = "0.1.0"
