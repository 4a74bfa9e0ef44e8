"""Binding words to types and tensors.

A lexicon file lists one entry per line: word, type notation, and a source
for the tensor — a model vector, a tensor file, a matrix file embedded as a
bipartite verb state, or a "logical" word made of pure wire routing.
Entries are resolved and shape-checked eagerly at load time, each distinct
type text parsed once per file, into one :class:`WordMeaning` per word.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, ShapeError, UnknownWordError
from .pregroup import parse_type
from .semantics import WordMeaning, choi_embed
from .tensors import SpaceAssignment, read_tensor, shape_of

__all__ = [
    "Lexicon",
    "load_lexicon",
    "make_logical_does",
    "make_logical_not",
    "LOGICAL_TYPE",
]

# subject wire in, sentence wire out, and the two wires that splice into the
# following verb phrase: the shared type of the constructed function words
LOGICAL_TYPE = "n^r s s^l n"


class Lexicon:
    """Immutable word-to-meaning table over a fixed space assignment."""

    def __init__(self, meanings, space: SpaceAssignment):
        self.meanings = dict(meanings)
        self.space = space

    def words(self):
        return sorted(self.meanings)

    def bind(self, word: str) -> WordMeaning:
        """Resolve a word to its meaning; repeated calls return the same value."""
        if word not in self.meanings:
            raise UnknownWordError(f"word {word!r} is not in the lexicon")
        return self.meanings[word]


def make_logical_does(space: SpaceAssignment) -> WordMeaning:
    """The do-support auxiliary as pure wire routing.

    Type n^r s s^l n; the tensor passes the subject straight through to the
    verb and the verb's sentence wire straight out:
    D[i, a, b, j] = delta_ij * delta_ab.  Composed with any verb phrase it
    leaves the sentence meaning unchanged.
    """
    dn, ds = space.dim("n"), space.dim("s")
    tensor = np.einsum("ij,ab->iabj", np.eye(dn), np.eye(ds))
    return WordMeaning("does", parse_type(LOGICAL_TYPE), tensor)


def make_logical_not(space: SpaceAssignment, negation) -> WordMeaning:
    """Negation as wire routing with a matrix spliced into the sentence wire.

    Type n^r s s^l n; the subject passes through while the sentence wire
    coming back from the verb is acted on by ``negation`` before flowing
    out: N[i, a, b, j] = delta_ij * negation[a, b], so the meaning of
    "subject does not verb-phrase" is ``negation`` applied to the meaning
    of "subject verb-phrase", and chained negations compose their matrices.
    """
    dn, ds = space.dim("n"), space.dim("s")
    mat = np.asarray(negation, dtype=float)
    if mat.shape != (ds, ds):
        raise ShapeError(
            f"negation matrix must be {ds}x{ds} on the sentence space, "
            f"got shape {list(mat.shape)}"
        )
    tensor = np.einsum("ij,ab->iabj", np.eye(dn), mat)
    return WordMeaning("not", parse_type(LOGICAL_TYPE), tensor)


def _resolve(word, src, space, model, base_dir):
    def resolve_path(rel):
        path = os.path.join(base_dir, rel) if base_dir else rel
        if not os.path.exists(path):
            raise ParseError(f"entry {word!r}: referenced file {path!r} does not exist")
        return path

    if src == "vector":
        if model is None:
            raise ParseError(f"entry {word!r} needs a vector model, none was given")
        if word not in model.vectors:
            raise UnknownWordError(f"entry {word!r} is not in the vector model")
        return np.asarray(model.vectors[word], dtype=float)
    if src.startswith("tensor:"):
        return read_tensor(resolve_path(src[len("tensor:"):]))
    if src.startswith("choi:"):
        return choi_embed(read_tensor(resolve_path(src[len("choi:"):])))
    if src == "logical:does":
        return make_logical_does(space).tensor
    if src.startswith("logical:not:"):
        return make_logical_not(space, read_tensor(resolve_path(src[len("logical:not:"):]))).tensor
    raise ParseError(f"entry {word!r}: unknown source spec {src!r}")


def load_lexicon(path, space: SpaceAssignment, model=None) -> Lexicon:
    """Parse and fully validate a lexicon file.

    Every entry is resolved to a concrete tensor immediately and checked
    against the shape its type requires, so shape errors surface here and
    not in the middle of a contraction.  Relative file references are
    resolved against the lexicon file's directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    base_dir = os.path.dirname(os.path.abspath(path))
    # (type, shape) by type text: a file repeats a few type texts over many lines
    meanings, types = {}, {}
    # text mode already turned every line ending into "\n"
    for ln, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 tab-separated fields, got {len(fields)}")
        word, type_text, source = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if word in meanings:
            raise ParseError(f"{path}:{ln}: duplicate entry for {word!r}")
        known = types.get(type_text)
        if known is None:
            try:
                ptype = parse_type(type_text)
            except ParseError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
        tensor = _resolve(word, source, space, model, base_dir)
        # shaped only after resolving, so a source error wins over a base with no dimension
        ptype, expected = known or types.setdefault(type_text, (ptype, shape_of(ptype, space)))
        if tensor.shape != expected:
            raise ShapeError(
                f"{path}:{ln}: word {word!r} has tensor shape "
                f"{list(tensor.shape)} but type {type_text!r} requires {list(expected)}"
            )
        meanings[word] = WordMeaning(word, ptype, tensor)
    return Lexicon(meanings, space)
