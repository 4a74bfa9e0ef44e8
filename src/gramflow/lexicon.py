"""Binding words to types and tensors.

A lexicon file lists one entry per line: word, type notation, and a source
for the tensor — a model vector, a tensor file, a matrix file embedded as a
bipartite verb state, or a "logical" word made of pure wire routing.
Entries are resolved and shape-checked eagerly at load time, each distinct
type text parsed once per file; a word's :class:`WordMeaning` is built on
its first ``bind``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, ShapeError, SizeCapError, UnknownWordError
from .pregroup import parse_type
from .semantics import DEFAULT_SIZE_CAP, WordMeaning, choi_embed
from .tensors import SpaceAssignment, _instance, _read_text, read_tensor, shape_of

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
    """Immutable word-to-meaning table over a fixed space assignment.

    ``entries`` maps each word to its checked ``(type, tensor)`` pair.
    """

    def __init__(self, entries, space: SpaceAssignment):
        self.entries = dict(entries)
        self.space = space
        # a call binds a few words of thousands: each WordMeaning is built once, on demand
        self._bound = {}

    def words(self):
        return sorted(self.entries)

    def bind(self, word: str) -> WordMeaning:
        """Resolve a word to its meaning; repeated calls return the same value."""
        bound = self._bound.get(word)
        if bound is None:
            if word not in self.entries:
                raise UnknownWordError(f"word {word!r} is not in the lexicon")
            bound = self._bound[word] = WordMeaning(word, *self.entries[word])
        return bound


def _routing(word, space, negation=None, cap=None):
    """R[i, a, b, j] = delta_ij * negation[a, b] (the identity for ``does``): a logical word's tensor.

    With a ``cap``, a tensor of more than ``cap`` entries raises
    :class:`SizeCapError` before any of it is built.
    """
    _instance("space", space, SpaceAssignment)
    dn, ds = space.dim("n"), space.dim("s")
    mat = None
    if word == "not":
        mat = np.asarray(negation, dtype=float)
        if mat.shape != (ds, ds):
            raise ShapeError(
                f"negation matrix must be {ds}x{ds} on the sentence space, "
                f"got shape {list(mat.shape)}"
            )
    entries = dn * dn * ds * ds
    need = f"logical:{word} needs d_n^2*d_s^2 = {entries} entries (d_n={dn}, d_s={ds}), more than"
    if cap is not None and entries > cap:
        raise SizeCapError(f"{need} the cap of {cap}")
    try:
        tensor = np.einsum("ij,ab->iabj", np.eye(dn), np.eye(ds) if mat is None else mat)
    except (ValueError, MemoryError):  # numpy refused the shape or the allocation
        raise SizeCapError(f"{need} numpy can allocate") from None
    return tensor


def make_logical_does(space: SpaceAssignment) -> WordMeaning:
    """The do-support auxiliary as pure wire routing.

    Type n^r s s^l n; the tensor passes the subject straight through to the
    verb and the verb's sentence wire straight out:
    D[i, a, b, j] = delta_ij * delta_ab.  Composed with any verb phrase it
    leaves the sentence meaning unchanged.
    """
    return WordMeaning("does", parse_type(LOGICAL_TYPE), _routing("does", space))


def make_logical_not(space: SpaceAssignment, negation) -> WordMeaning:
    """Negation as wire routing with a matrix spliced into the sentence wire.

    Type n^r s s^l n; the subject passes through while the sentence wire
    coming back from the verb is acted on by ``negation`` before flowing
    out: N[i, a, b, j] = delta_ij * negation[a, b], so the meaning of
    "subject does not verb-phrase" is ``negation`` applied to the meaning
    of "subject verb-phrase", and chained negations compose their matrices.
    """
    return WordMeaning("not", parse_type(LOGICAL_TYPE), _routing("not", space, negation))


def _resolve(word, src, space, base_dir):
    """The tensor of an entry whose source is not ``vector``."""
    def resolve_path(rel):
        path = os.path.join(base_dir, rel)
        if not os.path.exists(path):
            raise ParseError(f"entry {word!r}: referenced file {path!r} does not exist")
        return path

    if src.startswith("tensor:"):
        return read_tensor(resolve_path(src[len("tensor:"):]))
    if src.startswith("choi:"):
        return choi_embed(read_tensor(resolve_path(src[len("choi:"):])))
    # capped as meaning caps its intermediates: d_n = d_s = 300 would be 65 GB
    try:
        if src == "logical:does":
            return _routing("does", space, cap=DEFAULT_SIZE_CAP)
        if src.startswith("logical:not:"):
            negation = read_tensor(resolve_path(src[len("logical:not:"):]))
            return _routing("not", space, negation, DEFAULT_SIZE_CAP)
    except SizeCapError as exc:
        raise SizeCapError(f"entry {word!r}: {exc}") from None
    raise ParseError(f"entry {word!r}: unknown source spec {src!r}")


def load_lexicon(path, space: SpaceAssignment, model=None) -> Lexicon:
    """Parse and fully validate a lexicon file.

    Every entry is resolved to a concrete tensor immediately and checked
    against the shape its type requires, so shape errors surface here and
    not in the middle of a contraction; a ``logical:`` entry must also have
    type ``LOGICAL_TYPE``.  Relative file references are resolved against the
    lexicon file's directory.  A ``model`` that is not a
    :class:`~gramflow.distributional.VectorSpaceModel` raises
    :class:`ArgumentError` before the file is read.
    """
    _instance("space", space, SpaceAssignment)
    if model is not None:  # distributional is imported only by a call that needs it
        from .distributional import VectorSpaceModel
        _instance("model", model, VectorSpaceModel)
    text = _read_text(path)
    base_dir = os.path.dirname(os.path.abspath(os.fsdecode(path)))  # bytes would not join a str entry
    vectors = None if model is None else model.vectors
    # (type, shape) by type text: a file repeats a few type texts over many lines
    entries, types = {}, {}
    # text mode already turned every line ending into "\n"
    for ln, line in enumerate(text.split("\n"), start=1):
        fields = line.split("\t")
        word = fields[0].strip()
        # a "#" first field starts a comment; a blank one leaves the whole line to decide
        if not word or word[0] == "#":
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
        if len(fields) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 tab-separated fields, got {len(fields)}")
        type_text, source = fields[1].strip(), fields[2].strip()
        if word in entries:
            raise ParseError(f"{path}:{ln}: duplicate entry for {word!r}")
        known = types.get(type_text)
        if known is None:
            try:
                ptype = parse_type(type_text)
            except ParseError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
        if source == "vector":
            if vectors is None:
                raise ParseError(f"entry {word!r} needs a vector model, none was given")
            if word not in vectors:
                raise UnknownWordError(f"entry {word!r} is not in the vector model")
            tensor = np.asarray(vectors[word], dtype=float)
        else:
            tensor = _resolve(word, source, space, base_dir)
        # shaped only after resolving, so a source error wins over a base with no dimension
        ptype, expected = known or types.setdefault(type_text, (ptype, shape_of(ptype, space)))
        if tensor.shape != expected:
            raise ShapeError(
                f"{path}:{ln}: word {word!r} has tensor shape "
                f"{list(tensor.shape)} but type {type_text!r} requires {list(expected)}"
            )
        # the routing tensor is wired for LOGICAL_TYPE: another type of its shape misroutes
        if source.startswith("logical:") and str(ptype) != LOGICAL_TYPE:
            raise ParseError(f"{path}:{ln}: logical word {word!r} has type {type_text!r}, "
                             f"not {LOGICAL_TYPE!r}")
        entries[word] = (ptype, tensor)
    return Lexicon(entries, space)
