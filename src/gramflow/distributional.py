"""Co-occurrence word vectors built from a plain-text corpus.

A word's meaning vector lists, for each chosen basis word, the number of
times the word occurs within a fixed window of that basis word, divided by
the word's total occurrence count.  Windows are symmetric, measured in
token positions, and never cross document boundaries.  Everything is
deterministic: document order never affects the output.

:func:`tokenize` splits a text that is ASCII once lowercased with one
``str.translate`` and any other text with a regex.  :func:`build_model`
numbers the tokens with one ``dict.fromkeys`` over the chained documents
and counts every window in one numpy pass; its vectors are rows of one
matrix.  :func:`load_model` reads a file once, as text, and parses a block
of lines per ``np.loadtxt`` call; its vectors are rows of one matrix per
block.  :func:`save_model` lays out a block of lines at a time with numpy
index arithmetic: each run of zeros is one precomputed string, and each
distinct coordinate of the block takes one ``repr``.  Model files
round-trip bit-exactly: :func:`load_model` then :func:`save_model` writes
the same bytes.  Errors: :class:`ArgumentError` (also a ``ValueError``)
for a basis size or window that is not an integer or is below 1, repeated
basis words, a model :func:`save_model` could not load back, an argument
of the wrong class, a ``str`` where a sequence is expected, or a path that
is not a ``str``, ``bytes`` or ``os.PathLike``, :class:`CorpusError` for a corpus file that is not UTF-8 or too small for
the basis, and :class:`ParseError`, with ``file:line``, for a malformed
model file.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from collections import Counter
from itertools import chain

import numpy as np

from .errors import (ArgumentError, CorpusError, DegenerateVectorError, ParseError, UnknownWordError,
                     positive_int)
from .semantics import cosine
from .tensors import _file_path, _instance

__all__ = [
    "BasisSpec",
    "VectorSpaceModel",
    "tokenize",
    "documents_from_text",
    "load_corpus",
    "build_basis",
    "meaning_vector",
    "build_model",
    "similarity",
    "save_model",
    "load_model",
]

_WORD = re.compile(r"[^\W_]+", re.UNICODE)
# str.translate table for ASCII: letters and digits kept, the rest (what _WORD
# does not match) made spaces; a str, since each miss in a dict costs a KeyError
_SEPARATORS = "".join(c if c.isalnum() else " " for c in map(chr, range(128)))

DEFAULT_WINDOW = 2


def _sequence(what: str, value, of: str):
    """``value``; :class:`ArgumentError` for a ``str``, ``bytes`` or path, which iterating would split."""
    if isinstance(value, (str, bytes, os.PathLike)):
        raise ArgumentError(f"{what} is {value!r}, not a sequence of {of}")
    return value


def _documents_checked(corpus):
    """The documents of ``corpus``, each checked by :func:`_sequence` as the caller's pass reaches it.

    The corpus itself is checked at once: the outermost iterable of a
    generator expression is evaluated when it is made.
    """
    return (_sequence("corpus document", doc, "tokens") for doc in _sequence("corpus", corpus, "documents"))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters.

    A text that is ASCII once lowercased is split by one ``str.translate``
    and ``str.split``; any other text by the regex ``[^\\W_]+``, which is
    faster there.  Both give the same tokens.
    """
    low = text.lower()  # lowercased first: the Kelvin sign U+212A lowers to ASCII "k"
    if low.isascii():
        return low.translate(_SEPARATORS).split()
    return _WORD.findall(low)


def documents_from_text(text: str) -> list[list[str]]:
    """Split text into documents on blank lines and tokenize each.

    Equal tokens are one ``str`` object, which keeps a large corpus small.
    """
    return _documents(text, {})


def _documents(text: str, same: dict) -> list[list[str]]:
    """:func:`documents_from_text`, interning tokens through ``same``."""
    docs = [list(map(same.setdefault, toks, toks))
            for toks in map(tokenize, re.split(r"\n\s*\n", text))]
    return [doc for doc in docs if doc]


def load_corpus(paths) -> list[list[str]]:
    """Read one or more UTF-8 files, each holding blank-line separated documents.

    Equal tokens are one ``str`` object across all the files.  Raises
    :class:`CorpusError` for a file that is not UTF-8 text.
    """
    corpus, same = [], {}
    for path in [_file_path(p) for p in _sequence("corpus paths", paths, "paths")]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        corpus.extend(_documents(text, same))
    return corpus


@dataclass(frozen=True)
class BasisSpec:
    """The ordered context words spanning the space, plus the window width."""

    words: tuple[str, ...]
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(_sequence("basis words", self.words, "words")))
        if len(set(self.words)) != len(self.words):
            word, _ = Counter(self.words).most_common(1)[0]
            raise ArgumentError(f"basis words must be distinct, {word!r} repeats")
        object.__setattr__(self, "window", positive_int("window", self.window))


@dataclass
class VectorSpaceModel:
    """Meaning vectors for every corpus word against a fixed basis."""

    basis: BasisSpec
    vectors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def build_basis(corpus, k: int, stop=None, window: int = DEFAULT_WINDOW) -> BasisSpec:
    """Choose the k most frequent tokens (ties lexicographic) as the basis, with this window."""
    k = positive_int("basis size", k)
    freq = Counter(chain.from_iterable(_documents_checked(corpus)))
    for tok in stop or ():
        freq.pop(tok, None)
    if len(freq) < k:
        raise CorpusError(f"need {k} distinct eligible tokens, corpus has {len(freq)}")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    return BasisSpec(tuple(tok for tok, _ in ranked[:k]), window)


def _relative_counts(corpus, basis: BasisSpec):
    """Token rows, occurrence counts and the matrix of meaning vectors.

    Returns ``(rows, occ, vectors)``: ``rows`` maps each token to its row,
    in first-occurrence order; ``occ`` holds the occurrence counts; row
    ``r`` of the float ``(len(rows), len(basis.words))`` matrix ``vectors``
    is the in-window pair counts of that token divided by its count.

    A basis word occurring twice inside one window is counted twice; the
    target position itself never counts, so a word co-occurring with its own
    basis coordinate only counts distinct occurrences.  Pair counts are
    accumulated as floats, which is exact below 2**53.
    """
    documents = _documents_checked(corpus)
    _instance("basis", basis, BasisSpec)
    rows = {tok: r for r, tok in enumerate(dict.fromkeys(chain.from_iterable(documents)))}
    lengths = np.fromiter(map(len, corpus), dtype=np.int64)
    ids = np.fromiter(map(rows.__getitem__, chain.from_iterable(corpus)), np.int32,
                      count=int(lengths.sum()))
    doc_of = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    occ = np.bincount(ids, minlength=len(rows))

    k = len(basis.words)
    column = np.full(len(rows), -1, dtype=np.int32)
    for m, tok in enumerate(basis.words):
        if tok in rows:
            column[rows[tok]] = m
    vectors = np.zeros((len(rows), k))
    flat = vectors.reshape(-1)
    # no offset of a document's length or more joins two of its tokens
    for d in range(1, min(basis.window, int(lengths.max(initial=1)) - 1) + 1):
        same_doc = doc_of[d:] == doc_of[:-d]
        left, right = ids[:-d], ids[d:]
        for target, context in ((left, right), (right, left)):
            m = column[context]
            keep = same_doc & (m >= 0)
            np.add.at(flat, target[keep].astype(np.intp) * k + m[keep], 1.0)
    vectors /= occ[:, None]
    return rows, occ, vectors


def meaning_vector(corpus, word: str, basis: BasisSpec) -> np.ndarray:
    """Relative co-occurrence frequencies of ``word`` against the basis."""
    rows, _, vectors = _relative_counts(corpus, basis)
    if word not in rows:
        raise UnknownWordError(f"word {word!r} does not occur in the corpus")
    return vectors[rows[word]].copy()  # a view would keep the whole matrix alive


def build_model(corpus, basis: BasisSpec) -> VectorSpaceModel:
    """Meaning vectors for the whole vocabulary in one pass.

    The vectors are rows of one shared matrix, and both dicts list the
    tokens in first-occurrence order.
    """
    rows, occ, vectors = _relative_counts(corpus, basis)
    return VectorSpaceModel(basis, dict(zip(rows, vectors)), dict(zip(rows, occ.tolist())))


def similarity(model: VectorSpaceModel, w1: str, w2: str) -> float:
    """Cosine between two stored meaning vectors.

    Coordinate-identical vectors (a word with itself, or exact synonyms by
    construction) are exactly parallel, so that case returns 1.0 without
    going through the rounding of an explicit norm computation.
    """
    _instance("model", model, VectorSpaceModel)
    for w in (w1, w2):
        if w not in model.vectors:
            raise UnknownWordError(f"word {w!r} is not in the model")
        if not np.any(model.vectors[w]):
            raise DegenerateVectorError(f"word {w!r} has a zero meaning vector")
    if np.array_equal(model.vectors[w1], model.vectors[w2]):
        return 1.0
    return cosine(model.vectors[w1], model.vectors[w2])


# rows written per file write, and lines parsed per np.loadtxt call: large
# enough that the per-call overhead vanishes, small enough that the block's
# text and its array copy stay small
_BLOCK_LINES = 1024


def save_model(model: VectorSpaceModel, path) -> None:
    """Write the model file: basis header, then one line per word.

    Word lines are sorted by token and hold the token, its occurrence
    count, and the vector coordinates, each written as ``repr(float(x))``;
    floats round-trip bit-exactly.  The text of ``_BLOCK_LINES`` rows at a
    time is laid out by numpy index arithmetic and written with one join:
    each run of zeros is one precomputed string, and each distinct nonzero
    coordinate of the block (by bit pattern, so ``-0.0`` is nonzero) takes
    one ``repr``.

    Raises :class:`ArgumentError`, before the file is opened, for what
    :func:`load_model` would reject or it could not write: a token or basis
    word that is empty, holds whitespace or does not encode as UTF-8, a
    vector whose count is missing or not an integer, a vector whose
    length is not the basis size, or a non-finite coordinate.
    """
    _instance("model", model, VectorSpaceModel)
    k = len(model.basis.words)
    for tok in (*model.basis.words, *model.vectors):
        if tok.split() != [tok]:
            raise ArgumentError(f"token {tok!r} is empty or holds whitespace")
        try:
            tok.encode("utf-8")
        except UnicodeEncodeError:
            raise ArgumentError(f"token {tok!r} does not encode as UTF-8") from None
    for tok, vec in model.vectors.items():
        count = model.counts.get(tok)
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ArgumentError(f"count of {tok!r} is {count!r}, not an integer")
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (k,):
            raise ArgumentError(f"vector of {tok!r} has shape {vec.shape}, the basis has {k} words")
        if not np.isfinite(vec).all():
            raise ArgumentError(f"vector of {tok!r} has a non-finite coordinate")
    tokens = sorted(model.vectors)
    with open(_file_path(path), "w", encoding="utf-8") as fh:
        fh.write("#basis " + " ".join(model.basis.words) + "\n")
        for start in range(0, len(tokens), _BLOCK_LINES):
            block = tokens[start:start + _BLOCK_LINES]
            # an extra nonzero column marks where each line ends
            rows = np.ones((len(block), k + 1))
            rows[:, :k] = [model.vectors[tok] for tok in block]
            fh.write(_block_text([f"{tok} {model.counts[tok]}" for tok in block], rows))


def _block_text(heads, rows) -> str:
    """The model file lines of one block: ``heads[i]``, then row ``i``'s coordinates.

    ``rows`` holds a line's k coordinates and then, in column k, a nonzero
    marker of the line's end.
    """
    k = rows.shape[1] - 1
    zeros = np.array([" 0.0" * d for d in range(k + 1)], dtype=object)
    end = "\n" if k else " \n"  # a line with no coordinates keeps the space before them
    bits = rows.view(np.int64)
    row, col = np.nonzero(bits)  # -0.0 has a nonzero bit pattern
    values, which = np.unique(bits[row, col], return_inverse=True)
    text = np.array([" " + repr(x) for x in values.view(np.float64).tolist()], dtype=object)[which]
    text[col == k] = end
    # the zeros before each entry; a line's first entry follows the marker
    # in column k of the line before, so its difference comes out k + 1 short
    gaps = (np.diff(col, prepend=k) - 1) % (k + 1)
    # a line is its head, then, for each entry, the zeros before it and its text
    at = row + 2 * np.arange(len(row))
    pieces = np.empty(len(heads) + 2 * len(row), dtype=object)
    pieces[at[np.diff(row, prepend=-1) != 0]] = heads
    pieces[at + 1] = zeros[gaps]
    pieces[at + 2] = text
    return "".join(pieces.tolist())


def load_model(path) -> VectorSpaceModel:
    """Read a model file written by :func:`save_model`.

    The file is read once, as text, so a pipe serves as well as a regular
    file.  ``np.loadtxt`` parses the coordinates of ``_BLOCK_LINES`` lines
    at a time, and the vectors of a block are rows of that block's own
    ``(lines, basis)`` matrix; both dicts list the tokens in file order.  A
    block that fails any check is read again one line and one ``float`` at
    a time, so the files accepted, their values and the error messages are
    a line reader's.

    Raises :class:`ParseError` for text that is not UTF-8, a missing or
    invalid ``#basis`` header, and, with ``file:line``, a line with the
    wrong number of fields, a bad or non-finite number, or a repeated token.
    """
    try:
        with open(_file_path(path), "r", encoding="utf-8") as fh:
            return _read_model(fh, path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_model(fh, path) -> VectorSpaceModel:
    header = fh.readline().removeprefix("\ufeff")
    if not header.startswith("#basis"):
        raise ParseError(f"{path}: missing '#basis' header line")
    try:
        basis = BasisSpec(tuple(header.split()[1:]))
    except ArgumentError as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    k = len(basis.words)
    vectors, counts = {}, {}

    def add(block):
        if block:
            tokens, rows = _read_block(block, counts, k) or _read_lines(block, counts, k, path)
            vectors.update(zip(tokens, rows))

    block = []
    try:
        for ln, line in enumerate(fh, start=2):
            head = line.split(None, 2)
            if head:
                block.append((ln, line, head))
                if len(block) == _BLOCK_LINES:
                    add(block)
                    block = []
    except UnicodeDecodeError:
        add(block)  # a fault on a line before the undecodable text is reported first
        raise
    add(block)
    return VectorSpaceModel(basis, vectors, counts)


def _read_block(block, counts, k):
    """Parse a block of ``(line number, line, head)`` with one numpy call.

    ``head`` is the line split at its first two runs of whitespace.  When
    every line passes every check, adds the block's tokens to ``counts`` and
    returns them with the ``(len(block), k)`` array ``np.loadtxt`` made;
    otherwise changes nothing and returns None.  numpy splits fields at the
    same whitespace as ``str.split`` and parses a subset of what ``float``
    accepts into the same values.
    """
    if any(len(head) != 3 for _, _, head in block):
        return None
    tokens = [head[0] for _, _, head in block]
    if len(set(tokens)) != len(tokens) or not counts.keys().isdisjoint(tokens):
        return None
    try:
        occ = [int(head[1]) for _, _, head in block]
        coords = np.loadtxt([head[2] for _, _, head in block], dtype=float, ndmin=2, comments=None)
    except ValueError:
        return None
    if coords.shape != (len(block), k) or not np.isfinite(coords).all():
        return None
    counts.update(zip(tokens, occ))
    return tokens, coords


def _read_lines(block, counts, k, path):
    """Parse a block line by line into its tokens and a new ``(len(block), k)`` array.

    Adds the tokens to ``counts``; raises :class:`ParseError` at the first fault.
    """
    width = 2 + k
    rows = np.empty((len(block), k))
    for row, (ln, line, _) in zip(rows, block):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(f"{path}:{ln}: expected {width} fields, got {len(fields)}")
        tok = fields[0]
        if tok in counts:
            raise ParseError(f"{path}:{ln}: duplicate token {tok!r}")
        try:
            counts[tok] = int(fields[1])
            coords = list(map(float, fields[2:]))
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad number: {exc}") from None
        bad = next((t for t, x in zip(fields[2:], coords) if not math.isfinite(x)), None)
        if bad is not None:
            raise ParseError(f"{path}:{ln}: bad number: non-finite coordinate {bad!r}")
        row[:] = coords
    return [head[0] for _, _, head in block], rows
