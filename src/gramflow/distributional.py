"""Co-occurrence word vectors built from a plain-text corpus.

A word's meaning vector lists, for each chosen basis word, the number of
times the word occurs within a fixed window of that basis word, divided by
the word's total occurrence count.  Windows are symmetric, measured in
token positions, and never cross document boundaries.  Everything is
deterministic: document order never affects the output.

:func:`build_model` counts every window in one numpy pass, and the vectors
of the model it returns are rows of one shared matrix.  Model files
round-trip bit-exactly: :func:`load_model` then :func:`save_model` writes
the same bytes.  Errors: :class:`ArgumentError` (also a ``ValueError``) for
a basis size or window below 1 or repeated basis words, :class:`CorpusError`
for a corpus file that is not UTF-8 or too small for the basis, and
:class:`ParseError`, with ``file:line``, for a malformed model file.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .errors import ArgumentError, CorpusError, DegenerateVectorError, ParseError, UnknownWordError
from .semantics import cosine

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

DEFAULT_WINDOW = 2


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters."""
    return _WORD.findall(text.lower())


def documents_from_text(text: str) -> list[list[str]]:
    """Split text into documents on blank lines and tokenize each."""
    docs = [tokenize(chunk) for chunk in re.split(r"\n\s*\n", text)]
    return [doc for doc in docs if doc]


def load_corpus(paths) -> list[list[str]]:
    """Read one or more UTF-8 files, each holding blank-line separated documents.

    Raises :class:`CorpusError` for a file that is not UTF-8 text.
    """
    corpus = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        corpus.extend(documents_from_text(text))
    return corpus


@dataclass(frozen=True)
class BasisSpec:
    """The ordered context words spanning the space, plus the window width."""

    words: tuple[str, ...]
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if len(set(self.words)) != len(self.words):
            word, _ = Counter(self.words).most_common(1)[0]
            raise ArgumentError(f"basis words must be distinct, {word!r} repeats")
        if self.window < 1:
            raise ArgumentError(f"window must be >= 1, got {self.window}")


@dataclass
class VectorSpaceModel:
    """Meaning vectors for every corpus word against a fixed basis."""

    basis: BasisSpec
    vectors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def build_basis(corpus, k: int, stop=None) -> BasisSpec:
    """Choose the k most frequent tokens (ties lexicographic) as the basis."""
    if k < 1:
        raise ArgumentError(f"basis size must be >= 1, got {k}")
    stop = set(stop or ())
    freq = Counter()
    for doc in corpus:
        freq.update(tok for tok in doc if tok not in stop)
    if len(freq) < k:
        raise CorpusError(f"need {k} distinct eligible tokens, corpus has {len(freq)}")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    return BasisSpec(tuple(tok for tok, _ in ranked[:k]))


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
    rows = {}
    ids = np.fromiter((rows.setdefault(tok, len(rows)) for doc in corpus for tok in doc),
                      dtype=np.int32)
    lengths = np.fromiter(map(len, corpus), dtype=np.int64)
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
    for w in (w1, w2):
        if w not in model.vectors:
            raise UnknownWordError(f"word {w!r} is not in the model")
        if not np.any(model.vectors[w]):
            raise DegenerateVectorError(f"word {w!r} has a zero meaning vector")
    if np.array_equal(model.vectors[w1], model.vectors[w2]):
        return 1.0
    return cosine(model.vectors[w1], model.vectors[w2])


_MEMO_SIZE = 1 << 16


class _FloatReprs(dict):
    """``repr`` of float64 values by bit pattern, filled on demand.

    Keys are bit patterns so that ``-0.0`` stays apart from ``0.0``.  At
    most ``_MEMO_SIZE`` entries are kept, which bounds the memory spent on
    a model with many distinct coordinates.
    """

    def __missing__(self, bits):
        text = repr(struct.unpack("<d", struct.pack("<q", bits))[0])
        if len(self) < _MEMO_SIZE:
            self[bits] = text
        return text


def save_model(model: VectorSpaceModel, path) -> None:
    """Write the model file: basis header, then one line per word.

    Word lines are sorted by token and hold the token, its occurrence
    count, and the vector coordinates, each written as ``repr(float(x))``;
    floats round-trip bit-exactly.
    """
    # A vector built from a corpus is mostly zeros and repeats a few ratios,
    # so its text comes from one memo per file; a dense vector would mostly
    # miss the memo, which costs more than plain repr.
    memo = _FloatReprs().__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#basis " + " ".join(model.basis.words) + "\n")
        for tok in sorted(model.vectors):
            vec = np.asarray(model.vectors[tok], dtype=np.float64)
            if 2 * np.count_nonzero(vec) < vec.size:
                coords = map(memo, vec.view(np.int64).tolist())
            else:
                coords = map(repr, vec.tolist())
            fh.write(f"{tok} {model.counts[tok]} {' '.join(coords)}\n")


def load_model(path) -> VectorSpaceModel:
    """Read a model file written by :func:`save_model`, one line at a time.

    Raises :class:`ParseError` for text that is not UTF-8, a missing or
    invalid ``#basis`` header, and, with ``file:line``, a line with the
    wrong number of fields, a bad or non-finite number, or a repeated token.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_model(fh, path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_model(fh, path) -> VectorSpaceModel:
    header = fh.readline()
    if not header.startswith("#basis"):
        raise ParseError(f"{path}: missing '#basis' header line")
    try:
        basis = BasisSpec(tuple(header.split()[1:]))
    except ArgumentError as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    width = 2 + len(basis.words)
    vectors, counts = {}, {}
    for ln, line in enumerate(fh, start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            raise ParseError(f"{path}:{ln}: expected {width} fields, got {len(fields)}")
        tok = fields[0]
        if tok in counts:
            raise ParseError(f"{path}:{ln}: duplicate token {tok!r}")
        try:
            counts[tok] = int(fields[1])
            vectors[tok] = _parse_coords(fields[2:])
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad number: {exc}") from None
    return VectorSpaceModel(basis, vectors, counts)


def _parse_coords(texts) -> np.ndarray:
    """Coordinate texts as a float64 vector; ``ValueError`` if one is bad or non-finite."""
    coords = list(map(float, texts))
    # a sum of finite values is finite unless it overflows; only then look at each
    if not math.isfinite(sum(coords)) and not all(map(math.isfinite, coords)):
        bad = next(t for t, x in zip(texts, coords) if not math.isfinite(x))
        raise ValueError(f"non-finite coordinate {bad!r}")
    return np.array(coords)
