"""Independent reference implementations used to check the package.

Everything here is deliberately dumb and self-contained: simple types are
plain (name, z) tuples, diagrams are tuples of index pairs, and no code is
shared with the package's search or contraction machinery.  The file
loaders below reuse the package's type parser and logical-word builders,
but read, convert and check every value and line on their own.
"""

import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from gramflow import (
    ParseError,
    PregroupType,
    ShapeError,
    SizeCapError,
    UnknownWordError,
    choi_embed,
    make_logical_does,
    make_logical_not,
    parse_type,
    shape_of,
)
from gramflow.lexicon import LOGICAL_TYPE


def cancels(a, b):
    # (b, z) followed by (b, z + 1) cancels; the definitional rule restated
    return a[0] == b[0] and b[1] == a[1] + 1


def noncrossing_matchings(positions):
    """All noncrossing partial matchings over a tuple of positions."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for m in noncrossing_matchings(rest):
        yield m
    for qi in range(len(rest)):
        inside, outside = rest[:qi], rest[qi + 1:]
        for mi in noncrossing_matchings(inside):
            for mo in noncrossing_matchings(outside):
                yield ((first, rest[qi]),) + mi + mo


def _nested(links):
    linked = {p: (i, j) for i, j in links for p in (i, j)}
    for i, j in links:
        for p in range(i + 1, j):
            if p not in linked:
                return False
            a, b = linked[p]
            if not (i < a and b < j):
                return False
    return True


def bracket_diagram(word, keep_unlinked_under_cups=False):
    """Length and links read off a bracket word over ``(``, ``)`` and ``.``.

    Each ``(`` opens a cup that the matching ``)`` closes; a ``.`` or an
    unmatched ``)`` is an unlinked wire.  Cups left open at the end are
    closed there.  A ``.`` inside a cup is dropped, which keeps the diagram
    fully nested, unless ``keep_unlinked_under_cups`` is set.  Returns
    ``(length, links)``.
    """
    links, opened, n = [], [], 0
    for ch in word:
        if ch == "(":
            opened.append(n)
        elif ch == ")" and opened:
            links.append((opened.pop(), n))
        elif opened and not keep_unlinked_under_cups:
            continue
        n += 1
    while opened:
        links.append((opened.pop(), n))
        n += 1
    return n, tuple(sorted(links))


def validate_by_pairs(types, n, links, target=None):
    """Check a diagram link against link, raising ``ValueError`` like ``validate_diagram``.

    ``types`` are (name, z) tuples; ``n`` and ``links`` are the diagram's
    fields.  Every pair of links is tested for crossing and every position
    under each link for nesting.
    """
    if n != len(types):
        raise ValueError(f"diagram length {n} != sequence length {len(types)}")
    used = set()
    partner = {}
    for i, j in links:
        if not (0 <= i < j < n):
            raise ValueError(f"link ({i},{j}) out of range for length {n}")
        if i in used or j in used:
            raise ValueError(f"link ({i},{j}) reuses a position")
        used.update((i, j))
        partner[i] = j
        partner[j] = i
    for i, j in links:
        for k, l in links:
            if i < k < j < l:
                raise ValueError(f"links ({i},{j}) and ({k},{l}) cross")
        for p in range(i + 1, j):
            if p not in used or not (i < partner[p] < j):
                raise ValueError(f"position {p} under link ({i},{j}) is not nested")
        if not cancels(types[i], types[j]):
            raise ValueError(f"link ({i},{j}) joins {types[i]} and {types[j]}, which do not cancel")
    through = [p for p in range(n) if p not in used]
    if target is not None and tuple(types[p] for p in through) != tuple(target):
        raise ValueError(f"surviving wires do not equal target {target}")


def ascii_by_recursion(labels, links):
    """Text rendering of a diagram, each cup's row found by recursion over the cups under it."""
    cols = []
    offset = 0
    for label in labels:
        cols.append(offset + (len(label) - 1) // 2)
        offset += len(label) + 2
    header = "  ".join(labels)

    def depth(link):
        i, j = link
        inner = [d for d in links if i < d[0] and d[1] < j]
        return 1 + max((depth(d) for d in inner), default=0)

    rows = max((depth(link) for link in links), default=0)
    grid = [[" "] * len(header) for _ in range(rows)]
    for i, j in links:
        row = grid[depth((i, j)) - 1]
        row[cols[i]] = "\\"
        row[cols[j]] = "/"
        for c in range(cols[i] + 1, cols[j]):
            row[c] = "_"
    return "\n".join([header] + ["".join(r).rstrip() for r in grid])


def oracle_witnesses(types, target):
    """Every valid reduction diagram, by exhaustive generate-and-filter."""
    types = tuple(types)
    target = tuple(target)
    found = []
    for m in noncrossing_matchings(tuple(range(len(types)))):
        if not all(cancels(types[i], types[j]) for i, j in m):
            continue
        if not _nested(m):
            continue
        used = {p for link in m for p in link}
        through = tuple(p for p in range(len(types)) if p not in used)
        if tuple(types[p] for p in through) != target:
            continue
        found.append(tuple(sorted(m)))
    return sorted(set(found))


def oracle_exists(types, target):
    """Existence of a witness by brute-force search with early exit.

    Scans left to right: the first undecided position either survives
    (consuming the next target symbol) or cups with a later position whose
    strict interior can be fully matched.  No tables, no memoization.
    """
    types = tuple(types)
    target = tuple(target)
    t_len = len(target)

    def full(pos):
        if not pos:
            return True
        first, rest = pos[0], pos[1:]
        for qi in range(0, len(rest), 2):
            if cancels(types[first], types[rest[qi]]):
                if full(rest[:qi]) and full(rest[qi + 1:]):
                    return True
        return False

    def go(pos, m):
        if not pos:
            return m == t_len
        first, rest = pos[0], pos[1:]
        if m < t_len and types[first] == target[m] and go(rest, m + 1):
            return True
        for qi in range(0, len(rest), 2):
            if cancels(types[first], types[rest[qi]]):
                if full(rest[:qi]) and go(rest[qi + 1:], m):
                    return True
        return False

    return go(tuple(range(len(types))), 0)


def exists_by_intervals(types, target):
    """Existence of a witness by a plain O(n^3) interval table, for inputs past 8 wires.

    ``full[i][j]``: [i, j) cancels completely, its first position cupping
    some k with [i+1, k) and [k+1, j) cancelling.  ``ends[p][m]``: [p, n)
    reduces to ``target[m:]``, its first position either surviving as
    ``target[m]`` or cupping some k with [p+1, k) cancelling.  Every pair of
    positions is tried; nothing is skipped by parity or type counts.
    """
    types = tuple(types)
    target = tuple(target)
    n, t_len = len(types), len(target)
    full = [[i == j for j in range(n + 1)] for i in range(n + 1)]
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span
            full[i][j] = any(cancels(types[i], types[k]) and full[i + 1][k] and full[k + 1][j]
                             for k in range(i + 1, j))
    ends = [[False] * (t_len + 1) for _ in range(n + 1)]
    ends[n][t_len] = True
    for p in reversed(range(n)):
        for m in range(t_len + 1):
            ends[p][m] = (m < t_len and types[p] == target[m] and ends[p + 1][m + 1]) or any(
                cancels(types[p], types[k]) and full[p + 1][k] and ends[k + 1][m]
                for k in range(p + 1, n))
    return ends[0][0]


def reduces_by_rewriting(types, target):
    """Existence decided by breadth-first search over pair deletions.

    Works directly with the cancellation rule: repeatedly delete any
    adjacent pair (b, z)(b, z + 1) and ask whether the target word is
    reachable.  Knows nothing about diagrams at all.
    """
    types = tuple(types)
    target = tuple(target)
    seen = {types}
    frontier = [types]
    while frontier:
        nxt = []
        for word in frontier:
            if word == target:
                return True
            for i in range(len(word) - 1):
                if cancels(word[i], word[i + 1]):
                    short = word[:i] + word[i + 2:]
                    if short not in seen:
                        seen.add(short)
                        nxt.append(short)
        frontier = nxt
    return target in seen


def meaning_by_loops(tensors, sizes, links, dims):
    """Sentence tensor by explicit summation over every multi-index.

    ``tensors`` are the word arrays, ``sizes`` the number of wire positions
    each word owns, ``dims`` the per-position dimensions.  Sums the product
    of word entries over all full index assignments where every linked pair
    agrees, accumulating into the surviving positions: those in no link.
    """
    through = [p for p in range(len(dims)) if all(p not in link for link in links)]
    out = np.zeros(tuple(dims[p] for p in through))
    offsets = np.cumsum([0] + list(sizes))[:-1]
    for idx in product(*[range(d) for d in dims]):
        if any(idx[i] != idx[j] for i, j in links):
            continue
        val = 1.0
        for t, off, k in zip(tensors, offsets, sizes):
            val *= float(np.asarray(t)[tuple(idx[off + a] for a in range(k))])
        out[tuple(idx[p] for p in through)] += val
    return out


_TYPE_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^([lr]+))?$")


def parse_type_by_regex(text):
    """Type notation as a tuple of ``(base, z)`` pairs: split on runs of whitespace or ``.``,
    each token matched by one regular expression; ``ParseError`` as ``parse_type`` raises it."""
    pairs = []
    for token in re.split(r"[\s.]+", text.strip()):
        if not token:
            continue
        m = _TYPE_TOKEN.match(token)
        if m is None:
            raise ParseError(f"malformed simple type {token!r}")
        name, marks = m.groups()
        z = 0
        for mark in marks or "":
            z += 1 if mark == "r" else -1
        pairs.append((name, z))
    return tuple(pairs)


def tokens_by_regex(text):
    """Corpus tokens: maximal runs of letters and digits of the lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


def model_by_loops(corpus, basis_words, window):
    """Co-occurrence meaning vectors by walking every window position by position.

    Returns ``(vectors, counts)``, both keyed by token in first-occurrence
    order: each vector lists, per basis word, the in-window occurrences of
    that word around the token (the token's own position excluded, windows
    cut at document ends), divided by the token's occurrence count.
    """
    index = {tok: m for m, tok in enumerate(basis_words)}
    pair = {}
    occ = Counter()
    for doc in corpus:
        n = len(doc)
        for p, tok in enumerate(doc):
            occ[tok] += 1
            row = pair.get(tok)
            if row is None:
                row = pair[tok] = [0] * len(basis_words)
            for q in range(max(0, p - window), min(n, p + window + 1)):
                if q == p:
                    continue
                m = index.get(doc[q])
                if m is not None:
                    row[m] += 1
    vectors = {tok: np.array(row, dtype=float) / occ[tok] for tok, row in pair.items()}
    return vectors, dict(occ)


def model_by_lines(path):
    """A model file read one line and one ``float`` at a time.

    Returns ``(basis words, vectors, counts)``, the dicts in file order.
    Errors and messages are ``load_model``'s: not UTF-8 (raised when the
    undecodable text is reached, after every line before it is checked), no
    ``#basis`` header, repeated basis words, then per line the wrong number
    of fields, a repeated token, a count ``int`` rejects, a coordinate
    ``float`` rejects, or the first non-finite coordinate.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops one leading byte-order mark
            header = fh.readline()
            if not header.startswith("#basis"):
                raise ParseError(f"{path}: missing '#basis' header line")
            words = header.split()[1:]
            if len(set(words)) != len(words):
                word, _ = Counter(words).most_common(1)[0]
                raise ParseError(f"{path}:1: basis words must be distinct, {word!r} repeats")
            vectors, counts = {}, {}
            for ln, line in enumerate(fh, start=2):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != 2 + len(words):
                    raise ParseError(f"{path}:{ln}: expected {2 + len(words)} fields, got {len(fields)}")
                tok = fields[0]
                if tok in counts:
                    raise ParseError(f"{path}:{ln}: duplicate token {tok!r}")
                try:
                    counts[tok] = int(fields[1])
                    coords = [float(text) for text in fields[2:]]
                except ValueError as exc:
                    raise ParseError(f"{path}:{ln}: bad number: {exc}") from None
                for text, x in zip(fields[2:], coords):
                    if not math.isfinite(x):
                        raise ParseError(f"{path}:{ln}: bad number: non-finite coordinate {text!r}")
                vectors[tok] = np.array(coords, dtype=float)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return tuple(words), vectors, counts


def simples(ptype):
    """Package type -> plain (name, z) tuples for the oracles above."""
    return tuple((t.base, t.z) for t in ptype)


def tensor_by_floats(path):
    """A tensor file read value by value with ``float``, as ``read_tensor`` must.

    Same errors and messages as ``read_tensor``: not UTF-8, empty, bad
    dimension line, non-numeric value, wrong value count, then the first
    ``nan`` or infinite value with the line it sits on.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops one leading byte-order mark
            lines = [line.rstrip("\n") for line in fh]  # ended by text mode's line ends only
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    numbered = [(ln, line) for ln, line in enumerate(lines, start=1)
                if not line.lstrip().startswith("#")]
    if not numbered:
        raise ParseError(f"{path}: empty tensor file")
    try:
        shape = tuple(int(tok) for tok in numbered[0][1].split())
    except ValueError:
        raise ParseError(f"{path}: bad dimension line {numbered[0][1]!r}") from None
    values, origins = [], []
    for ln, line in numbered[1:]:
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"{path}: non-numeric tensor value") from None
            origins.append((ln, tok))
    expected = 1
    for d in shape:
        expected *= d
    if len(values) != expected:
        raise ParseError(f"{path}: expected {expected} values for shape {list(shape)}, got {len(values)}")
    for x, (ln, tok) in zip(values, origins):
        if not math.isfinite(x):
            raise ParseError(f"{path}:{ln}: non-finite tensor value {tok!r}")
    return np.array(values, dtype=float).reshape(shape)


@dataclass(frozen=True)
class LexEntry:
    """One lexicon line: a word, its type, and its tensor source spec."""

    word: str
    type: PregroupType
    source: str


def lexicon_by_lines(path, space, model=None):
    """A lexicon file loaded line by line: ``{word: (type, tensor)}`` in file order.

    Every line becomes a ``LexEntry`` with its type parsed anew, its tensor
    resolved through :func:`tensor_by_floats` and its shape computed anew; a
    ``logical:`` entry must then have type ``LOGICAL_TYPE``.
    Errors, their order on a line and their messages are ``load_lexicon``'s,
    for logical words under its size cap.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops one leading byte-order mark
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out = {}
    for ln, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 tab-separated fields, got {len(fields)}")
        word, type_text, source = (f.strip() for f in fields)
        if word in out:
            raise ParseError(f"{path}:{ln}: duplicate entry for {word!r}")
        try:
            ptype = parse_type(type_text)
        except ParseError as exc:
            raise ParseError(f"{path}:{ln}: {exc}") from None
        entry = LexEntry(word, ptype, source)
        tensor = _entry_tensor(entry, space, model, base_dir)
        expected = shape_of(ptype, space)
        if tuple(tensor.shape) != expected:
            raise ShapeError(
                f"{path}:{ln}: word {word!r} has tensor shape "
                f"{list(tensor.shape)} but type {type_text!r} requires {list(expected)}"
            )
        # a logical word's tensor routes the wires of LOGICAL_TYPE and no other type
        if source.startswith("logical:") and ptype != parse_type(LOGICAL_TYPE):
            raise ParseError(f"{path}:{ln}: logical word {word!r} has type {type_text!r}, "
                             f"not {LOGICAL_TYPE!r}")
        out[word] = (ptype, tensor)
    return out


def _entry_tensor(entry, space, model, base_dir):
    src = entry.source

    def file_at(rel):
        path = os.path.join(base_dir, rel)
        if not os.path.exists(path):
            raise ParseError(f"entry {entry.word!r}: referenced file {path!r} does not exist")
        return path

    if src == "vector":
        if model is None:
            raise ParseError(f"entry {entry.word!r} needs a vector model, none was given")
        if entry.word not in model.vectors:
            raise UnknownWordError(f"entry {entry.word!r} is not in the vector model")
        return np.asarray(model.vectors[entry.word], dtype=float)
    if src.startswith("tensor:"):
        return tensor_by_floats(file_at(src[len("tensor:"):]))
    if src.startswith("choi:"):
        return choi_embed(tensor_by_floats(file_at(src[len("choi:"):])))
    try:
        if src == "logical:does":
            return make_logical_does(space).tensor
        if src.startswith("logical:not:"):
            negation = tensor_by_floats(file_at(src[len("logical:not:"):]))
            return make_logical_not(space, negation).tensor
    except SizeCapError as exc:
        raise SizeCapError(f"entry {entry.word!r}: {exc}") from None
    raise ParseError(f"entry {entry.word!r}: unknown source spec {src!r}")
