"""Independent reference implementations used to check the package.

Everything here is deliberately dumb and self-contained: simple types are
plain (name, z) tuples, diagrams are tuples of index pairs, and no code is
shared with the package's search or contraction machinery.
"""

from collections import Counter
from itertools import product

import numpy as np


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


def meaning_by_loops(tensors, sizes, links, through, dims):
    """Sentence tensor by explicit summation over every multi-index.

    ``tensors`` are the word arrays, ``sizes`` the number of wire positions
    each word owns, ``dims`` the per-position dimensions.  Sums the product
    of word entries over all full index assignments where every linked pair
    agrees, accumulating into the surviving positions.
    """
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


def simples(ptype):
    """Package type -> plain (name, z) tuples for the oracles above."""
    return tuple((t.base.name, t.z) for t in ptype)
