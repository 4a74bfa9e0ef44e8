"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` (or a numpy ``Generator``) built
from the benchmark seed, so one seed always yields the same inputs.  The
generators only write plain files and strings; nothing here imports
gramflow, so the program under test sees the inputs and nothing else.

Structure that drives cost (sentence classes, adjective counts, wire
counts, corpus size) is fixed per round; the seed picks the words, the
tensor values and the shape of each parse tree.  That keeps the work per
round the same across seeds, so runs with different seeds are comparable.
"""

from __future__ import annotations

import os
import random

import numpy as np

# Word types of the synthetic grammar, in gramflow's type notation.
N = "n"
ADJ = "n n^l"
TV = "n^r s n^l"
IV = "n^r s"
SV = "n^r s s^l"            # verb with a sentential complement
WHO = "n^r n s^l n"         # subject relative pronoun
AND_N = "n^r n n^l"         # noun-phrase coordination
AND_S = "s^r s s^l"         # sentence coordination
LOGICAL = "n^r s s^l n"     # "does" and "not"
AMB = "s^l s s^r"           # sentential connective with two readings
PLANT_LEFT = "x^r"          # planted pair: x^r ... x never cancels
PLANT_RIGHT = "x"


def parse_simple(text: str) -> list[tuple[str, int]]:
    """Read type notation into (base, adjoint order) pairs, independently of gramflow."""
    out = []
    for tok in text.split():
        base, _, marks = tok.partition("^")
        out.append((base, sum(1 if m == "r" else -1 for m in marks)))
    return out


# --------------------------------------------------------------------------
# pseudo-words


_ONSETS = "b c d f g h j k l m n p r s t v w z br dr gr kl pl st tr".split()
_VOWELS = "a e i o u ai ea io".split()


def pseudo_words(rng: random.Random, count: int, taken=()) -> list[str]:
    """Distinct lowercase alphabetic words, none of which is in ``taken``."""
    seen = set(taken)
    words = []
    while len(words) < count:
        syl = rng.randint(2, 4)
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syl))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


# --------------------------------------------------------------------------
# tensor and lexicon files


def write_tns(path: str, arr: np.ndarray) -> None:
    """Write the whitespace tensor format with repr floats (bit-exact)."""
    arr = np.asarray(arr, dtype=float)
    lines = [" ".join(str(d) for d in arr.shape)]
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
    lines.extend(" ".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_model(path: str, basis: list[str], vectors: dict, counts: dict) -> None:
    """Write a model file in gramflow's format: '#basis' header, then sorted words."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#basis " + " ".join(basis) + "\n")
        for tok in sorted(vectors):
            coords = " ".join(repr(float(x)) for x in vectors[tok])
            fh.write(f"{tok} {counts[tok]} {coords}\n")


class Vocabulary:
    """Words by part of speech plus the tensors the lexicon gives them.

    ``tensors`` maps a word to the array gramflow should bind it to: the
    noun vector, the adjective matrix, the verb tensor, the intransitive
    verb matrix (stored through ``choi:``, whose state equals the matrix),
    and for "not" the negation matrix on the sentence space.
    """

    def __init__(self, seed: int, dim: int, counts: dict, vector_nouns: int = 0):
        rng = random.Random(f"{seed}:vocabulary")
        nrng = np.random.default_rng([seed, 1])
        total = sum(counts.values()) + vector_nouns
        names = iter(pseudo_words(rng, total, taken=("does", "not")))
        self.dim = dim
        self.pos = {p: [next(names) for _ in range(c)] for p, c in counts.items()}
        self.pos["vnoun"] = [next(names) for _ in range(vector_nouns)]
        shapes = {"noun": (dim,), "adj": (dim, dim), "tv": (dim, dim, dim), "iv": (dim, dim),
                  "vnoun": (dim,)}
        scale = {"noun": 1.0, "adj": dim ** -0.5, "tv": dim ** -0.5, "iv": dim ** -0.5,
                 "vnoun": 1.0}
        self.tensors = {}
        for p, words in self.pos.items():
            for w in words:
                self.tensors[w] = nrng.standard_normal(shapes[p]) * scale[p]
        self.negation = nrng.standard_normal((dim, dim)) * dim ** -0.5

    def write_lexicon(self, directory: str, model_words=()) -> str:
        """Write .tns files and a lexicon.tsv mixing tensor, choi, logical and vector entries."""
        tdir = os.path.join(directory, "tensors")
        os.makedirs(tdir, exist_ok=True)
        kinds = {"noun": ("tensor", N), "adj": ("tensor", ADJ), "tv": ("tensor", TV),
                 "iv": ("choi", IV)}
        lines = []
        for p, (src, typ) in kinds.items():
            for w in self.pos.get(p, []):
                write_tns(os.path.join(tdir, w + ".tns"), self.tensors[w])
                lines.append(f"{w}\t{typ}\t{src}:tensors/{w}.tns")
        for w in model_words:
            lines.append(f"{w}\t{N}\tvector")
        write_tns(os.path.join(tdir, "negation.tns"), self.negation)
        lines.append(f"does\t{LOGICAL}\tlogical:does")
        lines.append(f"not\t{LOGICAL}\tlogical:not:tensors/negation.tns")
        path = os.path.join(directory, "lexicon.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# generated benchmark lexicon\n" + "\n".join(lines) + "\n")
        return path

    def write_vector_model(self, directory: str) -> str:
        """A small model whose basis size equals the noun dimension, holding the vector nouns."""
        rng = random.Random(f"{self.dim}:{len(self.pos['vnoun'])}:basis")
        basis = pseudo_words(rng, self.dim, taken=set(self.tensors) | {"does", "not"})
        counts = {w: 3 + i for i, w in enumerate(self.pos["vnoun"])}
        vectors = {w: self.tensors[w] for w in self.pos["vnoun"]}
        path = os.path.join(directory, "model.txt")
        write_model(path, basis, vectors, counts)
        return path


# --------------------------------------------------------------------------
# sentences workload


# one round: (class, adjectives on the subject, adjectives on the object,
# transitive?).  The cheap intransitive and SVO classes hold the median
# and "does not" holds the tail, each well inside its class.
SENTENCE_ROUND = (
    [("svo", 0, 0, True)] * 14
    + [("intrans", 0, 0, False)] * 6
    + [("adj", a, b, True) for a, b in ((1, 0), (2, 1), (3, 2), (1, 1), (2, 0))]
    + [("adj", a, 0, False) for a in (1, 2, 3)]
    + [("does_not", 0, 0, True)] * 5
    + [("does_not", 0, 0, False)] * 1
)


class Sentence:
    """A generated sentence with everything needed to check its meaning."""

    __slots__ = ("cls", "text", "words", "subject", "verb", "obj")

    def __init__(self, cls, words, subject, verb, obj):
        self.cls = cls
        self.words = words
        self.subject = subject      # (adjectives..., noun)
        self.verb = verb
        self.obj = obj              # (adjectives..., noun) or None
        text = " ".join(words)
        self.text = text[0].upper() + text[1:] + "."


def sentence_round(vocab: Vocabulary, rng: random.Random, nouns=None) -> list[Sentence]:
    """One round of sentences in seeded order; structure per round is fixed."""
    nouns = nouns or vocab.pos["noun"]
    out = []
    for cls, na, nb, transitive in SENTENCE_ROUND:
        subject = tuple(rng.choice(vocab.pos["adj"]) for _ in range(na)) + (rng.choice(nouns),)
        if transitive:
            verb = rng.choice(vocab.pos["tv"])
            obj = tuple(rng.choice(vocab.pos["adj"]) for _ in range(nb)) + (rng.choice(nouns),)
        else:
            verb, obj = rng.choice(vocab.pos["iv"]), None
        words = list(subject)
        if cls == "does_not":
            words += ["does", "not"]
        words.append(verb)
        if obj:
            words += list(obj)
        out.append(Sentence(cls, words, subject, verb, obj))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# long_parse workload


# wire counts of one round: evenly spaced, so that percentiles of parse
# time move smoothly rather than jump between a few sizes; all odd, since
# a sequence that reduces to s (but for one planted pair) has odd length.
# Rounds shift them by 0, 2 or 4 wires in turn, so that a run's parse
# times have no wide gaps for its median to fall into.
LONG_LENGTHS = tuple(range(35, 252, 6))
LONG_SHIFTS = (0, 2, 4)
LONG_KINDS = ("grammatical", "nonreducing", "ambiguous")


class _Grammar:
    """Random derivations of an exact wire budget; every one reduces to s."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def odd_split(self, lo: int, hi: int) -> int:
        return lo + 2 * self.rng.randint(0, (hi - lo) // 2)

    def noun_phrase(self, b: int) -> list[str]:
        if b == 1:
            return [N]
        r = self.rng.random()
        if b >= 7 and r < 0.3:                       # NP who VP
            head = self.odd_split(1, b - 6)
            return self.noun_phrase(head) + [WHO] + self.verb_phrase(b - head - 4)
        if b >= 5 and r < 0.55:                      # NP and NP
            left = self.odd_split(1, b - 4)
            return self.noun_phrase(left) + [AND_N] + self.noun_phrase(b - left - 3)
        return [ADJ] + self.noun_phrase(b - 2)

    def verb_phrase(self, b: int) -> list[str]:
        if b == 2:
            return [IV]
        r = self.rng.random()
        if b >= 10 and r < 0.2:
            return [LOGICAL, LOGICAL] + self.verb_phrase(b - 8)
        if b >= 6 and r < 0.5:
            return [SV] + self.clause(b - 3)
        return [TV] + self.noun_phrase(b - 3)

    def clause(self, b: int) -> list[str]:
        subj = self.odd_split(1, b - 2)
        return self.noun_phrase(subj) + self.verb_phrase(b - subj)

    def sentence(self, b: int, joiner=None) -> list[str]:
        """Clauses joined by ``and``; with ``joiner`` the first join uses it instead."""
        if b >= 9 and (joiner or self.rng.random() < 0.5):
            first = self.odd_split(3, b - 6)
            return self.clause(first) + [joiner or AND_S] + self.sentence(
                b - first - 3, AMB if joiner and self.rng.random() < 0.5 else None)
        return self.clause(b)


def long_sequence(rng: random.Random, kind: str, length: int) -> list[str]:
    """Word types of one long_parse input, with exactly ``length`` wires."""
    g = _Grammar(rng)
    if kind == "grammatical":
        return g.sentence(length)
    if kind == "ambiguous":
        return g.sentence(length, joiner=AMB)
    words = g.sentence(length - 2)
    i = rng.randint(0, len(words))
    j = rng.randint(i, len(words))
    return words[:i] + [PLANT_LEFT] + words[i:j] + [PLANT_RIGHT] + words[j:]


def long_round(rng: random.Random, seen: set, shift: int) -> list[tuple[str, str]]:
    """(kind, type text) for each length plus ``shift``, kinds taken in turn, shuffled.

    No text repeats.
    """
    items = []
    for i, length in enumerate(n + shift for n in LONG_LENGTHS):
        kind = LONG_KINDS[i % len(LONG_KINDS)]
        while True:
            text = " ".join(long_sequence(rng, kind, length))
            if text not in seen:
                seen.add(text)
                break
        items.append((kind, text))
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------------
# corpus workload


def zipf_corpus(seed: int, index: int, tokens: int, vocab_size: int):
    """A Zipf-distributed corpus as text plus its token ids and document ids.

    Returns (text, words, ids, doc_of): ``words[ids[t]]`` is token t as
    gramflow's tokenizer will read it back and ``doc_of[t]`` its document.
    Sentence capitals and full stops are added so tokenizing does real work.
    """
    rng = random.Random(f"{seed}:corpus-words")
    words = pseudo_words(rng, vocab_size)
    nrng = np.random.default_rng([seed, 2, index])
    ranks = np.arange(1, vocab_size + 1, dtype=float)
    p = 1.0 / (ranks + 2.7) ** 1.07
    ids = nrng.choice(vocab_size, size=tokens, p=p / p.sum())
    doc_len = nrng.integers(80, 320, size=tokens // 80 + 1)
    bounds = np.concatenate([[0], np.cumsum(doc_len)])
    bounds = bounds[bounds < tokens].tolist() + [tokens]
    doc_of = np.zeros(tokens, dtype=np.int64)
    docs = []
    for d, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        doc_of[a:b] = d
        toks = [words[k] for k in ids[a:b]]
        parts = []
        for s in range(0, len(toks), 15):
            chunk = toks[s:s + 15]
            parts.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        docs.append(" ".join(parts))
    return "\n\n".join(docs) + "\n", words, ids, doc_of
