"""The four benchmark workloads.

Each workload generates its inputs from the seed in ``prepare``, produces
rounds of operations with a fixed structure (``round``), runs one
operation through the public gramflow API (``op``) and checks its output
against an answer derived independently of the code being timed
(``check``).  ``setup_code`` is the program's own set-up, run in a fresh
interpreter to time it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
from itertools import chain
from time import perf_counter

import numpy as np

import checks
import generators as G

DIM = 8


class Workload:
    name = ""
    item = "operation"          # what throughput counts

    def __init__(self, seed: int, work: str, root: str):
        self.seed = seed
        self.work = work
        self.root = root

    def rng(self, round_index):
        return random.Random(f"{self.seed}:{self.name}:{round_index}")

    def prepare(self):
        """Write input files; runs once, before anything is timed."""

    def load(self, api):
        """In-process program set-up (e.g. loading the lexicon)."""

    def setup_code(self) -> str:
        """Python statements the program's set-up runs after ``import gramflow``."""
        return ""

    def scope(self, item) -> dict:
        return {}

    def lap(self):
        """Called by ``op`` between stages of a long operation (see probe.Scaler)."""

    def after_op(self):
        """Runs after each operation, outside the measured time."""

    def items_of(self, item, out) -> int:
        return 1

    def summary(self):
        return []


# --------------------------------------------------------------------------


SENTENCE_TYPES = {"noun": G.N, "adj": G.ADJ, "tv": G.TV, "iv": G.IV}


def _type_table(vocab):
    table = {w: SENTENCE_TYPES[p] for p, ws in vocab.pos.items() if p in SENTENCE_TYPES
             for w in ws}
    table.update({w: G.N for w in vocab.pos["vnoun"]})
    table["does"] = table["not"] = G.LOGICAL
    return table


class Sentences(Workload):
    """Library path: tokenize -> bind -> reduce -> meaning, cosine of consecutive pairs."""

    name = "sentences"
    item = "sentence"

    def prepare(self):
        self.vocab = G.Vocabulary(self.seed, DIM, {"noun": 120, "adj": 40, "tv": 40, "iv": 30})
        self.lexicon = self.vocab.write_lexicon(self.work)
        self.types = _type_table(self.vocab)
        self.prev = None            # previous sentence's vector, for the cosine pair
        self.prev_expected = None
        self.digest = hashlib.sha256()

    def setup_code(self):
        return (f"gramflow.load_lexicon({self.lexicon!r}, "
                f"gramflow.SpaceAssignment({{'n': {DIM}, 's': {DIM}}}))")

    def load(self, api):
        self.space = api.gf.SpaceAssignment({"n": DIM, "s": DIM})
        self.lex = api.load_lexicon(self.lexicon, self.space)
        self.target = api.parse_type("s")

    def round(self, r):
        return G.sentence_round(self.vocab, self.rng(r))

    def scope(self, item):
        return {"class": item.cls}

    def op(self, api, item):
        words = api.tokenize(item.text)
        bound = [self.lex.bind(w) for w in words]
        seq = api.gf.PregroupType(tuple(chain.from_iterable(b.type for b in bound)))
        diagram = api.reduce(seq, self.target)
        vec = api.meaning(bound, diagram, self.space)
        cos = api.cosine(self.prev, vec) if self.prev is not None else None
        self.prev = vec
        return words, diagram, vec, cos

    def check(self, item, out):
        words, diagram, vec, cos = out
        want = checks.expected_meaning(self.vocab, item)
        prev, self.prev_expected = self.prev_expected, want
        if words != item.words:
            return f"tokenize gave {words}"
        if diagram is None:
            return "grammatical sentence rejected"
        got = checks.links_of(diagram)
        self.digest.update(repr(got).encode())
        if got != checks.stack_reduce(checks.sentence_types(item, self.types)):
            return f"reduce returned {got}, not the leftmost-innermost diagram"
        if not checks.close(vec, want):
            return "meaning differs from the closed form"
        if prev is not None and not checks.close(cos, checks.expected_cosine(prev, want)):
            return "cosine differs from the closed form"
        return None

    def summary(self):
        return [f"reduce diagram digest {self.digest.hexdigest()[:16]}"]


# --------------------------------------------------------------------------


ENUMERATE_LIMIT = 16


class LongParse(Workload):
    """Pure grammar checking: long distinct sequences, three verdict kinds."""

    name = "long_parse"
    item = "parse"

    def prepare(self):
        self.seen = set()

    def load(self, api):
        self.target = api.parse_type("s")

    def round(self, r):
        return G.long_round(self.rng(r), self.seen, G.LONG_SHIFTS[r % len(G.LONG_SHIFTS)])

    def scope(self, item):
        return {"kind": item[0]}

    def op(self, api, item):
        kind, text = item
        seq = api.parse_type(text)
        diagram = api.reduce(seq, self.target)
        witnesses = None
        if kind == "ambiguous":
            witnesses = api.enumerate_reductions(seq, self.target, ENUMERATE_LIMIT)
        return diagram, witnesses

    def check(self, item, out):
        kind, text = item
        diagram, witnesses = out
        simples = G.parse_simple(text)
        if kind == "nonreducing":
            return None if diagram is None else "planted non-reducing sequence was reduced"
        if diagram is None:
            return f"{kind} sequence of {len(simples)} wires rejected"
        err = checks.diagram_error(simples, *checks.links_of(diagram))
        if err or kind != "ambiguous":
            return err
        found = [checks.links_of(d) for d in witnesses]
        if len(found) < 2 or len(set(found)) != len(found):
            return f"expected several distinct witnesses, got {len(found)}"
        if found[0] != checks.links_of(diagram):
            return "first enumerated witness differs from reduce"
        if [links for links, _ in found] != sorted(links for links, _ in found):
            return "witnesses are not in canonical (leftmost, innermost first) order"
        for links in found:
            err = checks.diagram_error(simples, *links)
            if err:
                return "enumerated witness: " + err
        return None


# --------------------------------------------------------------------------


CORPUS_TOKENS = 500_000
CORPUS_VOCAB = 12_000
BASIS_SIZE = 300
CHECKED_VECTORS = 24


class Corpus(Workload):
    """Distributional path: corpus -> basis -> model -> save -> load, one pass per op."""

    name = "corpus"
    item = "corpus token"

    def prepare(self):
        self.path = os.path.join(self.work, "corpus.txt")
        self.model_path = os.path.join(self.work, "model.txt")
        self.stage = {"build": [], "save": [], "load": [], "bytes": []}

    def round(self, r):
        tokens = CORPUS_TOKENS if r >= 0 else CORPUS_TOKENS // 25   # small warm-up pass
        text, words, ids, doc_of = G.zipf_corpus(self.seed, r + 1, tokens, CORPUS_VOCAB)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return [(r, words, ids, doc_of)]

    def items_of(self, item, out):
        return len(item[2])

    def op(self, api, item):
        t0 = perf_counter()
        docs = api.load_corpus([self.path])
        basis = api.build_basis(docs, BASIS_SIZE)
        model = api.build_model(docs, basis)
        t1 = perf_counter()
        self.lap()
        t2 = perf_counter()
        api.save_model(model, self.model_path)
        t3 = perf_counter()
        self.lap()
        t4 = perf_counter()
        loaded = api.load_model(self.model_path)
        t5 = perf_counter()
        if item[0] >= 0:
            self.stage["build"].append(t1 - t0)
            self.stage["save"].append(t3 - t2)
            self.stage["load"].append(t5 - t4)
            self.stage["bytes"].append(os.path.getsize(self.model_path))
        return model, loaded

    def check(self, item, out):
        r, words, ids, doc_of = item
        model, loaded = out
        err = checks.model_roundtrip_error(model, loaded)
        if err:
            return err
        basis, freq = checks.expected_basis(words, ids, BASIS_SIZE)
        if tuple(model.basis.words) != basis:
            return "basis is not the top-k tokens by frequency"
        if model.counts != {words[w]: int(freq[w]) for w in np.flatnonzero(freq)}:
            return "occurrence counts differ from the generated corpus"
        position = {w: i for i, w in enumerate(words)}
        index = np.full(len(words), -1, dtype=np.int64)
        index[[position[b] for b in basis]] = np.arange(len(basis))
        rng = random.Random(f"{self.seed}:corpus-check:{r}")
        for w in rng.sample(sorted(np.flatnonzero(freq).tolist()), CHECKED_VECTORS):
            want = checks.expected_vector(ids, doc_of, index, w, len(basis))
            if model.vectors[words[w]].tobytes() != want.tobytes():
                return f"vector of {words[w]!r} differs from the generated corpus"
        return None

    def summary(self):
        s = self.stage
        if not s["build"]:
            return []
        return [
            f"  corpus_tokens_per_s (build only) {CORPUS_TOKENS * len(s['build']) / sum(s['build']):.6g} 1/s",
            f"  model_save_s      {np.median(s['save']):.4f} s",
            f"  model_load_s      {np.median(s['load']):.4f} s",
            f"model file {np.median(s['bytes']) / 1e6:.1f} MB, "
            f"{len(s['build'])} passes of {CORPUS_TOKENS} tokens",
        ]


# --------------------------------------------------------------------------


# one round: (subcommand, grammatical?, sentence classes); an ungrammatical
# sentence is an intransitive one with a noun appended
CLI_ROUND = [("parse", True, ("svo",)), ("meaning", True, ("does_not",)),
             ("compare", True, ("svo", "adj")), ("parse", False, ("intrans",)),
             ("meaning", True, ("adj",)), ("compare", True, ("does_not", "svo"))]


class Cli(Workload):
    """One `gramflow --json parse|meaning|compare` request per call, through cli.main.

    Each call parses its arguments and reloads the model and the lexicon,
    as a CLI process does.  Interpreter start and import are the set-up,
    timed in fresh interpreters: timed per call in a child process, they
    swung the median call by a quarter between runs on a shared machine.
    """

    name = "cli"
    item = "CLI call"

    def prepare(self):
        # ~2,000 entries, most of them vectors from one model file: a call
        # spends most of its time parsing what it loads, as CLI calls do, and
        # a 20 s run makes a few hundred calls, well inside the p95 band
        self.vocab = G.Vocabulary(self.seed, DIM, {"noun": 10, "adj": 20, "tv": 20, "iv": 10},
                                  vector_nouns=2000)
        self.model = self.vocab.write_vector_model(self.work)
        self.lexicon = self.vocab.write_lexicon(self.work, model_words=self.vocab.pos["vnoun"])
        self.types = _type_table(self.vocab)
        self.nouns = self.vocab.pos["noun"] + self.vocab.pos["vnoun"]

    def setup_code(self):
        return ("import gramflow.cli\n"
                f"m = gramflow.load_model({self.model!r})\n"
                f"gramflow.load_lexicon({self.lexicon!r}, gramflow.SpaceAssignment("
                f"{{'n': len(m.basis.words), 's': {DIM}}}), m)")

    def round(self, r):
        rng = self.rng(r)
        pool = {}
        for sent in G.sentence_round(self.vocab, rng, self.nouns):
            pool.setdefault(sent.cls, []).append(sent)
        calls = []
        for sub, grammatical, classes in CLI_ROUND:
            sents = [pool[cls].pop() for cls in classes]
            texts = [s.text for s in sents]
            if not grammatical:
                texts[0] = texts[0][:-1] + " " + rng.choice(self.nouns) + "."
            argv = ["--json", sub, *texts, "--lexicon", self.lexicon, "--model", self.model,
                    "--dims", f"s:{DIM}"]
            calls.append((sub, grammatical, sents, argv))
        return calls

    def scope(self, item):
        return {"sub": item[0]}

    def after_op(self):
        # a CLI process starts with an empty heap: no call pays for
        # collecting the garbage of the calls before it
        gc.collect()

    def op(self, api, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = api.cli_main(item[3])
        return code, buf.getvalue()

    def check(self, item, out):
        sub, grammatical, sents, _ = item
        code, stdout = out
        want_code = 0 if grammatical else 1
        if code != want_code:
            return f"{sub} exited {code}, expected {want_code}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"{sub} printed no JSON line"
        if not grammatical:
            return None if payload.get("grammatical") is False else "rejection not reported"
        if sub == "compare":
            want = checks.expected_cosine(*(checks.expected_meaning(self.vocab, s) for s in sents))
            return None if checks.close(payload.get("cosine"), want) else "cosine is wrong"
        s = sents[0]
        simples = checks.sentence_types(s, self.types)
        links, through = checks.stack_reduce(simples)
        if (payload.get("words") != s.words
                or payload.get("types") != [self.types[w] for w in s.words]
                or payload.get("links") != [list(link) for link in links]
                or payload.get("through") != list(through)):
            return f"{sub} JSON fields are wrong"
        if sub == "parse":
            return None if payload.get("grammatical") is True else "grammatical flag missing"
        want = checks.expected_meaning(self.vocab, s)
        return None if checks.close(payload.get("vector"), want) else "meaning vector is wrong"


WORKLOADS = {w.name: w for w in (Sentences, LongParse, Corpus, Cli)}
