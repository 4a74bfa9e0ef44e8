"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned in each test; the grammar criterion compares the
package against the brute-force planar-matching oracle over every type
sequence of length <= 8 built from {n, s} with adjoint orders {-1, 0, +1}.
"""

import json
import multiprocessing
import subprocess
import sys
import time
from itertools import product

import numpy as np

import gramflow.demo as demo
from gramflow import (
    PregroupType,
    SimpleType,
    SpaceAssignment,
    WordMeaning,
    build_basis,
    build_model,
    choi_embed,
    cosine,
    cup,
    kron,
    load_lexicon,
    load_model,
    meaning,
    meaning_naive,
    parse_type,
    reduce,
    save_model,
    shape_of,
)
from gramflow.pregroup import left_adjoint, right_adjoint

from oracles import oracle_exists, snake_by_loops

SENT = parse_type("s")
ALPHABET = [SimpleType(b, z) for b in ("n", "s") for z in (-1, 0, 1)]
PLAIN = [(t.base, t.z) for t in ALPHABET]
TARGET_PLAIN = (("s", 0),)


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# 1 ------------------------------------------------------------------------

def test_c1_snake_identity():
    # a cap word (n n) then a cup word (n^r n): the reduction's cup yanks the
    # wire straight, so meaning returns the identity, as the loops do
    start = time.monotonic()
    worst = 0.0
    for d in range(1, 9):
        cap = WordMeaning("cap", parse_type("n n"), cup(d))
        state = WordMeaning("cup", parse_type("n^r n"), cup(d))
        yank = meaning([cap, state], reduce(cap.type + state.type, cap.type), SpaceAssignment({"n": d}))
        assert np.array_equal(snake_by_loops(d), np.eye(d))
        worst = max(worst, float(np.max(np.abs(yank - np.eye(d)))))
    elapsed = time.monotonic() - start
    report(1, "snake-identity", worst < 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


# 2 ------------------------------------------------------------------------

def _grammar_chunk(args):
    length, first = args
    checked = mismatches = 0
    tail = length - 1
    for rest in product(range(6), repeat=tail):
        combo = (first,) + rest
        seq = PregroupType(tuple(ALPHABET[c] for c in combo))
        mine = reduce(seq, SENT) is not None
        theirs = oracle_exists(tuple(PLAIN[c] for c in combo), TARGET_PLAIN)
        checked += 1
        mismatches += mine != theirs
    return checked, mismatches


def test_c2_grammar_recognition():
    d = reduce(parse_type("n n^r s n^l n"), SENT)
    fixed_ok = d.links == ((0, 1), (3, 4)) and d.through == (2,)
    fixed_ok &= reduce(parse_type("n n^r s n^l"), SENT) is None

    start = time.monotonic()
    checked = mismatches = 0
    for length in range(1, 5):
        for combo in product(range(6), repeat=length):
            seq = PregroupType(tuple(ALPHABET[c] for c in combo))
            mine = reduce(seq, SENT) is not None
            theirs = oracle_exists(tuple(PLAIN[c] for c in combo), TARGET_PLAIN)
            checked += 1
            mismatches += mine != theirs
    chunks = [(length, first) for length in range(5, 9) for first in range(6)]
    with multiprocessing.Pool(2) as pool:
        for got, bad in pool.imap_unordered(_grammar_chunk, chunks):
            checked += got
            mismatches += bad
    elapsed = time.monotonic() - start

    expected_total = sum(6 ** n for n in range(1, 9))
    ok = fixed_ok and mismatches == 0 and checked == expected_total and elapsed < 30.0
    report(2, "grammar-recognition", ok,
           f"{checked} sequences, {mismatches} mismatches, {elapsed:.1f}s")


# 3 ------------------------------------------------------------------------

def _random_reducible_sentence(rng):
    simples = [SimpleType("s", 0)]
    for _ in range(int(rng.integers(1, 6))):
        t = ALPHABET[int(rng.integers(0, 6))]
        pair = [t, right_adjoint(t)] if rng.random() < 0.5 else [left_adjoint(t), t]
        at = int(rng.integers(0, len(simples) + 1))
        simples[at:at] = pair
    return PregroupType(tuple(simples))


def test_c3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 200:
        seq = _random_reducible_sentence(rng)
        space = SpaceAssignment({"n": int(rng.integers(1, 5)), "s": int(rng.integers(1, 5))})
        total = 1
        for t in seq:
            total *= space.dim(t.base)
        if total > 100_000:
            continue
        n_words = int(rng.integers(1, min(5, len(seq)) + 1))
        cuts = sorted(rng.choice(range(1, len(seq)), size=n_words - 1, replace=False).tolist()) \
            if n_words > 1 else []
        bounds = [0] + cuts + [len(seq)]
        words = []
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            wtype = PregroupType(tuple(seq)[lo:hi])
            words.append(WordMeaning(f"w{k}", wtype, rng.normal(size=shape_of(wtype, space))))
        diagram = reduce(seq, SENT)
        fast = meaning(words, diagram, space)
        slow = meaning_naive(words, diagram, space)
        scale = max(1.0, float(np.max(np.abs(slow))))
        worst = max(worst, float(np.max(np.abs(fast - slow))) / scale)
        checked += 1
    elapsed = time.monotonic() - start
    report(3, "oracle-equivalence", worst <= 1e-9 and elapsed < 60.0,
           f"200 sentences, worst relative error {worst:.2e}, {elapsed:.1f}s")


# 4 ------------------------------------------------------------------------

def test_c4_choi_retraction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        d_in, d_out = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        space = SpaceAssignment({"n": d_in, "s": d_out})
        f = rng.normal(size=(d_in, d_out))
        v = rng.normal(size=d_in)
        words = [
            WordMeaning("subject", parse_type("n"), v),
            WordMeaning("verb", parse_type("n^r s"), choi_embed(f)),
        ]
        got = meaning(words, reduce(words[0].type + words[1].type, SENT), space)
        worst = max(worst, float(np.max(np.abs(got - f.T @ v))))
    report(4, "choi-retraction", worst < 1e-12, f"worst deviation {worst:.2e}")


# 5 ------------------------------------------------------------------------

def _demo_sentence_vector(lex, space, sentence):
    bound = [lex.bind(w) for w in sentence.split()]
    seq = PregroupType(())
    for w in bound:
        seq = seq + w.type
    return meaning(bound, reduce(seq, SENT), space)


def test_c5_word_order_sensitivity():
    space = SpaceAssignment({"n": 2, "s": 2})
    lex = load_lexicon(demo.lexicon_path(), space)
    value = cosine(
        _demo_sentence_vector(lex, space, "alice hates bob"),
        _demo_sentence_vector(lex, space, "bob hates alice"),
    )
    report(5, "word-order-sensitivity", value < 0.999, f"cosine {value:.6f}")


# 6 ------------------------------------------------------------------------

def _transitive_vector(subject, verb, obj, space):
    words = [
        WordMeaning("a", parse_type("n"), subject),
        WordMeaning("v", parse_type("n^r s n^l"), verb),
        WordMeaning("b", parse_type("n"), obj),
    ]
    seq = words[0].type + words[1].type + words[2].type
    return meaning(words, reduce(seq, SENT), space)


def test_c6_separability_degeneracy():
    rng = np.random.default_rng(11)
    space = SpaceAssignment({"n": 3, "s": 2})

    degenerate_ok = True
    for _ in range(50):
        verb = kron(kron(rng.normal(size=3), rng.normal(size=2)), rng.normal(size=3))
        w = rng.normal(size=3)
        m1 = _transitive_vector(rng.normal(size=3), verb, w, space)
        m2 = _transitive_vector(rng.normal(size=3), verb, w, space)
        if not np.any(m1) or not np.any(m2):
            continue
        degenerate_ok &= abs(abs(cosine(m1, m2)) - 1.0) <= 1e-9

    expressive_ok = True
    for _ in range(50):
        verb = rng.normal(size=(3, 2, 3))
        w = rng.normal(size=3)
        broke = False
        for _ in range(20):
            m1 = _transitive_vector(rng.normal(size=3), verb, w, space)
            m2 = _transitive_vector(rng.normal(size=3), verb, w, space)
            if np.any(m1) and np.any(m2) and abs(abs(cosine(m1, m2)) - 1.0) > 1e-9:
                broke = True
                break
        expressive_ok &= broke

    report(6, "separability-degeneracy", degenerate_ok and expressive_ok,
           "product verbs collapse subjects, generic verbs do not")


# 7 ------------------------------------------------------------------------

def test_c7_logical_negation_theorem():
    rng = np.random.default_rng(13)
    space = SpaceAssignment({"n": 2, "s": 2})
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    from gramflow import make_logical_does, make_logical_not

    does = make_logical_does(space)
    negation = make_logical_not(space, swap)
    worst = 0.0
    for _ in range(50):
        subject = WordMeaning("a", parse_type("n"), rng.normal(size=2))
        verb = WordMeaning("v", parse_type("n^r s n^l"), rng.normal(size=(2, 2, 2)))
        obj = WordMeaning("b", parse_type("n"), rng.normal(size=2))

        plain_seq = subject.type + verb.type + obj.type
        plain = meaning([subject, verb, obj], reduce(plain_seq, SENT), space)

        words = [subject, does, negation, verb, obj]
        seq = PregroupType(())
        for w in words:
            seq = seq + w.type
        negated = meaning(words, reduce(seq, SENT), space)
        worst = max(worst, float(np.max(np.abs(negated - swap @ plain))))
    report(7, "logical-negation-theorem", worst < 1e-12, f"worst deviation {worst:.2e}")


# 8 ------------------------------------------------------------------------

def test_c8_exact_synonym_corpus(tmp_path):
    rng = np.random.default_rng(17)
    vocab = ["alice", "bob", "sees", "likes", "park", "tree"]
    corpus = [
        [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(3, 9)))]
        for _ in range(12)
    ]
    corpus.append(["alice", "sees", "bob"])  # make sure the twin source occurs
    twinned = list(corpus)
    for doc in corpus:
        if "alice" in doc:
            twinned.append(["twin" if tok == "alice" else tok for tok in doc])

    basis = build_basis(twinned, 4)
    model = build_model(twinned, basis)
    sim = cosine(model.vectors["alice"], model.vectors["twin"])
    sim_ok = sim == 1.0

    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(model, p1)
    permuted = twinned[::-1]
    save_model(build_model(permuted, basis), p2)
    bits_ok = p1.read_bytes() == p2.read_bytes()

    report(8, "exact-synonym-corpus", sim_ok and bits_ok,
           f"cosine {sim!r}, permutation bit-identical {bits_ok}")


# 9 ------------------------------------------------------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "gramflow", *args],
                          capture_output=True, text=True)


def test_c9_cli_contract(tmp_path):
    demo_args = ["--lexicon", demo.lexicon_path(), "--dims", "n:2,s:2"]
    ok = True

    out = _cli("parse", "Alice hates Bob", *demo_args)
    ok &= out.returncode == 0 and "links (0,1) (3,4); through 2" in out.stdout
    ok &= _cli("parse", "Alice hates", *demo_args).returncode == 1
    ok &= _cli("parse", "Alice xyzzy Bob", *demo_args).returncode == 2

    out = _cli("--json", "meaning", "Alice hates Bob", *demo_args)
    ok &= out.returncode == 0 and json.loads(out.stdout)["vector"] == [1.0, 0.0]

    # bitwise JSON round-trip against the library value
    out = _cli("--json", "meaning", "Alice does not like Bob", *demo_args)
    space = SpaceAssignment({"n": 2, "s": 2})
    lex = load_lexicon(demo.lexicon_path(), space)
    expected = _demo_sentence_vector(lex, space, "alice does not like bob")
    ok &= json.loads(out.stdout)["vector"] == [float(x) for x in expected]

    out = _cli("--json", "compare", "Alice hates Bob", "Bob hates Alice", *demo_args)
    ok &= out.returncode == 0 and json.loads(out.stdout)["cosine"] < 0.999

    model_path = tmp_path / "model.txt"
    out = _cli("space", "build", demo.corpus_path(), "-k", "4", "--out", str(model_path))
    ok &= out.returncode == 0
    model = load_model(model_path)
    ok &= model.basis.words == ("alice", "bob", "hates", "likes")
    ok &= all(len(v) == 4 for v in model.vectors.values())

    out = _cli("demo", "snake", "-d", "8")
    ok &= out.returncode == 0 and "PASS" in out.stdout

    report(9, "cli-contract", ok, "five subcommands, exit codes 0/1/2, bitwise JSON")
