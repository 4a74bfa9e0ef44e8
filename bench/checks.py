"""Output checks that do not use the gramflow code being timed.

Each check here derives the expected answer from how the input was
generated (closed forms, a stack reducer, counts made with numpy) and
returns an error message, or ``None`` when the output is right.
"""

from __future__ import annotations

import numpy as np

from generators import parse_simple

TOL = 1e-9


def close(got, want) -> bool:
    """Equal within 1e-9 relative to the larger of 1 and the expected magnitude."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    return bool(np.max(np.abs(got - want), initial=0.0) <= TOL * scale)


# --------------------------------------------------------------------------
# diagrams


def contracts(a, b) -> bool:
    return a[0] == b[0] and b[1] == a[1] + 1


def stack_reduce(simples):
    """Cancel each wire against the nearest open wire to its left, when they contract.

    Returns (links, through).  On the sentence grammar of the benchmark,
    whose reductions are unique, this is the reduction gramflow must find.
    """
    stack, links = [], []
    for p, t in enumerate(simples):
        if stack and contracts(simples[stack[-1]], t):
            links.append((stack.pop(), p))
        else:
            stack.append(p)
    return tuple(sorted(links)), tuple(stack)


def diagram_error(simples, links, through, target=(("s", 0),)):
    """Check a cup diagram: in range, each wire used once, nested, cancelling, spelling target."""
    n = len(simples)
    partner = [-1] * n
    for i, j in links:
        if not (0 <= i < j < n) or partner[i] != -1 or partner[j] != -1:
            return f"bad or repeated link ({i},{j})"
        if not contracts(simples[i], simples[j]):
            return f"link ({i},{j}) joins wires that do not cancel"
        partner[i], partner[j] = j, i
    stack, survivors = [], []
    for p in range(n):
        q = partner[p]
        if q == -1:
            if stack:
                return f"through wire {p} lies under cup ({stack[-1]},{partner[stack[-1]]})"
            survivors.append(p)
        elif q > p:
            stack.append(p)
        elif not stack or stack.pop() != q:
            return f"cup ({q},{p}) crosses another"
    if tuple(survivors) != tuple(through):
        return f"through {tuple(through)} != unlinked wires {tuple(survivors)}"
    if tuple(simples[p] for p in survivors) != tuple(target):
        return "surviving wires do not spell the target"
    return None


def links_of(diagram):
    return tuple(tuple(link) for link in diagram.links), tuple(diagram.through)


# --------------------------------------------------------------------------
# sentence meanings


def noun_phrase_vector(vocab, phrase):
    """Adjectives applied right to left to the noun vector: A1 (A2 (... v))."""
    vec = vocab.tensors[phrase[-1]]
    for adj in reversed(phrase[:-1]):
        vec = vocab.tensors[adj] @ vec
    return vec


def expected_meaning(vocab, sentence):
    """Closed form of a generated sentence's meaning vector."""
    subj = noun_phrase_vector(vocab, sentence.subject)
    verb = vocab.tensors[sentence.verb]
    if sentence.obj is None:
        vec = subj @ verb                       # choi state: sum_i v[i] f[i, :]
    else:
        vec = np.einsum("i,isj,j->s", subj, verb, noun_phrase_vector(vocab, sentence.obj))
    if sentence.cls == "does_not":
        vec = vocab.negation @ vec
    return vec


def expected_cosine(u, v):
    u, v = np.ravel(u), np.ravel(v)
    return float(u @ v) / float(np.sqrt(u @ u) * np.sqrt(v @ v))


def sentence_types(sentence, types):
    """The wire sequence of a sentence, from the generator's own type table."""
    out = []
    for w in sentence.words:
        out.extend(parse_simple(types[w]))
    return out


# --------------------------------------------------------------------------
# corpus model


def expected_basis(words, ids, k):
    """The k most frequent tokens, ties broken lexicographically."""
    freq = np.bincount(ids, minlength=len(words))
    present = [w for w in range(len(words)) if freq[w]]
    ranked = sorted(present, key=lambda w: (-int(freq[w]), words[w]))
    return tuple(words[w] for w in ranked[:k]), freq


def expected_vector(ids, doc_of, basis_index, word_id, k, window=2):
    """In-window co-occurrence counts against the basis, divided by occurrences."""
    pos = np.flatnonzero(ids == word_id)
    counts = np.zeros(k, dtype=np.int64)
    n = len(ids)
    for off in range(-window, window + 1):
        if off == 0:
            continue
        q = pos + off
        ok = (q >= 0) & (q < n)
        q, p = q[ok], pos[ok]
        q = q[doc_of[q] == doc_of[p]]
        m = basis_index[ids[q]]
        counts += np.bincount(m[m >= 0], minlength=k)
    return np.array(counts.tolist(), dtype=float) / len(pos)


def model_roundtrip_error(built, loaded):
    """Bit-exact comparison of two models: basis, counts and every coordinate."""
    if tuple(built.basis.words) != tuple(loaded.basis.words):
        return "basis differs after load"
    if built.counts != loaded.counts:
        return "occurrence counts differ after load"
    if built.vectors.keys() != loaded.vectors.keys():
        return "vocabulary differs after load"
    for tok, vec in built.vectors.items():
        other = loaded.vectors[tok]
        if vec.dtype != other.dtype or vec.tobytes() != other.tobytes():
            return f"vector of {tok!r} differs after load"
    return None
