"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  Spans are kept in a list while the workload runs
and written out once at the end.  A layer's self time is its span's
duration minus the time its direct child spans cover (calls are sequential,
so children never overlap).

Only the traced run wraps anything: :func:`instrument` replaces the public
gramflow functions in the namespaces where callers look them up, and
:func:`plain_api` hands the untraced run the original functions.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter
from types import SimpleNamespace

NULL_SCOPE = contextlib.nullcontext()


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.seen_reductions = set()

    def _open(self, name, attrs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def scope(self, name, **attrs):
        """A span around benchmark code, e.g. one operation of a workload."""
        rec = self._open(name, attrs)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before``/``after`` add attributes outside the timed interval."""

        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            rec = self._open(name, attrs)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after:
                after(attrs, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def root_attr(self, index, key):
        """The attribute ``key`` of the outermost span enclosing span ``index``."""
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return self.spans[index][4].get(key)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs], default=str) + "\n")


def plain_api(gf):
    """The public functions the workloads call, unwrapped."""
    from gramflow import cli, distributional, lexicon, pregroup, semantics

    return SimpleNamespace(
        gf=gf,
        parse_type=pregroup.parse_type,
        reduce=pregroup.reduce,
        enumerate_reductions=pregroup.enumerate_reductions,
        load_lexicon=lexicon.load_lexicon,
        meaning=semantics.meaning,
        cosine=semantics.cosine,
        tokenize=distributional.tokenize,
        load_corpus=distributional.load_corpus,
        build_basis=distributional.build_basis,
        build_model=distributional.build_model,
        save_model=distributional.save_model,
        load_model=distributional.load_model,
        cli_main=cli.main,
        scope=lambda name, **attrs: NULL_SCOPE,
    )


def _size(path):
    return os.path.getsize(path)


def instrument(rec: Recorder, gf):
    """Wrap every public layer function where its callers look it up.

    Returns (api, restore): the wrapped namespace for the workloads and a
    function that puts the original functions back.
    """
    from gramflow import cli, distributional, lexicon, pregroup, semantics

    def reduce_before(seq, target):
        key = (tuple(seq), tuple(target))
        repeat = key in rec.seen_reductions
        rec.seen_reductions.add(key)
        return {"wires": len(seq), "repeat": repeat}

    def set_attr(key, value_of):
        def after(attrs, result, *args, **kwargs):
            attrs[key] = value_of(result, *args)
        return after

    w = rec.wrap
    wrapped = {
        "parse_type": w("pregroup.parse_type", pregroup.parse_type),
        "reduce": w("pregroup.reduce", pregroup.reduce, before=reduce_before,
                    after=set_attr("accepted", lambda r, *a: r is not None)),
        "enumerate_reductions": w("pregroup.enumerate_reductions",
                                  pregroup.enumerate_reductions,
                                  after=set_attr("witnesses", lambda r, *a: len(r))),
        "validate_diagram": w("pregroup.validate_diagram", pregroup.validate_diagram),
        "load_lexicon": w("lexicon.load_lexicon", lexicon.load_lexicon,
                          after=set_attr("entries", lambda r, *a: len(r.words()))),
        "read_tensor": w("tensors.read_tensor", lexicon.read_tensor,
                         before=lambda path: {"bytes": _size(path)}),
        "meaning": w("semantics.meaning", semantics.meaning),
        "cosine": w("semantics.cosine", semantics.cosine),
        "tokenize": w("distributional.tokenize", distributional.tokenize),
        "load_corpus": w("distributional.load_corpus", distributional.load_corpus,
                         after=set_attr("tokens", lambda r, *a: sum(map(len, r)))),
        "build_basis": w("distributional.build_basis", distributional.build_basis),
        "build_model": w("distributional.build_model", distributional.build_model),
        "save_model": w("distributional.save_model", distributional.save_model,
                        after=set_attr("bytes", lambda r, model, path: _size(path))),
        "load_model": w("distributional.load_model", distributional.load_model,
                        before=lambda path: {"bytes": _size(path)}),
        "cli_main": w("cli.main", cli.main,
                      before=lambda argv: {"sub": next(a for a in argv if not a.startswith("-"))}),
        "bind": w("lexicon.bind", lexicon.Lexicon.bind),
    }
    # (namespace, attribute, wrapped key): every place a caller looks a layer up
    sites = [
        (semantics, "validate_diagram", "validate_diagram"),
        (lexicon, "read_tensor", "read_tensor"),
        (lexicon, "parse_type", "parse_type"),
        (lexicon.Lexicon, "bind", "bind"),
        (distributional, "tokenize", "tokenize"),
        (cli, "load_lexicon", "load_lexicon"),
        (cli, "load_model", "load_model"),
        (cli, "reduce_type", "reduce"),
        (cli, "meaning", "meaning"),
        (cli, "cosine", "cosine"),
        (cli, "tokenize", "tokenize"),
    ]
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in sites]
    for ns, attr, key in sites:
        setattr(ns, attr, wrapped[key])

    def restore():
        for ns, attr, fn in saved:
            setattr(ns, attr, fn)

    api = SimpleNamespace(gf=gf, scope=rec.scope,
                          **{k: v for k, v in wrapped.items() if k not in ("bind", "read_tensor",
                                                                          "validate_diagram")})
    return api, restore
