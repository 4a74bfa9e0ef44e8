"""Command-line interface.

Subcommands: ``space build`` (fit a vector space model to a corpus),
``parse`` (grammar check with diagram rendering), ``meaning`` (sentence
vector), ``compare`` (cosine between two sentence vectors) and
``demo snake`` (the cup/cap yanking identity, evaluated by ``meaning``).

Exit codes: 0 success, 1 semantic rejection (ungrammatical input or a
failed identity), 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .distributional import (DEFAULT_WINDOW, build_basis, build_model, load_corpus, load_model, save_model,
                             tokenize)
from .errors import GramflowError
from .lexicon import load_lexicon
from .pregroup import PregroupType, ascii_diagram, parse_type, reduce as reduce_type
from .semantics import WordMeaning, cosine, meaning
from .tensors import SpaceAssignment, cup

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

SENTENCE = parse_type("s")


def _parse_dims(text):
    dims = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        base, sep, value = part.partition(":")
        try:
            if not sep or not base or not value.isdecimal():
                raise ValueError
            dims[base] = int(value)  # refuses more than sys.get_int_max_str_digits() digits
        except ValueError:
            raise GramflowError(f"bad --dims entry {part!r}, expected base:dim with dim >= 1") from None
    return dims


def _load(args):
    """Resolve --model and --dims into a space and load the lexicon over it."""
    model = load_model(args.model) if args.model else None
    dims = {} if model is None else {"n": len(model.basis.words)}
    if args.dims:
        dims.update(_parse_dims(args.dims))
    if not dims:
        raise GramflowError("no space dimensions: pass --dims (and/or --model)")
    return load_lexicon(args.lexicon, SpaceAssignment(dims), model)


def _reduce(sentence, lex):
    """Tokenize, bind and reduce one sentence: words, bound words, types and diagram."""
    words = tokenize(sentence)
    if not words:
        raise GramflowError("empty sentence")
    bound = [lex.bind(w) for w in words]
    seq = PregroupType(tuple(t for w in bound for t in w.type))
    return words, bound, seq, reduce_type(seq, SENTENCE)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _fmt_vector(vec):
    return "[" + ", ".join(f"{float(x):.6g}" for x in np.asarray(vec).ravel()) + "]"


def cmd_space_build(args):
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise GramflowError("corpus is empty")
    basis = build_basis(corpus, args.basis_size, stop=set(tokenize(args.stop or "")), window=args.window)
    model = build_model(corpus, basis)
    save_model(model, args.out)
    payload = {"basis_size": len(basis.words), "vocabulary_size": len(model.vectors), "out": args.out}
    _emit(args, payload, [f"basis size: {payload['basis_size']}",
                          f"vocabulary size: {payload['vocabulary_size']}",
                          f"model written to {args.out}"])
    return EXIT_OK


def _diagram_payload(words, bound, diagram):
    return {
        "words": words,
        "types": [str(w.type) for w in bound],
        "links": [list(link) for link in diagram.links],
        "through": list(diagram.through),
    }


def cmd_parse(args):
    words, bound, seq, diagram = _reduce(args.sentence, _load(args))
    if diagram is None:
        _emit(args, {"words": words, "types": [str(w.type) for w in bound], "grammatical": False},
              [" ".join(words), str(seq), "no reduction to s"])
        return EXIT_REJECTED
    payload = _diagram_payload(words, bound, diagram) | {"grammatical": True}
    _emit(args, payload, [" ".join(words), str(seq), str(diagram), ascii_diagram(seq, diagram)])
    return EXIT_OK


def cmd_meaning(args):
    lex = _load(args)
    words, bound, _, diagram = _reduce(args.sentence, lex)
    if diagram is None:
        _emit(args, {"words": words, "grammatical": False}, ["no reduction to s"])
        return EXIT_REJECTED
    vec = meaning(bound, diagram, lex.space)
    if not np.isfinite(vec).all():
        raise GramflowError("meaning vector overflowed: a coordinate is not finite")
    payload = _diagram_payload(words, bound, diagram) | {"vector": [float(x) for x in vec.ravel()]}
    _emit(args, payload, [" ".join(words), str(diagram), f"meaning: {_fmt_vector(vec)}"])
    return EXIT_OK


def cmd_compare(args):
    lex = _load(args)
    vectors = []
    for sentence in (args.sentence1, args.sentence2):
        _, bound, _, diagram = _reduce(sentence, lex)
        if diagram is None:
            _emit(args, {"sentence": sentence, "grammatical": False},
                  [f"no reduction to s: {sentence!r}"])
            return EXIT_REJECTED
        vectors.append(meaning(bound, diagram, lex.space))
    value = cosine(vectors[0], vectors[1])
    _emit(args, {"cosine": value}, [f"cosine: {value:.6g}"])
    return EXIT_OK


def cmd_demo_snake(args):
    d = args.dimension
    if not 1 <= d <= 64:
        raise GramflowError(f"dimension must be in [1, 64], got {d}")
    # a word of type n n holding the cap, then one of type n^r n holding the cup:
    # the reduction's cup between them yanks the wire straight, so meaning gives Id
    cap = WordMeaning("cap", parse_type("n n"), cup(d))
    state = WordMeaning("cup", parse_type("n^r n"), cup(d))
    yank = reduce_type(cap.type + state.type, cap.type)
    deviation = float(np.max(np.abs(meaning([cap, state], yank, SpaceAssignment({"n": d})) - np.eye(d))))
    ok = deviation < 1e-12
    _emit(args, {"dimension": d, "max_deviation": deviation, "pass": ok},
          [f"max |composite - identity| = {deviation:.3g}", "PASS" if ok else "FAIL"])
    return EXIT_OK if ok else EXIT_REJECTED


def build_parser():
    parser = argparse.ArgumentParser(prog="gramflow",
                                     description="Pregroup grammar and tensor sentence semantics.")
    parser.add_argument("--json", action="store_true", help="machine-readable JSON-lines output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        # SUPPRESS keeps a subcommand-level flag from clobbering the root one
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable JSON-lines output")

    p_space = sub.add_parser("space", help="vector space model operations")
    space_sub = p_space.add_subparsers(dest="space_command", required=True)
    p_build = space_sub.add_parser("build", help="build a model from corpus files")
    p_build.add_argument("corpus", nargs="+", help="UTF-8 text files, blank-line separated documents")
    p_build.add_argument("-k", "--basis-size", type=int, required=True)
    p_build.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p_build.add_argument("--stop", help="stop words excluded from the basis, lowercased and split at "
                         "non-alphanumeric characters like corpus text, e.g. 'the,a'")
    p_build.add_argument("--out", required=True, help="model file to write")
    add_json(p_build)
    p_build.set_defaults(func=cmd_space_build)

    for name, help_text, positionals, command in (
            ("parse", "grammar-check a sentence", ["sentence"], cmd_parse),
            ("meaning", "compute a sentence meaning vector", ["sentence"], cmd_meaning),
            ("compare", "cosine between two sentence meanings", ["sentence1", "sentence2"], cmd_compare)):
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--lexicon", required=True)
        p.add_argument("--model", help="vector space model file for vector-sourced entries")
        p.add_argument("--dims", help="base:dim[,base:dim...] space dimensions")
        add_json(p)
        p.set_defaults(func=command)

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_snake = demo_sub.add_parser("snake", help="check the cup/cap yanking identity")
    p_snake.add_argument("-d", "--dimension", type=int, default=2)
    add_json(p_snake)
    p_snake.set_defaults(func=cmd_demo_snake)

    return parser


# built once per process: a build takes 1-2 ms and leaves cyclic garbage
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # results are checked for non-finite values, so numpy's overflow
        # warnings would only repeat the error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (GramflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
