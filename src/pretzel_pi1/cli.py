"""Command line front end.

Exit codes: 0 for PASS / certificate, 1 for FAIL, 2 for usage errors
and unreadable or unwritable files, 3 for an honest Inconclusive.  With
--format json exactly one JSON document is written to stdout; everything
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .derivation import (MoveRejected, run_pipeline, tunnel_collapse, verify_L_induction,
                         verify_R_induction, wirtinger_presentation)
from .knot import SlopeError, h1_order, parse_slope
from .orderability import replay_certificate
from .presentations import (
    Check,
    Presentation,
    Report,
    presentation_to_json,
    replay_trace,
    trace_from_json,
    trace_to_json,
)
from .surgery import (DEFAULT_DEPTH, Certificate, nlo_search, surgered_presentation,
                      verify_fact, verify_lemma_k)
from .words import Word, WordError, parse_word

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=False))


def _word_fields(word: Word) -> dict:
    fields = {"tokens": word.tokens()}
    try:
        fields["compact"] = word.compact()
    except WordError:
        pass
    return fields


def _cmd_gen(args) -> int:
    p = wirtinger_presentation(args.s) if args.stage == "wirtinger" \
        else tunnel_collapse(args.s)
    if args.format == "json":
        _emit_json({"command": "gen", "s": args.s, "stage": args.stage,
                    "presentation": presentation_to_json(p),
                    "version": __version__})
    else:
        sys.stdout.write(p.to_text())
    return EXIT_PASS


def _cmd_derive(args) -> int:
    try:
        result = run_pipeline(args.s)
    except MoveRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    trace, report = result.trace, result.report
    relator = trace.end.relator("r_inf")
    inductions = None
    if args.verify_induction:
        inductions = {"R": verify_R_induction(args.s), "L": verify_L_induction(args.s)}
    ok = report.ok and (inductions is None or all(r.ok for r in inductions.values()))
    if args.emit_trace:
        with open(args.emit_trace, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(trace_to_json(trace), indent=2))
    if args.format == "json":
        doc = {
            "command": "derive",
            "s": args.s,
            "generators": list(trace.end.generators),
            "relator": {"label": "r_inf", **_word_fields(relator)},
            "longitude": _word_fields(trace.longitude_end),
            "pipeline_longitude": _word_fields(result.longitude),
            "moves": len(trace.moves),
            "replay": "PASS" if report.ok else "FAIL",
            "version": __version__,
        }
        if inductions is not None:
            doc["induction"] = {name: "PASS" if rep.ok else "FAIL"
                                for name, rep in inductions.items()}
        _emit_json(doc)
    else:
        sys.stdout.write(trace.end.to_text())
        print(f"longitude: {trace.longitude_end.tokens()}")
        print(f"moves: {len(trace.moves)}")
        if inductions is not None:
            for name, rep in inductions.items():
                print(f"induction {name}: {'PASS' if rep.ok else 'FAIL'}")
        print(f"replay: {'PASS' if report.ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_surgery(args) -> int:
    slope = parse_slope(args.slope)
    p = surgered_presentation(args.s, slope)
    text = p.to_text()
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.format == "json":
        _emit_json({"command": "surgery", "s": args.s, "slope": str(slope),
                    "presentation": presentation_to_json(p),
                    "version": __version__})
    elif not args.emit:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    if args.what == "fact":
        report = verify_fact(args.s)
        doc = {"command": "verify fact", "s": args.s}
    elif args.what == "lemma-k":
        report = verify_lemma_k(parse_slope(args.slope))
        doc = {"command": "verify lemma-k", "slope": args.slope}
    elif args.what == "induction":
        halves = {"R": verify_R_induction(args.s), "L": verify_L_induction(args.s)}
        report = Report(f"induction s={args.s}",
                        [Check(name, half.ok) for name, half in halves.items()])
        doc = {"command": "verify induction", "s": args.s,
               **{name: {"steps": len(half.checks), "passed": half.ok}
                  for name, half in halves.items()}}
    else:  # trace
        with open(args.file, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:  # nesting deeper than the parser's recursion limit
                raise ValueError(f"{args.file}: JSON nested too deeply to read") from None
        trace = trace_from_json(data)
        report = replay_trace(trace, check_abelian=args.check_abelian)
        doc = {"command": "verify trace", "file": args.file, "moves": len(trace.moves)}
    if args.what in ("fact", "lemma-k"):
        doc["checks"] = [{"name": c.name, "ok": c.ok} for c in report.checks]
    doc["passed"] = report.ok
    if args.what == "trace" and not report.ok:
        doc["detail"] = report.detail
        failed_move = report.first_failure().index
        if failed_move is not None:
            doc["failed_move"] = failed_move
    if args.format == "json":
        doc["version"] = __version__
        _emit_json(doc)
    elif args.what == "induction":
        for name, half in halves.items():
            print(f"{name}: {'PASS' if half.ok else 'FAIL'} ({len(half.checks)} steps)")
        print("PASS" if report.ok else "FAIL")
    else:
        print(report)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_h1(args) -> int:
    slope = parse_slope(args.slope)
    order = h1_order(args.s, slope)
    if args.format == "json":
        _emit_json({"command": "h1", "s": args.s, "slope": str(slope),
                    "order": order, "version": __version__})
    else:
        print(order)
    return EXIT_PASS


def _cmd_abelianize(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        p = Presentation.from_text(handle.read())
    invariants = p.abelian_invariants()
    if args.format == "json":
        _emit_json({"command": "abelianize", "file": args.file,
                    "invariants": list(invariants), "version": __version__})
    else:
        print(" ".join(map(str, invariants)) if invariants else "trivial")
    return EXIT_PASS


def _cmd_nlo(args) -> int:
    slope = parse_slope(args.slope)
    result = nlo_search(args.s, slope, depth=args.depth)
    document = result.to_json()
    if isinstance(result, Certificate):
        replay = replay_certificate(document)
        document["replay"] = "OK" if replay.ok else "REJECTED"
        code = EXIT_PASS if replay.ok else EXIT_FAIL
    else:
        code = EXIT_INCONCLUSIVE
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document, indent=2))
    if args.format == "json":
        _emit_json(document)
    else:
        print(f"s={args.s} slope={slope}: {document['verdict']}")
        for branch in document.get("branches", []):
            print(f"  branch {branch['name']}: {branch['outcome']}"
                  + (f" ({branch['note']})" if branch.get("note") else ""))
        if "reason" in document:
            print(f"  reason: {document['reason']}")
    return code


def _cmd_parse(args) -> int:
    word = parse_word(args.word, compact=True if args.compact else None)
    if args.format == "json":
        _emit_json({"command": "parse", "input": args.word,
                    **_word_fields(word), "length": len(word),
                    "version": __version__})
    else:
        print(word.tokens())
    return EXIT_PASS


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretzel-pi1",
        description="Pretzel knot group presentations, surgeries and "
                    "non-left-orderability certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a starting presentation")
    gen.add_argument("--s", type=int, required=True)
    gen.add_argument("--stage", choices=("wirtinger", "tunnel"), default="wirtinger")
    _add_format(gen)
    gen.set_defaults(run=_cmd_gen)

    derive = sub.add_parser("derive", help="run the simplification pipeline")
    derive.add_argument("--s", type=int, required=True)
    derive.add_argument("--emit-trace", metavar="FILE")
    derive.add_argument("--verify-induction", action="store_true")
    _add_format(derive)
    derive.set_defaults(run=_cmd_derive)

    surgery = sub.add_parser("surgery", help="emit the filled presentation")
    surgery.add_argument("--s", type=int, required=True)
    surgery.add_argument("--slope", required=True)
    surgery.add_argument("--emit", metavar="FILE")
    _add_format(surgery)
    surgery.set_defaults(run=_cmd_surgery)

    verify = sub.add_parser("verify", help="run a verification")
    what = verify.add_subparsers(dest="what", required=True)
    fact = what.add_parser("fact")
    fact.add_argument("--s", type=int, required=True)
    _add_format(fact)
    lemma = what.add_parser("lemma-k")
    lemma.add_argument("--slope", required=True)
    _add_format(lemma)
    induction = what.add_parser("induction")
    induction.add_argument("--s", type=int, required=True)
    _add_format(induction)
    trace = what.add_parser("trace")
    trace.add_argument("file")
    trace.add_argument("--check-abelian", action="store_true")
    _add_format(trace)
    verify.set_defaults(run=_cmd_verify)

    h1 = sub.add_parser("h1", help="order of the first homology after filling")
    h1.add_argument("--s", type=int, required=True)
    h1.add_argument("--slope", required=True)
    _add_format(h1)
    h1.set_defaults(run=_cmd_h1)

    abelianize = sub.add_parser("abelianize", help="invariant factors of a presentation file")
    abelianize.add_argument("file")
    _add_format(abelianize)
    abelianize.set_defaults(run=_cmd_abelianize)

    nlo = sub.add_parser("nlo", help="non-left-orderability certificate search")
    nlo.add_argument("--s", type=int, required=True)
    nlo.add_argument("--slope", required=True)
    # A string default goes through type=int only when nlo is parsed, so a
    # malformed PRETZEL_PI1_DEPTH is a usage error of nlo alone.
    nlo.add_argument("--depth", type=int,
                     default=os.environ.get("PRETZEL_PI1_DEPTH", str(DEFAULT_DEPTH)))
    nlo.add_argument("--cert", metavar="FILE")
    _add_format(nlo)
    nlo.set_defaults(run=_cmd_nlo)

    parse = sub.add_parser("parse", help="normalize a word in either grammar")
    parse.add_argument("word")
    parse.add_argument("--compact", action="store_true",
                       help="force the compact single-letter grammar")
    _add_format(parse)
    parse.set_defaults(run=_cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (WordError, SlopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an unreadable input or unwritable output file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
