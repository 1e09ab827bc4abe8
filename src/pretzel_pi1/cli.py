"""Command line front end.

Exit codes: 0 for PASS / certificate, 1 for FAIL, 2 for usage errors
and unreadable or unwritable files, 3 for an honest Inconclusive.  Each
command's handler writes only its output files and returns (exit code,
document, text): document and text build the JSON document and the text
when called, so only the format asked for is rendered.  `main` alone
writes stdout (with --format json exactly one JSON document) and stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from pathlib import Path

from . import __version__
from .derivation import (MoveRejected, run_pipeline, tunnel_collapse, verify_L_induction,
                         verify_R_induction, wirtinger_presentation)
from .knot import h1_order, parse_slope
from .orderability import replay_certificate
from .presentations import (Presentation, presentation_to_json, replay_trace, trace_from_json,
                            trace_to_json)
from .surgery import (DEFAULT_DEPTH, nlo_search, surgered_presentation, verify_fact,
                      verify_lemma_k)
from .words import Word, WordError, parse_word

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _doc(command: str, **fields) -> dict:
    """A command's JSON document: its name, its fields in order, the version."""
    return {"command": command, **fields, "version": __version__}


def _word_fields(word: Word) -> dict:
    fields = {"tokens": word.tokens()}
    with suppress(WordError):
        fields["compact"] = word.compact()
    return fields


def _reported(report, document):
    """The output of a command that prints one checker's Report."""
    return EXIT_PASS if report.ok else EXIT_FAIL, document, lambda: f"{report}\n"


def _cmd_gen(args):
    p = (wirtinger_presentation if args.stage == "wirtinger" else tunnel_collapse)(args.s)
    return EXIT_PASS, lambda: _doc("gen", s=args.s, stage=args.stage,
                                   presentation=presentation_to_json(p)), p.to_text


def _cmd_derive(args):
    result = run_pipeline(args.s)
    trace, replay = result.trace, "PASS" if result.report.ok else "FAIL"
    inductions = ({"R": verify_R_induction(args.s), "L": verify_L_induction(args.s)}
                  if args.verify_induction else {})
    if args.emit_trace:
        Path(args.emit_trace).write_text(json.dumps(trace_to_json(trace), indent=2),
                                         encoding="utf-8")
    induced = {name: "PASS" if rep.ok else "FAIL" for name, rep in inductions.items()}

    def document():
        doc = _doc("derive", s=args.s, generators=list(trace.end.generators),
                   relator={"label": "r_inf", **_word_fields(trace.end.relator("r_inf"))},
                   longitude=_word_fields(trace.longitude_end),
                   pipeline_longitude=_word_fields(result.longitude),
                   moves=len(trace.moves), replay=replay)
        return {**doc, "induction": induced} if induced else doc  # after the version, as ever

    def text():
        return "".join([
            trace.end.to_text(), f"longitude: {trace.longitude_end.tokens()}\n",
            f"moves: {len(trace.moves)}\n",
            *(f"induction {name}: {verdict}\n" for name, verdict in induced.items()),
            f"replay: {replay}\n"])

    ok = result.report.ok and all(rep.ok for rep in inductions.values())
    return EXIT_PASS if ok else EXIT_FAIL, document, text


def _cmd_surgery(args):
    slope = parse_slope(args.slope)
    p = surgered_presentation(args.s, slope)
    if args.emit:
        Path(args.emit).write_text(p.to_text(), encoding="utf-8")
    return (EXIT_PASS, lambda: _doc("surgery", s=args.s, slope=str(slope),
                                    presentation=presentation_to_json(p)),
            lambda: "" if args.emit else p.to_text())


def _cmd_fact(args):
    report = verify_fact(args.s)
    return _reported(report, lambda: _doc("verify fact", s=args.s, checks=[
        {"name": c.name, "ok": c.ok} for c in report.checks], passed=report.ok))


def _cmd_lemma_k(args):
    slope = parse_slope(args.slope)
    report = verify_lemma_k(slope)
    return _reported(report, lambda: _doc("verify lemma-k", slope=str(slope), checks=[
        {"name": c.name, "ok": c.ok} for c in report.checks], passed=report.ok))


def _cmd_induction(args):
    halves = {"R": verify_R_induction(args.s), "L": verify_L_induction(args.s)}
    ok = all(half.ok for half in halves.values())
    steps = {name: {"steps": len(half.checks), "passed": half.ok}
             for name, half in halves.items()}
    return (EXIT_PASS if ok else EXIT_FAIL,
            lambda: _doc("verify induction", s=args.s, **steps, passed=ok),
            lambda: "".join(f"{name}: {'PASS' if half.ok else 'FAIL'} ({len(half.checks)} steps)\n"
                            for name, half in halves.items()) + ("PASS\n" if ok else "FAIL\n"))


def _cmd_trace(args):
    try:
        data = json.loads(Path(args.file).read_text(encoding="utf-8"))
    except RecursionError:  # nesting deeper than the parser's recursion limit
        raise ValueError(f"{args.file}: JSON nested too deeply to read") from None
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
        raise ValueError(f"{args.file}: {exc}") from None
    trace = trace_from_json(data)
    report = replay_trace(trace, check_abelian=args.check_abelian)
    failed = report.first_failure()
    failure = {} if failed is None else {"detail": report.detail}
    if failed is not None and failed.index is not None:
        failure["failed_move"] = failed.index
    return _reported(report, lambda: _doc("verify trace", file=args.file, moves=len(trace.moves),
                                          passed=report.ok, **failure))


def _cmd_h1(args):
    slope = parse_slope(args.slope)
    order = h1_order(args.s, slope)
    return (EXIT_PASS, lambda: _doc("h1", s=args.s, slope=str(slope), order=order),
            lambda: f"{order}\n")


def _cmd_abelianize(args):
    try:
        presentation = Presentation.from_text(Path(args.file).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not a presentation
        raise ValueError(f"{args.file}: {exc}") from None
    invariants = presentation.abelian_invariants()
    return (EXIT_PASS, lambda: _doc("abelianize", file=args.file, invariants=list(invariants)),
            lambda: (" ".join(map(str, invariants)) if invariants else "trivial") + "\n")


def _cmd_nlo(args):
    slope = parse_slope(args.slope)
    result = nlo_search(args.s, slope, depth=args.depth)
    document = result.to_json()  # no "version": a certificate carries its engine_version
    code = EXIT_INCONCLUSIVE
    if result.reason is None:
        replay = replay_certificate(document)
        document["replay"] = "OK" if replay.ok else "REJECTED"
        code = EXIT_PASS if replay.ok else EXIT_FAIL
        if args.cert:  # an inconclusive search has no certificate to write
            Path(args.cert).write_text(json.dumps(document, indent=2), encoding="utf-8")

    def text():
        return "".join([
            f"s={args.s} slope={slope}: {document['verdict']}\n",
            *(f"  branch {branch['name']}: {branch['outcome']}"
              + (f" ({branch['note']})" if branch["note"] else "") + "\n"
              for branch in document["branches"]),
            f"  reason: {document['reason']}\n" if "reason" in document else ""])
    return code, lambda: document, text


def _cmd_parse(args):
    word = parse_word(args.word, compact=True if args.compact else None)
    return EXIT_PASS, lambda: _doc("parse", input=args.word, **_word_fields(word),
                                   length=len(word)), lambda: f"{word.tokens()}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pretzel-pi1", description=(
        "Pretzel knot group presentations, surgeries and non-left-orderability certificates"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a starting presentation")
    gen.add_argument("--s", type=int, required=True)
    gen.add_argument("--stage", choices=("wirtinger", "tunnel"), default="wirtinger")
    gen.set_defaults(run=_cmd_gen)

    derive = sub.add_parser("derive", help="run the simplification pipeline")
    derive.add_argument("--s", type=int, required=True)
    derive.add_argument("--emit-trace", metavar="FILE")
    derive.add_argument("--verify-induction", action="store_true")
    derive.set_defaults(run=_cmd_derive)

    surgery = sub.add_parser("surgery", help="emit the filled presentation")
    surgery.add_argument("--s", type=int, required=True)
    surgery.add_argument("--slope", required=True)
    surgery.add_argument("--emit", metavar="FILE")
    surgery.set_defaults(run=_cmd_surgery)

    verify = sub.add_parser("verify", help="run a verification")
    what = verify.add_subparsers(dest="what", required=True)
    fact = what.add_parser("fact")
    fact.add_argument("--s", type=int, required=True)
    fact.set_defaults(run=_cmd_fact)
    lemma = what.add_parser("lemma-k")
    lemma.add_argument("--slope", required=True)
    lemma.set_defaults(run=_cmd_lemma_k)
    induction = what.add_parser("induction")
    induction.add_argument("--s", type=int, required=True)
    induction.set_defaults(run=_cmd_induction)
    trace = what.add_parser("trace")
    trace.add_argument("file")
    trace.add_argument("--check-abelian", action="store_true")
    trace.set_defaults(run=_cmd_trace)

    h1 = sub.add_parser("h1", help="order of the first homology after filling")
    h1.add_argument("--s", type=int, required=True)
    h1.add_argument("--slope", required=True)
    h1.set_defaults(run=_cmd_h1)

    abelianize = sub.add_parser("abelianize", help="invariant factors of a presentation file")
    abelianize.add_argument("file")
    abelianize.set_defaults(run=_cmd_abelianize)

    nlo = sub.add_parser("nlo", help="non-left-orderability certificate search")
    nlo.add_argument("--s", type=int, required=True)
    nlo.add_argument("--slope", required=True)
    # a string default is converted only when nlo is parsed: a bad one is nlo's usage error
    nlo.add_argument("--depth", type=int,
                     default=os.environ.get("PRETZEL_PI1_DEPTH", str(DEFAULT_DEPTH)))
    nlo.add_argument("--cert", metavar="FILE")
    nlo.set_defaults(run=_cmd_nlo)

    parse = sub.add_parser("parse", help="normalize a word in either grammar")
    parse.add_argument("word")
    parse.add_argument("--compact", action="store_true",
                       help="force the compact single-letter grammar")
    parse.set_defaults(run=_cmd_parse)

    for leaf in (gen, derive, surgery, fact, lemma, induction, trace, h1, abelianize, nlo, parse):
        leaf.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def run(argv=None):
    """Parse argv and run its command: (exit code, document, text, format)."""
    args = build_parser().parse_args(argv)
    return (*args.run(args), args.format)


def main(argv=None) -> int:
    try:
        code, document, text, fmt = run(argv)
        sys.stdout.write(json.dumps(document(), indent=2) + "\n" if fmt == "json" else text())
    except (MoveRejected, ValueError) as exc:  # a move derive emits fails its replay; bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, MoveRejected) else EXIT_USAGE
    except OSError as exc:  # an unreadable input or unwritable output file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
