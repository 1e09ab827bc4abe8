"""The sign-deduction kernel that checks non-left-orderability certificates.

Signs classify how a group element moves points of the line under an
orientation-preserving action: Positive means every point moves up,
Negative down, Identity nowhere.  All closure rules below are sound for
that reading (conjugation included, since order-preserving bijections
transport pointwise inequalities), and a branch closes when some word is
forced into two incompatible signs.

Words live over the alphabet {c, l, k}: c and l are the group
generators, while k is the peripheral root element carried symbolically
and never expanded (its powers are tied to c and to the clasp word
through the surgery identities, which the rules cite explicitly).  This
k is unrelated to the short-lived generator of the same name inside the
presentation pipeline; kernel inputs are always two-generator groups.

Every rule is defined once, in RULES.  The search that writes
certificates (surgery.nlo_search) records only what a rule returns;
replay_certificate re-runs the rule of each journal line and compares,
so emitted certificates stand on their own.  This module is the
certificate checker and imports nothing that produces a certificate:
its targets come from the closed forms of knot.py.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .knot import (Slope, bezout_k, check_s, clasp_identity_holds, clasp_word,
                   fact_exponent, final_relator, h1_order, longitude_word)
from .report import Report, _bool, _decoded, _exactly, _int
from .words import CyclicWord, Word, parse_word, rotation_witness, splice


class EngineError(RuntimeError):
    """A rule application the kernel refuses: a bad script or a bad certificate line."""


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IDENTITY = "identity"

    def flipped(self) -> "Sign":
        if self is Sign.POSITIVE:
            return Sign.NEGATIVE
        if self is Sign.NEGATIVE:
            return Sign.POSITIVE
        return Sign.IDENTITY


def _combine(a: Sign, b: Sign) -> Optional[Sign]:
    if a is b:
        return a
    if a is Sign.IDENTITY:
        return b
    if b is Sign.IDENTITY:
        return a
    return None  # strictly mixed products are not signed


Fact = tuple[Word, Sign]

C = parse_word("c")

ENGINE_VERSION = "1.0"  # the rule set a certificate was written for


def cited_params(s: int, slope: Slope) -> dict:
    """The params derived from s and the slope, in the order a certificate has them."""
    return {"p_odd": slope.p % 2 != 0, "slope_bound": 4 * s + 7,
            "relator": final_relator(s).tokens(), "longitude": longitude_word(s).tokens(),
            "clasp": clasp_word(s).tokens()}


@dataclass(frozen=True)
class BranchContext:
    """What a rule may read besides its premises and args.

    Relator cores are computed at most once per context; H1 costs constant time.
    """
    relators: tuple[Word, ...] = ()
    s: Optional[int] = None
    slope: Optional[Slope] = None
    assumptions: list = field(default_factory=list)

    @cached_property
    def cores(self) -> dict[str, CyclicWord]:
        """The cyclic core of each relator, keyed by the relator's tokens."""
        return {r.tokens(): r.cyclic_reduce()[0] for r in self.relators}

    @property
    def h1(self) -> int:
        return h1_order(self.s, self.slope)


def clash(ctx: BranchContext, a: Fact, b: Fact) -> Optional[str]:
    """Why classifications a and b cannot both hold, or None.

    A classification clashes with itself when it strictly signs a word
    that is trivial in the group: the empty word, or a conjugate of one
    relator copy.
    """
    (wa, sa), (wb, sb) = a, b
    if wa != wb:
        if sa is not sb.flipped() and wa == ~wb:
            return "word and inverse both strictly signed"
        return None
    if sa is not sb:
        return "incompatible signs for one word"
    if sa is Sign.IDENTITY:
        return None
    if not wa:
        return "the empty word moves no point"
    if any(rotation_witness(wa, core) for core in ctx.cores.values()):
        return "relator-trivial word strictly signed"
    return None


# -- the rule kernel ----------------------------------------------------------
# A rule maps (context, premise facts, args, claimed conclusion) to the Fact
# it derives, or to None when it closes the branch, and raises when it does
# not apply.  Assume and relator read the claim to check a target.  Power
# reads its length, when given, to bound n before building the power: a
# non-empty word's n-th power has at least n letters.  Replay always gives
# the claim; the search, which only builds true lines, gives none.

def _is_root_power(word: Word, n: int) -> bool:
    """word == k^n, decided on its runs without building the power."""
    return len(word) == abs(n) and word.syllables() == [("k", n)]


def _assume(ctx, prem, args, claim):
    word, sign = claim
    if prem or {"word": word.tokens(), "sign": sign.value} not in ctx.assumptions:
        raise EngineError("an assumption has no premises and is declared by the branch")
    return word, sign


def _power(ctx, prem, args, claim):
    (word, sign), = prem
    n = _int(args["n"])
    if n < 1:
        raise EngineError("power rule needs n >= 1")
    if claim is not None and n > len(claim[0]):
        raise EngineError(f"power n={n} exceeds the {len(claim[0])} letters of the claim")
    return word ** n, sign


def _inverse(ctx, prem, args, claim):
    (word, sign), = prem
    return ~word, sign.flipped()


def _product(ctx, prem, args, claim):
    (u, a), (v, b) = prem
    sign = _combine(a, b)
    if sign is None:
        raise EngineError("cannot sign a strictly mixed product")
    return splice(u, v), sign


def _conjugate(ctx, prem, args, claim):
    (word, sign), = prem
    x = parse_word(args["conjugator"])
    return splice(x, word, ~x), sign


def _relator(ctx, prem, args, claim):
    """Signs transport along equality witnessed by one copy of the cited relator."""
    (word, sign), = prem
    target = claim[0]
    core = ctx.cores.get(args["relator"])
    witness = None if core is None else rotation_witness(splice(~target, word), core)
    if not witness or (witness["rotation"], witness["inverted"]) != (
            _int(args["rotation"]), _bool(args["inverted"])):
        raise EngineError("relator transfer not witnessed by a relator of the group")
    return target, sign


def _peripheral_meridian(ctx, prem, args, claim):
    """k^q equals the meridian c in the filled group."""
    (word, sign), = prem
    slope, vec = ctx.slope, bezout_k(ctx.slope)
    if not _is_root_power(word, slope.q) or not _exactly(args, {
            "p": slope.p, "q": slope.q, "bezout": [vec.m, vec.l]}):
        raise EngineError("peripheral-meridian needs k^q and the slope's bezout pair")
    return C, sign


def _fact_exponent(ctx, prem, args, claim):
    """The clasp word is k^(-e), e = p - (4s+7)q; trivial when e = 0."""
    (word, sign), = prem
    power = -fact_exponent(ctx.s, ctx.slope)
    clasp = clasp_word(ctx.s)
    if not _exactly(args, {"clasp_power": power, "p": ctx.slope.p, "q": ctx.slope.q}):
        raise EngineError("exponent bookkeeping is wrong")
    if power == 0 and word == clasp:  # the premise is the clasp word's own sign
        return clasp, Sign.IDENTITY
    if power == 0 or not _is_root_power(word, power):
        raise EngineError("the premise is not the cited power of the root")
    return clasp, sign


def _abelian_obstruction(ctx, prem, args, claim):
    """A trivially acting meridian kills H1, which has order > 1."""
    if (prem != ((C, Sign.IDENTITY),) or not _exactly(args, {"h1_order": ctx.h1})
            or ctx.h1 < 2):
        raise EngineError("needs a trivially acting meridian and H1 of order > 1")
    return None


def _contradiction(ctx, prem, args, claim):
    a, b = prem
    if clash(ctx, a, b) is None:
        raise EngineError("the premises are compatible")
    return None


# the rules that close a branch; every other rule concludes a Fact
CLOSING_RULES = ("abelian-obstruction", "contradiction")

RULES = {
    "assume": _assume,
    "power": _power,
    "inverse": _inverse,
    "product": _product,
    "conjugate": _conjugate,
    "relator": _relator,
    "peripheral-meridian": _peripheral_meridian,
    "fact-exponent": _fact_exponent,
    "abelian-obstruction": _abelian_obstruction,
    "contradiction": _contradiction,
}


# -- certificate replay -------------------------------------------------------

def _replay_journal(ctx: BranchContext, journal: list) -> Optional[str]:
    """The first problem of the journal, or None when it replays and closes."""
    facts: list[Optional[Fact]] = []

    def premise(n) -> Fact:
        if type(n) is not int or not 0 <= n < len(facts) or facts[n] is None:
            raise EngineError(f"bad premise reference {n!r}")
        return facts[n]

    for i, line in enumerate(journal):
        try:  # a line of the wrong shape fails with one of the errors caught below
            rule, conclusion = line["rule"], line["conclusion"]
            if rule not in RULES:
                raise EngineError(f"unknown rule {rule!r}")
            claim = None if _exactly(conclusion, {"contradiction": True}) else (
                parse_word(conclusion["word"]), Sign(conclusion["sign"]))
            if claim is None and rule not in CLOSING_RULES:  # before it does any work
                raise EngineError(f"{rule} does not conclude the claimed {conclusion}")
            got = RULES[rule](ctx, tuple(premise(n) for n in line["premises"]),
                              line["args"], claim)
        except KeyError as exc:
            return f"line {i}: missing field {exc}"
        except (EngineError, TypeError, ValueError) as exc:
            return f"line {i}: {exc}"
        if got != claim:
            return f"line {i}: {rule} does not conclude the claimed {conclusion}"
        facts.append(got)
    return None if None in facts else "journal never reaches a contradiction"


def replay_certificate(cert: dict) -> Report:
    """Check the JSON shape, then re-derive every journal line with RULES.

    Any input gets a report: OK, or REJECTED with each failing check
    located at a field, or at a branch and journal line.
    """
    report = Report("certificate replay")
    try:
        params, branches = cert["params"], cert["branches"]
        s, p, q = (_decoded(key, _int, params[key]) for key in ("s", "p", "q"))
        check_s(s)
        slope = Slope(p, q)
        if _decoded("depth", _int, params["depth"]) < 1:
            raise ValueError("depth: the budget must be at least 1")
        relator = final_relator(s)
        for key, value in cited_params(s, slope).items():
            report.add(f"cited {key}", _exactly(params[key], value),
                       "does not match the knot group and slope")
    except KeyError as exc:
        report.add("certificate", False, f"missing field {exc}")
        return report
    except (TypeError, ValueError) as exc:
        report.add("params", False, str(exc))
        return report
    report.add("clasp identity", clasp_identity_holds(s), "fails by free reduction")
    report.add("verdict", cert.get("verdict") == "not_left_orderable",
               f"unexpected verdict {cert.get('verdict')!r}")
    report.add("engine_version", _exactly(cert.get("engine_version"), ENGINE_VERSION),
               f"not {ENGINE_VERSION!r}")
    if not report.add("branches", isinstance(branches, list), "not a list"):
        return report
    cases = [b.get("assumptions") for b in branches if isinstance(b, dict)]
    report.add("cases", [{"word": "k", "sign": "positive"}] in cases
               and [{"word": "k", "sign": "identity"}] in cases,
               "certificate must cover the k-positive and k-identity cases "
               "(the k-negative case is the recorded orientation mirror)")
    lines = 0
    for n, branch in enumerate(branches):
        if not isinstance(branch, dict) or not isinstance(branch.get("journal"), list):
            report.add(f"branch #{n}", False, "not an object with a journal list")
            continue
        lines += len(branch["journal"])
        name = branch.get("name", f"#{n}")
        ctx = BranchContext((relator,), s, slope, branch.get("assumptions"))
        problem = _replay_journal(ctx, branch["journal"])
        if problem is None and branch.get("outcome") != "contradiction":
            problem = "outcome is not a contradiction"
        report.add(f"branch {name}", problem is None, problem)
    report.add("depth_used", _exactly(cert.get("depth_used"), lines),
               f"is not the {lines} journal lines of the branches")
    return report
