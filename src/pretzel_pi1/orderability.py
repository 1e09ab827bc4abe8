"""Positive-cone deduction engine and non-left-orderability certificates.

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
presentation pipeline; engine inputs are always two-generator groups.

Every rule is defined once, in RULES.  The engine records only what a
rule returns; replay_certificate re-runs the rule of each journal line
and compares, so emitted certificates stand on their own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .derivation import check_s, final_relator, longitude_word
from .presentations import Report
from .surgery import (Slope, bezout_k, clasp_identity_holds, clasp_word, fact_exponent,
                      h1_order)
from .words import CyclicWord, Word, parse_word, rotation_witness

ENGINE_VERSION = "1.0"
DEFAULT_DEPTH = 100_000


class EngineError(RuntimeError):
    """A rule application the kernel refuses: a bad script or a bad certificate line."""


class BudgetExhausted(RuntimeError):
    pass


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

K = Word((("k", 1),))
C = Word((("c", 1),))
COMPARISON = parse_word("c^-1 l^-1 c^-1 l c l c")  # traded by one relator copy
ISOLATE_L = parse_word("c l c")  # un-conjugates the traded comparison word to l


@dataclass(frozen=True)
class BranchContext:
    """What a rule may read besides its premises and args.

    Relator cores and H1 are computed at most once per context.
    """
    relators: tuple[Word, ...] = ()
    s: Optional[int] = None
    slope: Optional[Slope] = None
    assumptions: list = field(default_factory=list)

    @cached_property
    def cores(self) -> dict[str, CyclicWord]:
        """The cyclic core of each relator, keyed by the relator's tokens."""
        return {r.tokens(): r.cyclic_reduce()[0] for r in self.relators}

    @cached_property
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
# the claim; the engine, which only builds true lines, gives none.

def _is_root_power(word: Word, n: int) -> bool:
    """word == k^n, decided on the letters without building the power."""
    letter = ("k", 1 if n > 0 else -1)
    return len(word) == abs(n) and word.letters.count(letter) == abs(n)


def _assume(ctx, prem, args, claim):
    word, sign = claim
    if prem or {"word": word.tokens(), "sign": sign.value} not in ctx.assumptions:
        raise EngineError("an assumption has no premises and is declared by the branch")
    return word, sign


def _power(ctx, prem, args, claim):
    (word, sign), = prem
    n = int(args["n"])
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
    return u * v, sign


def _conjugate(ctx, prem, args, claim):
    (word, sign), = prem
    x = parse_word(args["conjugator"])
    return x * word * ~x, sign


def _relator(ctx, prem, args, claim):
    """Signs transport along equality witnessed by one copy of the cited relator."""
    (word, sign), = prem
    target = claim[0]
    core = ctx.cores.get(args["relator"])
    witness = None if core is None else rotation_witness(~target * word, core)
    if not witness or (witness["rotation"], witness["inverted"]) != (
            args["rotation"], args["inverted"]):
        raise EngineError("relator transfer not witnessed by a relator of the group")
    return target, sign


def _peripheral_meridian(ctx, prem, args, claim):
    """k^q equals the meridian c in the filled group."""
    (word, sign), = prem
    slope, vec = ctx.slope, bezout_k(ctx.slope)
    if not _is_root_power(word, slope.q) or args != {
            "p": slope.p, "q": slope.q, "bezout": [vec.m, vec.l]}:
        raise EngineError("peripheral-meridian needs k^q and the slope's bezout pair")
    return C, sign


def _fact_exponent(ctx, prem, args, claim):
    """The clasp word is k^(-e), e = p - (4s+7)q; trivial when e = 0."""
    (word, sign), = prem
    power = -fact_exponent(ctx.s, ctx.slope)
    clasp = clasp_word(ctx.s)
    if args != {"clasp_power": power, "p": ctx.slope.p, "q": ctx.slope.q}:
        raise EngineError("exponent bookkeeping is wrong")
    if power == 0 and word == clasp:  # the premise is the clasp word's own sign
        return clasp, Sign.IDENTITY
    if power == 0 or not _is_root_power(word, power):
        raise EngineError("the premise is not the cited power of the root")
    return clasp, sign


def _abelian_obstruction(ctx, prem, args, claim):
    """A trivially acting meridian kills H1, which has order > 1."""
    if prem != ((C, Sign.IDENTITY),) or args != {"h1_order": ctx.h1} or ctx.h1 < 2:
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


def _transfer_args(ctx: BranchContext, word: Word, target: Word) -> dict:
    """Relator-rule args citing the relator copy that equates word and target."""
    diff = ~target * word
    for tokens, core in ctx.cores.items():
        witness = rotation_witness(diff, core)
        if witness:
            return {"relator": tokens, "rotation": witness["rotation"],
                    "inverted": witness["inverted"]}
    raise EngineError(f"{word} and {target} differ by no single relator copy")


# -- the engine ---------------------------------------------------------------

@dataclass
class JournalLine:
    rule: str
    premises: tuple[int, ...]
    args: dict
    word: Optional[Word]
    sign: Optional[Sign]
    note: str = ""

    def to_json(self) -> dict:
        if self.word is None:
            conclusion = {"contradiction": True}
        else:
            conclusion = {"word": self.word.tokens(), "sign": self.sign.value}
        data = {"rule": self.rule, "premises": list(self.premises),
                "args": self.args, "conclusion": conclusion}
        if self.note:
            data["note"] = self.note
        return data


class Contradiction(Exception):
    def __init__(self, line_index: int):
        super().__init__(f"contradiction at journal line {line_index}")


@dataclass
class Branch:
    """One case of the order argument: a partial sign assignment with its
    deduction journal and budget.

    Lines enter only through `apply`, which records what a RULES entry
    returns and checks each new classification with `clash` against
    itself and the signs already known for its word and inverse.  Every
    line but a closing one is charged to the budget, and a line past the
    budget is refused before its rule runs.
    """
    name: str = ""
    ctx: BranchContext = field(default_factory=BranchContext)
    budget: int = DEFAULT_DEPTH
    note: str = ""
    used: int = 0
    journal: list[JournalLine] = field(default_factory=list)
    signs: dict = field(default_factory=dict)
    outcome: str = "open"  # open | contradiction | budget

    def fact(self, idx: int) -> Fact:
        if not 0 <= idx < len(self.journal) or self.journal[idx].word is None:
            raise EngineError(f"line {idx} is not a classification")
        return self.journal[idx].word, self.journal[idx].sign

    def apply(self, rule: str, premises: tuple[int, ...], args: dict,
              claim: Optional[Fact] = None, note: str = "") -> int:
        """Run RULES[rule] on recorded premises and record its conclusion."""
        if self.outcome == "contradiction":
            raise EngineError("branch already closed")
        if rule not in CLOSING_RULES and self.used >= self.budget:
            self.outcome = "budget"
            raise BudgetExhausted(f"depth budget {self.budget} exhausted")
        conclusion = RULES[rule](self.ctx, tuple(self.fact(i) for i in premises),
                                 args, claim)
        if conclusion is None:
            self._close(rule, premises, args, note)
        self.used += 1
        word, sign = conclusion
        self.journal.append(JournalLine(rule, premises, args, word, sign, note))
        idx = len(self.journal) - 1
        partners = [(idx, conclusion)]
        for known in (word, ~word):
            entry = self.signs.get(known.letters)
            if entry:
                partners.append((entry[1], (known, entry[0])))
        for other_idx, other in partners:
            reason = clash(self.ctx, conclusion, other)
            if reason:
                self._close("contradiction", (idx, other_idx), {}, reason)
        self.signs.setdefault(word.letters, (sign, idx))
        return idx

    def _close(self, rule: str, premises: tuple[int, ...], args: dict, note: str):
        self.journal.append(JournalLine(rule, premises, args, None, None, note))
        self.outcome = "contradiction"
        raise Contradiction(len(self.journal) - 1)

    def assume(self, word: Word, sign: Sign, note: str = "") -> int:
        """Declare word ~ sign a hypothesis of the branch and record it."""
        declared = {"word": word.tokens(), "sign": sign.value}
        if declared not in self.ctx.assumptions:
            self.ctx.assumptions.append(declared)
        return self.apply("assume", (), {}, (word, sign), note)

    def transfer(self, idx: int, target: Word, note: str = "") -> int:
        """Carry the sign of line idx to target across one relator copy."""
        args = _transfer_args(self.ctx, self.fact(idx)[0], target)
        return self.apply("relator", (idx,), args, (target, None), note)

    def to_json(self) -> dict:
        return {"name": self.name, "assumptions": self.ctx.assumptions,
                "journal": [line.to_json() for line in self.journal],
                "outcome": self.outcome, "note": self.note}


# -- scripted replays of the order arguments ---------------------------------

def _meridian_root_line(branch: Branch, slope: Slope, root_idx: int) -> int:
    """k^q classified, then transported to the meridian c."""
    kq_idx = root_idx if slope.q == 1 else branch.apply(
        "power", (root_idx,), {"n": slope.q}, note="q-th power of the peripheral root")
    pair = bezout_k(slope)
    return branch.apply(
        "peripheral-meridian", (kq_idx,),
        {"p": slope.p, "q": slope.q, "bezout": [pair.m, pair.l]},
        note="k^q equals the meridian in the filled group")


def _lemma_chain(branch: Branch, s: int, slope: Slope, root_sign: Sign) -> dict:
    """Journal the chain from a strictly signed root to a signed l.

    The meridian inherits the sign, a conjugate of it rides along the
    clasp prefix, one rotated relator copy trades the comparison word,
    and un-conjugating isolates l.  Returns the key journal indices.
    """
    root = branch.assume(K, root_sign, note="root normalization")
    c_idx = _meridian_root_line(branch, slope, root)
    w = parse_word(f"l c l^{s} c l")  # the clasp prefix
    conj_idx = branch.apply("conjugate", (c_idx,), {"conjugator": (~w).tokens()},
                            note="meridian conjugated along the clasp prefix")
    prod_idx = branch.apply("product", (conj_idx, c_idx), {})
    d_idx = branch.transfer(prod_idx, COMPARISON,
                            note="trade the comparison word by one relator copy")
    l_idx = branch.apply("conjugate", (d_idx,), {"conjugator": ISOLATE_L.tokens()},
                         note="un-conjugate to isolate l")
    return {"root": root, "c": c_idx, "l": l_idx}


def replay_lemma_l_positive(s: int, slope: Slope, root_sign: Sign = Sign.POSITIVE,
                            budget: int = DEFAULT_DEPTH) -> Branch:
    """Scripted replay: a strictly signed root forces l to the same sign."""
    if root_sign is Sign.IDENTITY:
        raise EngineError("the identity root is handled by the degenerate branch")
    branch = Branch(f"k_{root_sign.value}", BranchContext((final_relator(s),), s, slope),
                    budget)
    _lemma_chain(branch, s, slope, root_sign)
    return branch


@dataclass
class Certificate:
    s: int
    slope: Slope
    branches: list[Branch]
    depth_used: int
    depth_budget: int

    def to_json(self) -> dict:
        return {
            "params": _params_json(self.s, self.slope, self.depth_budget),
            "branches": [b.to_json() for b in self.branches],
            "symmetry": ("the k-negative case is the orientation mirror of the "
                         "k-positive branch; reversing the line swaps the signs"),
            "interpretation": (
                "every orientation-preserving action of the filled group on the "
                "line has a globally fixed point, hence the group (countable) "
                "carries no left-invariant total order"),
            "verdict": "not_left_orderable",
            "engine_version": ENGINE_VERSION,
            "depth_used": self.depth_used,
        }


@dataclass
class Inconclusive:
    s: int
    slope: Slope
    reason: str
    branches: list[Branch]
    depth_budget: int

    def to_json(self) -> dict:
        return {
            "params": _params_json(self.s, self.slope, self.depth_budget),
            "branches": [b.to_json() for b in self.branches],
            "verdict": "inconclusive",
            "reason": self.reason,
            "engine_version": ENGINE_VERSION,
        }


def _params_json(s: int, slope: Slope, depth: int) -> dict:
    return {"s": s, "p": slope.p, "q": slope.q, "depth": depth,
            "p_odd": slope.p % 2 != 0,
            "slope_bound": 4 * s + 7,
            "relator": final_relator(s).tokens(),
            "longitude": longitude_word(s).tokens(),
            "clasp": clasp_word(s).tokens()}


def _strict_branch(s: int, slope: Slope, root_sign: Sign, budget: int) -> Branch:
    """The main case: a fixed-point-free root normalized to one sign."""
    e = fact_exponent(s, slope)  # p - (4s+7) q
    branch = Branch(f"k_{root_sign.value}", BranchContext((final_relator(s),), s, slope),
                    budget)
    try:
        marks = _lemma_chain(branch, s, slope, root_sign)
        c_idx, l_idx = marks["c"], marks["l"]
        branch.apply("power", (c_idx,), {"n": 3}, note="the meridian cube bound")
        ls_idx = branch.apply("power", (l_idx,), {"n": s})
        factors = (c_idx, ls_idx, c_idx, ls_idx, c_idx, l_idx)  # l c l^s c l^s c l
        w0_idx = l_idx
        for n, factor in enumerate(factors, 1):
            w0_idx = branch.apply("product", (w0_idx, factor), {}, note=(
                "the clasp word, signed by products" if n == len(factors) else ""))
        # the peripheral identity: clasp = k^((4s+7)q - p) = k^(-e)
        args = {"clasp_power": -e, "p": slope.p, "q": slope.q}
        if e < 0:
            branch.note = (f"slope below the bound: the clasp word is k^{-e}, a positive "
                           f"power of the root, consistent with its sign")
        elif e == 0:
            branch.apply("fact-exponent", (w0_idx,), args,
                         note="zero peripheral exponent: the clasp word is trivial")
        else:
            kinv = branch.apply("inverse", (marks["root"],), {})
            kpow = kinv if e == 1 else branch.apply("power", (kinv,), {"n": e})
            branch.apply("fact-exponent", (kpow,), args,
                         note="the clasp word is this negative power of the root")
    except (Contradiction, BudgetExhausted):
        pass
    return branch


def _identity_branch(s: int, slope: Slope, budget: int) -> Branch:
    """The degenerate case: the root acts trivially."""
    branch = Branch("k_identity", BranchContext((final_relator(s),), s, slope), budget)
    try:
        root = branch.assume(K, Sign.IDENTITY, note="degenerate root")
        c_idx = _meridian_root_line(branch, slope, root)
        order = branch.ctx.h1
        if order == 1 or order == 0:
            branch.note = f"H1 has order {order}; a trivial meridian is not obstructed"
        else:
            branch.apply("abelian-obstruction", (c_idx,), {"h1_order": order},
                         note="a trivially-acting meridian kills H1, which has order > 1")
    except (Contradiction, BudgetExhausted):
        pass
    return branch


def nlo_search(s: int, slope: Slope, depth: int = DEFAULT_DEPTH):
    """Case tree for non-left-orderability of the filled group.

    Returns a Certificate when every branch reaches a contradiction and
    an honest Inconclusive otherwise (slope below the bound, or budget).
    """
    check_s(s)
    if depth < 1:
        raise ValueError("depth budget must be at least 1")
    branches = [_strict_branch(s, slope, Sign.POSITIVE, depth),
                _identity_branch(s, slope, depth)]
    depth_used = sum(len(b.journal) for b in branches)
    if all(b.outcome == "contradiction" for b in branches):
        return Certificate(s, slope, branches, depth_used, depth)
    if any(b.outcome == "budget" for b in branches):
        reason = "depth budget exhausted"
    else:
        open_notes = "; ".join(b.note for b in branches if b.outcome == "open")
        reason = open_notes or "some branch stayed open"
    return Inconclusive(s, slope, reason, branches, depth)


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
            claim = None if conclusion == {"contradiction": True} else (
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
        s = check_s(params["s"])
        slope = Slope(params["p"], params["q"])
        relator = final_relator(s)
        cited = {"relator": relator, "longitude": longitude_word(s), "clasp": clasp_word(s)}
        for key, word in cited.items():
            report.add(f"cited {key}", params[key] == word.tokens(),
                       "does not match the knot group")
    except KeyError as exc:
        report.add("certificate", False, f"missing field {exc}")
        return report
    except (TypeError, ValueError) as exc:
        report.add("params", False, str(exc))
        return report
    report.add("clasp identity", clasp_identity_holds(s), "fails by free reduction")
    report.add("verdict", cert.get("verdict") == "not_left_orderable",
               f"unexpected verdict {cert.get('verdict')!r}")
    if not report.add("branches", isinstance(branches, list), "not a list"):
        return report
    cases = [b.get("assumptions") for b in branches if isinstance(b, dict)]
    report.add("cases", [{"word": "k", "sign": "positive"}] in cases
               and [{"word": "k", "sign": "identity"}] in cases,
               "certificate must cover the k-positive and k-identity cases "
               "(the k-negative case is the recorded orientation mirror)")
    for n, branch in enumerate(branches):
        if not isinstance(branch, dict) or not isinstance(branch.get("journal"), list):
            report.add(f"branch #{n}", False, "not an object with a journal list")
            continue
        name = branch.get("name", f"#{n}")
        ctx = BranchContext((relator,), s, slope, branch.get("assumptions"))
        problem = _replay_journal(ctx, branch["journal"])
        if problem is None and branch.get("outcome") != "contradiction":
            problem = "outcome is not a contradiction"
        report.add(f"branch {name}", problem is None, problem)
    return report
