"""Dehn surgery quotients, the peripheral checks, and the nlo certificate search.

The filled group is <c,l | r_inf(s), c^p L(s)^q> with meridian M = c and
longitude L the simplified null-homologous word.  M and L commute (they
live on the boundary torus), so identities among peripheral elements are
decided exactly in Z^2 modulo the sublattice generated by (p, q); no
word search in the group is ever needed for them.

surgered_presentation, for the `surgery` command, builds the filling word
in one pass, from the run of c^p and q copies of the runs of L, reduced
only at the seams, so it costs p + q|L| letters.  |H_1| never needs it
(knot.h1_order).

nlo_search writes the non-left-orderability argument as a case tree of
Branch objects, each a deduction journal whose every line is what a rule
of orderability.RULES returned.  The certificate it emits is checked by
orderability.replay_certificate, which imports nothing from here.  Only
the `power` rule multiplies a word by itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .knot import (PeripheralVector, Slope, bezout_k, check_s, clasp_identity_holds,
                   fact_exponent, final_relator, longitude_word)
from .orderability import (CLOSING_RULES, ENGINE_VERSION, RULES, BranchContext, EngineError,
                           Fact, Sign, cited_params, clash)
from .presentations import Presentation
from .report import Report
from .words import _MAX_RUN, Word, WordError, _run, parse_word, rotation_witness, splice

MERIDIAN = PeripheralVector(1, 0)
LONGITUDE = PeripheralVector(0, 1)


def verify_lemma_k(slope: Slope) -> Report:
    """k^q = M and k^-p = L hold in the peripheral quotient."""
    k = bezout_k(slope)
    report = Report(f"lemma-k {slope}")
    report.add(f"k^{slope.q} = M", k.scaled(slope.q).congruent(MERIDIAN, slope))
    report.add(f"k^{-slope.p} = L", k.scaled(-slope.p).congruent(LONGITUDE, slope))
    return report


def verify_fact(s: int) -> Report:
    """Free-word half plus exponent bookkeeping of the clasp identity.

    (a) the free reduction identity of clasp_identity_holds.
    (b) trading each meridian block for k^q then moves the whole identity
        onto k with exponent p - (4s+7)q; the meridian blocks contribute
        (2s+9) + (2s-2) = 4s+7 copies of q.
    """
    check_s(s)
    report = Report(f"fact s={s}")
    report.add("free reduction identity", clasp_identity_holds(s))
    report.add("meridian blocks sum to 4s+7", (2 * s + 9) + (2 * s - 2) == 4 * s + 7)
    return report


def surgered_presentation(s: int, slope: Slope) -> Presentation:
    """Two generators, two relators: the knot relator plus the filling."""
    check_s(s)
    longitude = longitude_word(s)
    if _run(slope.p) + slope.q * len(longitude) > _MAX_RUN:  # before q copies of L's runs
        raise WordError(f"slope denominator {slope.q} is too large: c^p L^q would have more "
                        f"than {_MAX_RUN} letters before reduction")
    filling = Word.from_syllables([("c", slope.p)] + longitude.syllables() * slope.q)
    return Presentation(
        ("c", "l"),
        (("r_inf", final_relator(s)), ("fill", filling)),
        provenance=f"surgery s={s} slope={slope}")


# -- the nlo search -----------------------------------------------------------

DEFAULT_DEPTH = 100_000

K = parse_word("k")
COMPARISON = parse_word("c^-1 l^-1 c^-1 l c l c")  # traded by one relator copy
ISOLATE_L = parse_word("c l c")  # un-conjugates the traded comparison word to l


class BudgetExhausted(RuntimeError):
    pass


def _transfer_args(ctx: BranchContext, word: Word, target: Word) -> dict:
    """Relator-rule args citing the relator copy that equates word and target."""
    diff = splice(~target, word)
    for tokens, core in ctx.cores.items():
        witness = rotation_witness(diff, core)
        if witness:
            return {"relator": tokens, "rotation": witness["rotation"],
                    "inverted": witness["inverted"]}
    raise EngineError(f"{word} and {target} differ by no single relator copy")


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
        if rule not in CLOSING_RULES and len(self.journal) >= self.budget:
            self.outcome = "budget"
            raise BudgetExhausted(f"depth budget {self.budget} exhausted")
        conclusion = RULES[rule](self.ctx, tuple(self.fact(i) for i in premises),
                                 args, claim)
        if conclusion is None:
            self._close(rule, premises, args, note)
        word, sign = conclusion
        self.journal.append(JournalLine(rule, premises, args, word, sign, note))
        idx = len(self.journal) - 1
        partners = [(idx, conclusion)]
        for known in (word, ~word):
            entry = self.signs.get(known)
            if entry:
                partners.append((entry[1], (known, entry[0])))
        for other_idx, other in partners:
            reason = clash(self.ctx, conclusion, other)
            if reason:
                self._close("contradiction", (idx, other_idx), {}, reason)
        self.signs.setdefault(word, (sign, idx))
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


@dataclass
class SearchResult:
    """What nlo_search found: a certificate when reason is None, else an
    honest inconclusive with its reason."""
    s: int
    slope: Slope
    branches: list[Branch]
    depth_budget: int
    reason: Optional[str] = None

    def to_json(self) -> dict:
        doc = {"params": {"s": self.s, "p": self.slope.p, "q": self.slope.q,
                          "depth": self.depth_budget, **cited_params(self.s, self.slope)},
               "branches": [b.to_json() for b in self.branches]}
        if self.reason is not None:
            return {**doc, "verdict": "inconclusive", "reason": self.reason,
                    "engine_version": ENGINE_VERSION}
        return {
            **doc,
            "symmetry": ("the k-negative case is the orientation mirror of the "
                         "k-positive branch; reversing the line swaps the signs"),
            "interpretation": (
                "every orientation-preserving action of the filled group on the "
                "line has a globally fixed point, hence the group (countable) "
                "carries no left-invariant total order"),
            "verdict": "not_left_orderable",
            "engine_version": ENGINE_VERSION,
            "depth_used": sum(len(b.journal) for b in self.branches),
        }


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


def nlo_search(s: int, slope: Slope, depth: int = DEFAULT_DEPTH) -> SearchResult:
    """Case tree for non-left-orderability of the filled group.

    The result is a certificate (reason None) when every branch reaches a
    contradiction, and an honest inconclusive otherwise (slope below the
    bound, or budget).
    """
    check_s(s)
    if depth < 1:
        raise ValueError("depth budget must be at least 1")
    branches = [_strict_branch(s, slope, Sign.POSITIVE, depth),
                _identity_branch(s, slope, depth)]
    if all(b.outcome == "contradiction" for b in branches):
        return SearchResult(s, slope, branches, depth)
    if any(b.outcome == "budget" for b in branches):
        reason = "depth budget exhausted"
    else:
        open_notes = "; ".join(b.note for b in branches if b.outcome == "open")
        reason = open_notes or "some branch stayed open"
    return SearchResult(s, slope, branches, depth, reason)
