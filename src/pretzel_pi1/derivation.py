"""The scripted simplification of the pretzel knot group presentation.

This module reproduces, as a machine-checked trace, the fixed sequence
of moves that takes the Wirtinger presentation down to the two
generator, one relator form

    < c, l | clc l^-1 c^-1 l^-s c^-1 l^-1 clc l^(s-1) >

while rewriting the longitude through every elimination, and then
simplifies the resulting longitude word to

    c^-(2s-2) l c l^s c l^s c l c^-(2s+9)

using justified consequences of the single relator.  Closed forms for
the relator and the longitude after each corkscrew elimination are
verified against an iterative substitution oracle (verify_R_induction,
verify_L_induction).

The starting data are generated straight from s: the Wirtinger
presentation (one generator per arc, one relator per crossing), the
tunnel moves that seed the pipeline, and the longitude read off the
diagram.  The diagram itself is never modeled; the crossing schema is
complete as a function of s.  The closed-form endpoints the derivation
must reach, r_inf and the simplified longitude, are defined in knot.py,
which the checkers read without loading this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .knot import check_s, final_relator, longitude_word
from .presentations import (
    AddGenerator,
    DerivationTrace,
    Insertion,
    InvertRelator,
    Presentation,
    RelabelRelator,
    RemoveGenerator,
    RemoveRelator,
    Replay,
    RewriteLongitude,
    RewriteRelator,
    RotateRelator,
    SubstituteEverywhere,
    apply_move,
    solve_for,
)
from .report import Check, Report
from .words import Word, parse_word, rotation_witness, splice


class DerivationError(RuntimeError):
    pass


class MoveRejected(DerivationError):
    """A move the derivation emitted that its checked replay rejected."""

    def __init__(self, check: Check):
        self.check = check
        super().__init__(f"{check.name} rejected: {check.reason}")


# -- starting data ----------------------------------------------------------

def strand_name(m: int, s: int) -> str:
    """Arc label along the twist region: f_m, with f_0=a, f_2s=g, f_2s+1=b."""
    if m == 0:
        return "a"
    if 1 <= m <= 2 * s - 1:
        return f"f{m}"
    if m == 2 * s:
        return "g"
    if m == 2 * s + 1:
        return "b"
    raise ValueError(f"strand index {m} out of range for s={s}")


def _conjugation_relator(over: str, source: str, target: str) -> Word:
    # crossing relation  over*source = source*target, stored reduced
    return Word.from_syllables([(over, 1), (source, 1), (target, -1), (source, -1)])


def wirtinger_presentation(s: int) -> Presentation:
    """One generator per arc, one relator per crossing: 2s+6 of each."""
    check_s(s)
    gens = ["a", "b", "c", "d", "e", "f"]
    gens += [f"f{i}" for i in range(1, 2 * s)]
    gens.append("g")
    relators: list[tuple[str, Word]] = [
        ("r1", _conjugation_relator("c", "a", "d")),
        ("r2", _conjugation_relator("a", "c", "b")),
        ("r3", _conjugation_relator("d", "f", "e")),
        ("r4", _conjugation_relator("f", "e", "c")),
        ("r5", _conjugation_relator("e", "c", "g")),
        ("r6", _conjugation_relator("f1", "a", "f")),
    ]
    # r7..r(2s+6) along the twist region; the last one, b g f_2s-1^-1 g^-1, has i = 2s
    relators += [(f"r{i + 6}", _conjugation_relator(strand_name(i + 1, s), strand_name(i, s),
                                                    strand_name(i - 1, s)))
                 for i in range(1, 2 * s + 1)]
    return Presentation(tuple(gens), tuple(relators), provenance=f"wirtinger s={s}")


def tunnel_moves(s: int) -> tuple:
    """Attach the tunnel: add f0 defined as a, rewire the two adjacent crossings.

    The r6/r7 rewrites touch a single occurrence of a each, so they are
    expressed as justified insertions of the new relator rather than a
    global substitution.
    """
    check_s(s)
    macro = "tunnel"
    return (
        AddGenerator("f0", Word.generator("a"), "r_inf", macro=macro),
        RewriteRelator("r6", (Insertion("r_inf", False, Word.generator("f1"), 0),),
                       macro=macro),
        RewriteRelator("r7", (Insertion("r_inf", True, Word.generator("f0", -1), 2),),
                       macro=macro),
    )


def tunnel_collapse(s: int) -> Presentation:
    p = wirtinger_presentation(s)
    for move in tunnel_moves(s):
        p = apply_move(p, move)[0]
    return replace(p, provenance=f"tunnel s={s}")


def initial_longitude(s: int) -> Word:
    """The longitude read along the knot, then the writhe correction.

    The 2s+6 arc labels a f c f_2s-1 ... f_3 f_1 c g f_2s-2 ... f_2 a e are
    all read positively under the fixed orientation, so the meridian
    correction appended at the end is c^alpha with alpha = -(sum of the read
    signs) = -(2s+6), which makes the longitude null-homologous.
    """
    check_s(s)
    arcs = [("a", 1), ("f", 1), ("c", 1)]
    arcs += [(f"f{i}", 1) for i in range(2 * s - 1, 0, -2)]
    arcs += [("c", 1), ("g", 1)]
    arcs += [(f"f{i}", 1) for i in range(2 * s - 2, 1, -2)]
    arcs += [("a", 1), ("e", 1)]
    return Word.from_syllables(arcs + [("c", -(2 * s + 6))])


# -- closed forms -----------------------------------------------------------

def closed_form_R(i: int, s: int) -> Word:
    """The distinguished relator after i corkscrew eliminations."""
    check_s(s)
    if not 1 <= i <= 2 * s:
        raise DerivationError(f"relator index {i} out of range 1..{2 * s}")
    j = (i + 1) // 2
    if i % 2:  # i == 2j-1: (x^-1 y^-1)^(j-1) x^-1 (y x)^j a^-1
        x, y, head, sign = strand_name(2 * j - 1, s), strand_name(2 * j, s), j - 1, -1
    else:  # (x^-1 y^-1)^j x (y x)^j a^-1
        x, y, head, sign = strand_name(2 * j, s), strand_name(2 * j + 1, s), j, 1
    return Word.from_syllables([(x, -1), (y, -1)] * head + [(x, sign)]
                               + [(y, 1), (x, 1)] * j + [("a", -1)])


def closed_form_L(i: int, s: int) -> Word:
    """The longitude after i corkscrew eliminations: a f c, the odd strands
    above f_i (f_2s-1 first), the left segment, c, the even strands above f_i
    (f_2s = g first), the right segment, a e c^-(2s+6).  With x = f_i and
    y = f_i+1 the segments are y^-(j-1) x (y x)^(j-1) and x^-(j-1) (y x)^(j-1)
    for i == 2j-1, and x^-j (y x)^j and y^-(j-1) x (y x)^(j-1) for i == 2j."""
    check_s(s)
    if not 1 <= i <= 2 * s:
        raise DerivationError(f"longitude index {i} out of range 1..{2 * s}")
    j = (i + 1) // 2
    x, y = strand_name(i, s), strand_name(i + 1, s)
    if i % 2:
        left = [(y, 1 - j), (x, 1)] + [(y, 1), (x, 1)] * (j - 1)
        right = [(x, 1 - j)] + [(y, 1), (x, 1)] * (j - 1)
    else:
        left = [(x, -j)] + [(y, 1), (x, 1)] * j
        right = [(y, 1 - j), (x, 1)] + [(y, 1), (x, 1)] * (j - 1)
    return Word.from_syllables([("a", 1), ("f", 1), ("c", 1)]
                               + [(strand_name(m, s), 1) for m in range(2 * s - 1, i, -2)]
                               + left + [("c", 1)]
                               + [(strand_name(m, s), 1) for m in range(2 * s, i, -2)]
                               + right + [("a", 1), ("e", 1), ("c", -(2 * s + 6))])


# -- induction oracles -------------------------------------------------------

def _twist_replacement(i: int, s: int) -> Word:
    """f_i in terms of its successors, read off the crossing relation r_{i+7}."""
    x = strand_name(i + 1, s)
    return Word.from_syllables([(x, -1), (strand_name(i + 2, s), 1), (x, 1)])


def _induction(title: str, s: int, word: Word, expected: Callable[[int, int], Word]) -> Report:
    """Steps 1..2s: word, then word with f_1..f_i substituted away at step i+1,
    each compared with expected(step, s)."""
    report = Report(title)
    for i in range(2 * s):
        if i:
            word = word.substitute(strand_name(i, s), _twist_replacement(i, s))
        report.add(f"step {i + 1}", word == expected(i + 1, s),
                   "the substituted word differs from the closed form", i + 1)
    return report


def verify_R_induction(s: int) -> Report:
    """Iterative substitution oracle against the closed relator forms."""
    check_s(s)
    # base: eliminate f0 from the tunnel relator pair
    p2 = tunnel_collapse(s)
    base = p2.relator("r_inf").substitute("f0", solve_for(p2.relator("r7"), "f0"))
    return _induction(f"R induction s={s}", s, base, closed_form_R)


def verify_L_induction(s: int) -> Report:
    """Iterative substitution oracle against the closed longitude forms."""
    check_s(s)
    return _induction(f"L induction s={s}", s, initial_longitude(s), closed_form_L)


# -- the pipeline longitude ---------------------------------------------------

# the block the pipeline longitude repeats s-1 times
_BRACKET = [("l", -1), ("c", 1), ("l", 1), ("c", 1), ("l", -1), ("c", -1)]


def expected_l12(s: int) -> Word:
    return Word.from_syllables([("c", -(s - 1)), ("l", 1), ("c", 1), ("l", s)]
                               + _BRACKET * (s - 1)
                               + [("l", -1), ("c", 1), ("l", 1), ("c", 1), ("l", s - 1),
                                  ("c", 1), ("l", 1), ("c", -(2 * s + 8))])


# -- the pipeline ------------------------------------------------------------

def _replacement_insertion(word: Word, pos: int, old: Word, new: Word,
                           label: str, relator: Word) -> Insertion:
    """Insertion that swaps old for new at pos, justified by the relator."""
    if word[pos:pos + len(old)] != old:
        raise DerivationError(f"no occurrence of {old} at position {pos} in {word}")
    diff = splice(new, ~old)
    cyclic, outer = relator.cyclic_reduce()
    witness = rotation_witness(diff, cyclic)
    if witness is None:
        raise DerivationError(f"replacement {old} -> {new} is not justified by {relator}")
    core = ~cyclic.word if witness["inverted"] else cyclic.word
    prefix = core[:witness["rotation"]]
    conj = splice(witness["conjugator"], ~prefix, ~outer)
    return Insertion(label, witness["inverted"], conj, pos)


def _first_position(word: Word, old: Word, where: str, start: int = 0) -> int:
    pos = word.find(old, start)
    if pos < 0:
        raise DerivationError(f"{old} does not occur in {where} {word}")
    return pos


def _first_replacement(word: Word, old: Word, new: Word, via: str, p: Presentation,
                       where: str) -> Insertion:
    """Insertion that swaps the first occurrence of old in word for new."""
    return _replacement_insertion(word, _first_position(word, old, where), old, new, via,
                                  p.relator(via))


def _rewrite_relator(p: Presentation, label: str, old: Word, new: Word,
                     via: str, macro: str) -> RewriteRelator:
    ins = _first_replacement(p.relator(label), old, new, via, p, f"relator {label} =")
    return RewriteRelator(label, (ins,), macro=macro)


def knot_group_presentation(s: int) -> Presentation:
    """<c, l | r_inf>, the closed-form end of the pipeline."""
    return Presentation(("c", "l"), (("r_inf", final_relator(s)),),
                        provenance=f"pipeline s={s}")


@dataclass(frozen=True)
class PipelineResult:
    trace: DerivationTrace  # the Tietze moves, then the longitude simplification
    longitude: Word  # the pipeline longitude l12, before simplification
    report: Report  # the finished report of the one checked pass


def run_pipeline(s: int) -> PipelineResult:
    """Script the whole derivation: the Tietze moves down to <c, l | r_inf>,
    then the moves of simplify_longitude.  Every move is applied once, with
    all the checks of replay_trace, as it is recorded; raises MoveRejected at
    the first move that fails them.  The report ends with the checks of the
    closed-form ends, knot_group_presentation(s) and longitude_word(s)."""
    check_s(s)
    start = wirtinger_presentation(s)
    lon_start = initial_longitude(s)
    replay = Replay(start, lon_start)
    p, lon = start, lon_start
    moves: list = []

    def do(move):
        nonlocal p, lon
        if not replay.step(move):
            raise MoveRejected(replay.report.first_failure())
        p, lon = replay.presentation, replay.longitude
        moves.append(move)

    for move in tunnel_moves(s):
        do(move)

    # unwind the twist region, one crossing at a time
    for i in range(0, 2 * s):
        gen = "f0" if i == 0 else strand_name(i, s)
        do(RemoveGenerator(gen, f"r{i + 7}", macro="corkscrew"))

    # open the tunnel vertex: h stands for af
    macro = "opening"
    af, h = parse_word("a f"), Word.generator("h")
    do(AddGenerator("h", af, "r7", macro=macro))
    do(_rewrite_relator(p, "r6", parse_word("F A"), ~h, "r7", macro))
    ins = _first_replacement(lon, af, h, "r7", p, "the longitude")
    do(RewriteLongitude((ins,), macro=macro))
    # each bg -> h inserts the same conjugate of r6; only its position moves,
    # and it only moves right: the letters before a rewrite keep their places
    bg, ins, pos = parse_word("b g"), None, 0
    for _ in range(2 * s - 1):
        pos = _first_position(lon, bg, "the longitude", pos)
        ins = (replace(ins, position=pos) if ins else
               _replacement_insertion(lon, pos, bg, h, "r6", p.relator("r6")))
        do(RewriteLongitude((ins,), macro=macro))
    do(SubstituteEverywhere("b", parse_word("h G"), "r6",
                            only_in=("r_inf",), macro=macro))

    # slide the clasp over: d goes away and the crossing relation turns into ch=he
    macro = "upper_sliding"
    do(RemoveGenerator("d", "r1", macro=macro))
    do(_rewrite_relator(p, "r3", af, h, "r7", macro))
    do(RotateRelator("r3", 1, macro=macro))
    do(_rewrite_relator(p, "r3", parse_word("F A"), ~h, "r7", macro))

    # slide under: a goes away, k and l appear
    macro = "under_sliding"
    do(RemoveGenerator("a", "r7", macro=macro))
    for gen, source, label in (("k", "f", "r8"), ("l", "h", "r9")):
        do(AddGenerator(gen, parse_word(f"C {source} c"), label, macro=macro))
        do(InvertRelator(label, macro=macro))
        do(RotateRelator(label, 1, macro=macro))
    do(_rewrite_relator(p, "r2", parse_word("F c"), parse_word("c K"), "r8", macro))
    do(_rewrite_relator(p, "r2", parse_word("h c"), parse_word("c l"), "r9", macro))
    do(RotateRelator("r2", 1, macro=macro))
    do(RelabelRelator("r2", "r10", macro=macro))

    # collapse the b arc
    macro = "collapsing"
    do(RemoveGenerator("b", "r10", macro=macro))
    do(InvertRelator("r6", macro=macro))

    # turning move: f goes away, then gc=kg replaces the clasp relation
    macro = "turning"
    do(RemoveGenerator("f", "r4", macro=macro))
    do(SubstituteEverywhere("e", parse_word("c g C"), "r5",
                            only_in=("r8",), macro=macro))
    do(RotateRelator("r8", 1, macro=macro))
    do(RelabelRelator("r8", "r11", macro=macro))

    # four more corkscrews eliminate k, g, e, h
    do(RemoveGenerator("k", "r11", macro="corkscrew"))
    do(RemoveGenerator("g", "r5", macro="corkscrew"))
    do(RemoveGenerator("e", "r3", macro="corkscrew"))
    do(RotateRelator("r6", 1, macro="corkscrew"))
    do(RemoveGenerator("h", "r6", macro="corkscrew"))
    do(RemoveRelator("r9", macro="corkscrew"))
    do(RotateRelator("r_inf", 2 * s + 5, macro="cyclic"))

    l12 = lon
    for move in simplify_longitude(s, l12):
        do(move)
    # the ends are the closed forms, so finish checks the stepper against them
    end = knot_group_presentation(s)
    trace = DerivationTrace(start, tuple(moves), end, lon_start, longitude_word(s))
    return PipelineResult(trace, l12, replay.finish(trace.end, trace.longitude_end))


# -- longitude simplification -------------------------------------------------

def simplify_longitude(s: int, l12: Word) -> tuple[RewriteLongitude, ...]:
    """Shorten the pipeline longitude via single-relator consequences.

    The chain first straightens the tail, then unfolds the repeated
    bracket one factor at a time; each step is one RewriteLongitude that
    inserts one conjugate of the knot group relator, checked where the
    moves are replayed (run_pipeline steps them through its Replay).
    Chain word n is c^-(s-2+n) l c l^s bracket^(s-n) tail, so each
    unfolding is the same insertion at its own offset.
    """
    check_s(s)
    if l12 != expected_l12(s):
        raise DerivationError("input longitude does not match the pipeline output")
    tail = [("c", 1), ("l", s), ("c", 1), ("l", 1), ("c", -(2 * s + 9))]

    def chain_word(n: int) -> Word:
        return Word.from_syllables([("c", -(s - 2 + n)), ("l", 1), ("c", 1), ("l", s)]
                                   + _BRACKET * (s - n) + tail)

    if chain_word(s) != longitude_word(s):
        raise DerivationError("simplification chain did not reach the closed form")
    relator, first = final_relator(s), chain_word(1)
    # the tail: the pipeline longitude becomes chain word 1 after their common prefix
    n = min(len(l12), len(first))
    k = next((i for i in range(n) if l12[i:i + 1] != first[i:i + 1]), n)
    steps = [_replacement_insertion(l12, k, l12[k:], first[k:], "r_inf", relator)]
    # chain word n to n+1: at offset s-2+n, l c l^s bracket becomes c^-1 l c l^s
    unfold = _replacement_insertion(
        first, s - 1, Word.from_syllables([("l", 1), ("c", 1), ("l", s)] + _BRACKET),
        Word.from_syllables([("c", -1), ("l", 1), ("c", 1), ("l", s)]), "r_inf", relator)
    steps += [replace(unfold, position=s - 2 + n) for n in range(1, s)]
    return tuple(RewriteLongitude((step,), macro="longitude_simplification") for step in steps)
