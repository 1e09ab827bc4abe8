import dataclasses
import json
from pathlib import Path

import pytest

from test_presentations import dense_null_homologous

from pretzel_pi1 import derivation, presentations
from pretzel_pi1.derivation import (
    DerivationError,
    MoveRejected,
    closed_form_L,
    closed_form_R,
    expected_l12,
    knot_group_presentation,
    run_pipeline,
    simplify_longitude,
    verify_L_induction,
    verify_R_induction,
)
from pretzel_pi1.knot import final_relator, longitude_word
from pretzel_pi1.presentations import (
    AddGenerator,
    Presentation,
    Replay,
    RewriteLongitude,
    apply_move,
    exponent_row,
    replay_trace,
    trace_from_json,
    trace_to_json,
)
from pretzel_pi1.words import CyclicWord, Word, palindrome_rotation, parse_word as W, splice


def test_closed_form_R_examples():
    assert closed_form_R(1, 3) == W("F1 f2 f1 A")
    assert closed_form_R(1, 9) == W("F1 f2 f1 A")
    assert closed_form_R(2, 3) == W("F2 F3 f2 f3 f2 A")
    assert closed_form_R(3, 3) == W("F3 F4 F3 f4 f3 f4 f3 A")
    assert closed_form_R(4, 3) == W("F4 F5 F4 F5 f4 f5 f4 f5 f4 A")
    assert closed_form_R(5, 3) == W("F5 G F5 G F5 g f5 g f5 g f5 A")
    assert closed_form_R(6, 3) == W("G B G B G B g b g b g b g A")
    with pytest.raises(DerivationError):
        closed_form_R(0, 3)
    with pytest.raises(DerivationError):
        closed_form_R(7, 3)


# -- product-built references ---------------------------------------------
# The closed forms as they were first written: one splice per product of
# factors and Word powers for the repeated blocks, each power reduced by the
# Word constructor.  derivation builds the same words from run lists.

def _letter(name, sign=1):
    return Word(((name, sign),))


def _letter_power(name, exp):
    return Word(((name, 1 if exp > 0 else -1),) * abs(exp))


def reference_descending_product(a, b, factor):
    assert a >= b - 1
    out = Word()
    for n in range(a, b - 1, -1):
        out = splice(out, factor(n))
    return out


def reference_closed_form_R(i, s):
    j = (i + 1) // 2
    a_inv = _letter("a", -1)
    if i % 2:
        x, y = derivation.strand_name(2 * j - 1, s), derivation.strand_name(2 * j, s)
        head = splice(_letter(x, -1), _letter(y, -1)) ** (j - 1)
        return splice(head, _letter(x, -1), splice(_letter(y), _letter(x)) ** j, a_inv)
    x, y = derivation.strand_name(2 * j, s), derivation.strand_name(2 * j + 1, s)
    head = splice(_letter(x, -1), _letter(y, -1)) ** j
    return splice(head, _letter(x), splice(_letter(y), _letter(x)) ** j, a_inv)


def reference_fragments(i, s):
    name = derivation.strand_name
    j = (i + 1) // 2
    odd_run = reference_descending_product(s, j + 1, lambda n: _letter(name(2 * n - 1, s)))
    if i % 2:
        x, y = name(2 * j - 1, s), name(2 * j, s)
        yx = splice(_letter(y), _letter(x))
        left = splice(odd_run, _letter_power(y, -(j - 1)), _letter(x), yx ** (j - 1))
        right = splice(reference_descending_product(s - 1, j, lambda n: _letter(name(2 * n, s))),
                       _letter_power(x, -(j - 1)), yx ** (j - 1))
    else:
        x, y = name(2 * j, s), name(2 * j + 1, s)
        yx = splice(_letter(y), _letter(x))
        left = splice(odd_run, _letter_power(x, -j), yx ** j)
        right = splice(reference_descending_product(s - 1, j + 1,
                                                    lambda n: _letter(name(2 * n, s))),
                       _letter_power(y, -(j - 1)), _letter(x), yx ** (j - 1))
    return left, right


def reference_longitude(i, s):
    """The longitude after i eliminations, assembled from its two fragments."""
    if i == 2 * s:
        return reference_terminal_longitude(s)
    left, right = reference_fragments(i, s)
    return splice(W("a f c"), left, W("c g"), right, W("a e"), _letter_power("c", -(2 * s + 6)))


def reference_terminal_longitude(s):
    bg = splice(_letter("b"), _letter("g"))
    return splice(W("a f c"), _letter_power("g", -s), bg ** s,
                  _letter("c"), _letter_power("b", -(s - 1)), _letter("g"), bg ** (s - 1),
                  W("a e"), _letter_power("c", -(2 * s + 6)))


def reference_expected_l12(s):
    bracket = W("L c l c L C")
    return splice(_letter_power("c", -(s - 1)), _letter("l"), _letter("c"), _letter_power("l", s),
                  bracket ** (s - 1), W("L c l c"), _letter_power("l", s - 1), W("c l"),
                  _letter_power("c", -(2 * s + 8)))


@pytest.mark.parametrize("s", range(3, 13))
def test_closed_forms_match_their_product_built_references(s):
    for i in range(1, 2 * s + 1):
        assert closed_form_R(i, s) == reference_closed_form_R(i, s), i
        assert closed_form_L(i, s) == reference_longitude(i, s), i
    assert expected_l12(s) == reference_expected_l12(s)


def test_closed_form_L_examples():
    # at i = 1 nothing is substituted yet: the initial longitude
    assert closed_form_L(1, 3) == W("a f c f5 f3 f1 c g f4 f2 a e c^-12")
    assert closed_form_L(1, 4) == W("a f c f7 f5 f3 f1 c g f6 f4 f2 a e c^-14")
    assert closed_form_L(3, 3) == W("a f c f5 F4 f3 f4 f3 c g f4 F3 f4 f3 a e c^-12")
    assert closed_form_L(4, 3) == W("a f c f5 F4 F4 f5 f4 f5 f4 c g F5 f4 f5 f4 a e c^-12")
    assert closed_form_L(6, 3) == W("a f c G G G b g b g b g c B B g b g b g a e c^-12")
    for i in (0, 7):
        with pytest.raises(DerivationError):
            closed_form_L(i, 3)


@pytest.mark.parametrize("s", list(range(3, 7)) + [15])
def test_inductions_pass(s):
    assert verify_R_induction(s).ok
    assert verify_L_induction(s).ok


def test_R_induction_negative_control(monkeypatch):
    def perturbed(i, s):
        word = closed_form_R(i, s)
        if i == 2:
            return splice(word, W("c"))
        return word

    monkeypatch.setattr(derivation, "closed_form_R", perturbed)
    report = verify_R_induction(3)
    assert not report.ok
    assert report.first_failure().index == 2


def test_L_induction_negative_control(monkeypatch):
    def botched(i, s):
        # one letter too many at j = 1
        word = closed_form_L(i, s)
        return splice(word, W("f2")) if i <= 2 else word

    monkeypatch.setattr(derivation, "closed_form_L", botched)
    report = verify_L_induction(3)
    assert not report.ok
    assert report.first_failure().index == 1


# -- expected intermediate states of the bundled s=3 run ---------------------

COMMON = {
    "r1": "c a D A", "r2": "a c B C", "r3": "d f E F",
    "r4": "f e C E", "r5": "e c G C",
}

G2 = dict(COMMON, **{
    "r6": "f1 f0 F A", "r7": "f2 f1 F0 F1", "r8": "f3 f2 F1 F2",
    "r9": "f4 f3 F2 F3", "r10": "f5 f4 F3 F4", "r11": "g f5 F4 F5",
    "r12": "b g F5 G", "r_inf": "f0 A",
})
G3_1 = dict(COMMON, **{
    "r6": "f2 f1 F A", "r8": "f3 f2 F1 F2", "r9": "f4 f3 F2 F3",
    "r10": "f5 f4 F3 F4", "r11": "g f5 F4 F5", "r12": "b g F5 G",
    "r_inf": "F1 f2 f1 A",
})
G3_2S = dict(COMMON, **{"r6": "b g F A",
                        "r_inf": "G B G B G B g b g b g b g A"})
G4 = dict(COMMON, **{"r6": "b g H", "r7": "h F A", "r_inf": "h^-3 g h^3 A"})
G5 = {"r2": "a c B C", "r3": "c h E H", "r4": "f e C E", "r5": "e c G C",
      "r6": "b g H", "r7": "h F A", "r_inf": "h^-3 g h^3 A"}
G6PRIME = {"r2": "h F c B C", "r3": "c h E H", "r4": "f e C E", "r5": "e c G C",
           "r6": "b g H", "r8": "f c K C", "r9": "h c L C",
           "r_inf": "h^-3 g h^3 f H"}
G6 = {"r10": "l K B", "r3": "c h E H", "r4": "f e C E", "r5": "e c G C",
      "r6": "b g H", "r8": "f c K C", "r9": "h c L C", "r_inf": "h^-3 g h^3 f H"}
G7 = {"r3": "c h E H", "r4": "f e C E", "r5": "e c G C", "r6": "h G k L",
      "r8": "f c K C", "r9": "h c L C", "r_inf": "h^-3 g h^3 f H"}
G8PRIME = {"r3": "c h E H", "r5": "e c G C", "r6": "h G k L",
           "r8": "e c E c K C", "r9": "h c L C", "r_inf": "h^-3 g h^3 e c E H"}
G8 = {"r3": "c h E H", "r5": "e c G C", "r6": "h G k L", "r11": "g c G K",
      "r9": "h c L C", "r_inf": "h^-3 g h^3 e c E H"}
G9 = {"r3": "c h E H", "r5": "e c G C", "r6": "h c G L", "r9": "h c L C",
      "r_inf": "h^-3 g h^3 e c E H"}
G10 = {"r3": "c h E H", "r6": "h E c L", "r9": "h c L C",
       "r_inf": "h^-3 C e c h^3 e c E H"}
G11 = {"r6": "h c L C", "r9": "h c L C",
       "r_inf": "h^-3 C H c h c h^2 c h c H C"}
G12_PREROT = {"r_inf": "c l^-3 C L c l c l^2 c l c L c^-2"}
FINAL = {"r_inf": "c l c L C l^-3 C L c l c l^2"}

L_STATES = [
    "a f c f5 f3 f1 c g f4 f2 a e c^-12",                          # L1
    "a f c g^-3 b g b g b g c b^-2 g b g b g a e c^-12",           # L_{3,2s}
    "h c g^-3 h^3 c b^-2 g h^2 a e c^-12",                         # L4 = L5
    "h c g^-3 h^3 c b^-2 g h^3 F e c^-12",                         # L6
    "h c g^-3 h^3 c k L k L g h^3 F e c^-12",                      # L7
    "h c g^-3 h^3 c k L k L g h^3 e c^-13",                        # L8
    "h c g^-3 h^3 c g c G L g c G L g h^3 e c^-13",                # L9
    "h e^-3 c h^3 c C e c E c L C e c E c L C e c h^3 e c^-13",    # L10
    "c^-3 h c h^3 c C H c h c H C h c L C H c h c H C h c L C H c h c h^2 c h c^-13",  # L11
    "c^-2 l c l^3 L c l c L C L c l c L C L c l c l^2 c l c^-14",  # L12
]


def _pipeline_states(s):
    result = run_pipeline(s)
    p = result.trace.start
    lon = result.trace.longitude_start
    states = [(p, lon)]
    for move in result.trace.moves:
        p, delta = apply_move(p, move, lon)
        lon = delta.longitude
        states.append((p, lon))
    return result, states


def test_pipeline_passes_through_the_expected_states():
    result, states = _pipeline_states(3)
    relator_sets = [{lab: str(w) for lab, w in p.relators} for p, _ in states]
    for expected in (G2, G3_1, G3_2S, G4, G5, G6PRIME, G6, G7, G8PRIME, G8,
                     G9, G10, G11, G12_PREROT, FINAL):
        want = {lab: str(W(tok)) for lab, tok in expected.items()}
        assert want in relator_sets, f"missing state {expected}"
    longitudes = {lon for _, lon in states}
    for tok in L_STATES:
        assert W(tok) in longitudes, f"missing longitude {tok}"


def test_pipeline_generator_orders_match_source():
    _, states = _pipeline_states(3)
    gen_orders = {p.generators for p, _ in states}
    assert ("a", "b", "c", "d", "e", "f", "g", "h") in gen_orders      # opened
    assert ("b", "c", "e", "f", "g", "h", "k", "l") in gen_orders      # under-slid
    assert ("c", "e", "h", "l") in gen_orders                          # late stage
    assert ("c", "l") in gen_orders                                    # final


@pytest.mark.parametrize("s", range(3, 13))
def test_pipeline_endpoint_properties(s):
    result = run_pipeline(s)
    p = result.trace.end
    assert p.generators == ("c", "l")
    relator = p.relator("r_inf")
    assert relator == final_relator(s)
    assert len(relator) == 2 * s + 9
    core, conj = relator.cyclic_reduce()
    assert conj == Word() and core.word == relator  # cyclically reduced
    assert exponent_row(relator) == {"c": 2, "l": -1}
    assert palindrome_rotation(CyclicWord(relator)) is not None
    assert result.longitude == expected_l12(s)
    assert p.abelian_invariants() == (0,)


def test_pipeline_move_count_is_stable():
    for s in (3, 5):
        moves = run_pipeline(s).trace.moves
        assert sum(move.macro != "longitude_simplification" for move in moves) == 4 * s + 34
        assert len(moves) == 4 * s + 34 + s  # one tail rewrite + s-1 bracket unfoldings


def test_relator_count_matches_declared_deltas():
    """Each move's Delta declares the relators it adds and drops; over the
    whole trace they account for the change in the relator count."""
    for s in (3, 6):
        trace = run_pipeline(s).trace
        p, lon, declared = trace.start, trace.longitude_start, 0
        for mv in trace.moves:
            q, delta = apply_move(p, mv, lon)
            declared += len(delta.words.keys() - set(p.labels())) - len(delta.dropped)
            p, lon = q, delta.longitude
        assert len(trace.end.relators) == len(trace.start.relators) + declared
        assert trace.start.abelian_invariants() == trace.end.abelian_invariants()


@pytest.mark.parametrize("s", [3, 4, 7])
def test_pipeline_trace_replays_with_abelian_checks(s):
    result = run_pipeline(s)
    report = replay_trace(result.trace, check_abelian=True)
    assert report.ok, str(report)


def test_trace_negative_control():
    result = run_pipeline(3)
    bad_end = dataclasses.replace(
        result.trace.end, relators=(("r_inf", splice(final_relator(3), W("c"))),))
    report = replay_trace(
        type(result.trace)(result.trace.start, result.trace.moves, bad_end,
                           result.trace.longitude_start, result.trace.longitude_end))
    assert not report.ok


def test_trace_json_round_trip_s3():
    trace = run_pipeline(3).trace
    again = trace_from_json(trace_to_json(trace))
    assert again == trace
    assert replay_trace(again).ok


def test_simplified_longitude_s3():
    result = run_pipeline(3)
    moves = simplify_longitude(3, result.longitude)
    replay = Replay(result.trace.end, result.longitude)
    assert all(replay.step(move) for move in moves)
    assert replay.longitude == W("c^-4 l c l^3 c l^3 c l c^-15")
    assert len(moves) == 3  # one tail rewrite + s-1 bracket unfoldings
    with pytest.raises(DerivationError):
        simplify_longitude(3, splice(result.longitude, W("c")))


@pytest.mark.parametrize("s", range(3, 13))
def test_longitude_simplification_and_homology(s):
    trace = run_pipeline(s).trace
    assert trace.longitude_end == longitude_word(s)
    p = knot_group_presentation(s)
    assert dense_null_homologous(p, longitude_word(s))
    assert dense_null_homologous(p, splice(~longitude_word(s), expected_l12(s)))


@pytest.mark.parametrize("s", [3, 6])
def test_the_whole_trace_replays(s):
    assert replay_trace(run_pipeline(s).trace).ok


# -- run_pipeline's one checked pass ---------------------------------------------

@pytest.mark.parametrize("s", [*range(3, 13), 34])
def test_derive_reports_what_a_second_replay_reports(s):
    """run_pipeline applies each move once; its report is the one a separate
    replay of the same trace gives, check for check."""
    result = run_pipeline(s)
    trace, report = result.trace, result.report
    assert trace == run_pipeline(s).trace
    again = replay_trace(trace)
    assert report.ok and report.checks == again.checks and report.detail == again.detail
    assert len(report.checks) == len(trace.moves) + 2
    assert trace.end.provenance == f"pipeline s={s}"
    assert trace.longitude_end == longitude_word(s)


@pytest.mark.parametrize("s", [3, 8, 34])
def test_run_pipeline_applies_each_move_once(monkeypatch, s):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return apply_move(*args, **kwargs)

    monkeypatch.setattr(presentations, "apply_move", counted)
    result = run_pipeline(s)
    assert len(calls) == len(result.trace.moves)


def test_the_end_longitude_is_the_closed_form_not_the_stepper(monkeypatch):
    """With the last simplification move dropped, the stepped longitude stops
    short of the closed form, and only the end longitude check fails."""
    simplify = derivation.simplify_longitude
    monkeypatch.setattr(derivation, "simplify_longitude", lambda s, l12: simplify(s, l12)[:-1])
    report = run_pipeline(3).report
    assert [check.name for check in report.checks if not check.ok] == ["end longitude"]
    assert report.detail == "end longitude does not match"


def test_the_end_presentation_is_the_closed_form_not_the_stepper(monkeypatch):
    """With a changed closed-form relator, the stepped presentation no longer
    matches the end of the trace, and only the end presentation check fails."""
    changed = Presentation(("c", "l"), (("r_inf", splice(final_relator(3), W("c"))),))
    monkeypatch.setattr(derivation, "knot_group_presentation", lambda s: changed)
    result = run_pipeline(3)
    assert result.trace.end == changed
    assert [check.name for check in result.report.checks if not check.ok] == [
        "end presentation"]
    assert result.report.detail == "end presentation does not match"


def _corrupted(move):
    """The move with one field changed so that its side condition fails."""
    if isinstance(move, AddGenerator):
        return dataclasses.replace(move, gen="c")  # c is never eliminated
    if isinstance(move, RewriteLongitude) and move.steps is None:  # the v1 form
        return dataclasses.replace(move, new_word=splice(move.new_word, W("c")))
    if isinstance(move, RewriteLongitude):
        (step,) = move.steps
        return dataclasses.replace(move, steps=(dataclasses.replace(step, relator="nope"),))
    name = next(f.name for f in dataclasses.fields(move)
                if f.name in ("via", "justified_by", "label", "old"))
    return dataclasses.replace(move, **{name: "nope"})


def v1_twin(trace):
    """trace with each RewriteLongitude in the v1 form: the whole word its
    replay reaches and the relator its one insertion cites."""
    replay, moves = Replay(trace.start, trace.longitude_start), []
    for move in trace.moves:
        assert replay.step(move)
        if isinstance(move, RewriteLongitude):
            (step,) = move.steps
            move = RewriteLongitude(new_word=replay.longitude, via=step.relator, macro=move.macro)
        moves.append(move)
    return dataclasses.replace(trace, moves=tuple(moves))


def _corruptions_fail_alike(monkeypatch, trace):
    """Corrupt each move of the s=3 trace in turn.  Stepping the trace through
    Replay, replaying it with replay_trace and deriving with the corrupted
    move stepped in place of the one run_pipeline emits all stop at that move with
    the same check."""
    for k, move in enumerate(trace.moves):
        moves = trace.moves[:k] + (_corrupted(move),) + trace.moves[k + 1:]
        replayed = replay_trace(dataclasses.replace(trace, moves=moves)).first_failure()
        stepper = Replay(trace.start, trace.longitude_start)
        assert not all(stepper.step(m) for m in moves)
        assert stepper.report.first_failure() == replayed and replayed.index == k

        class CorruptingReplay(Replay):
            def step(self, m):
                return super().step(moves[k] if len(self.report.checks) == k else m)

        monkeypatch.setattr(derivation, "Replay", CorruptingReplay)
        with pytest.raises(MoveRejected) as rejected:
            run_pipeline(3)
        assert rejected.value.check == replayed, k


def test_a_corrupted_move_fails_alike_in_derive_and_in_replay(monkeypatch):
    """A longitude rewrite is corrupted by citing a missing relator in its insertion."""
    _corruptions_fail_alike(monkeypatch, run_pipeline(3).trace)


def test_a_corrupted_v1_move_fails_alike_in_derive_and_in_replay(monkeypatch):
    """The same on the v1 twin, whose longitude rewrites state their whole new
    word; one is corrupted by a trailing letter c."""
    _corruptions_fail_alike(monkeypatch, v1_twin(run_pipeline(3).trace))


V1_FIXTURES = Path(__file__).parent / "data"


@pytest.mark.parametrize("s", [3, 5])
def test_the_v1_twin_is_the_committed_v1_trace(s):
    """The v1 trace files written before schema v2 are the v1 twins of today's traces."""
    data = json.loads((V1_FIXTURES / f"trace_v1_s{s}.json").read_text(encoding="utf-8"))
    assert data["v"] == 1
    assert trace_from_json(data) == v1_twin(run_pipeline(s).trace)


def test_v1_and_v2_twins_reach_the_same_longitude():
    """For s=3..40 a v2 trace and its v1 twin give the same report, check for
    check, and step through the same longitude after every move; the twin
    survives a JSON round trip, under either schema version."""
    for s in range(3, 41):
        trace = run_pipeline(s).trace
        twin = v1_twin(trace)
        data = trace_to_json(twin)
        assert data["v"] == 2 and trace_from_json(data) == twin
        assert trace_from_json({**data, "v": 1}) == twin
        replays = [Replay(t.start, t.longitude_start) for t in (trace, twin)]
        for move, twin_move in zip(trace.moves, twin.moves):
            assert replays[0].step(move) and replays[1].step(twin_move), s
            assert replays[0].longitude == replays[1].longitude, (s, move)
        reports = [r.finish(trace.end, trace.longitude_end) for r in replays]
        assert reports[0].ok and reports[0].checks == reports[1].checks, s


def test_trace_bytes_grow_linearly_in_s():
    """A longitude rewrite cites one insertion, so doubling s at most about
    doubles the emitted trace; restating the longitude made it 2.8 times."""
    sizes = [len(json.dumps(trace_to_json(run_pipeline(s).trace), indent=2))
             for s in (40, 80)]
    assert sizes[1] <= 2.2 * sizes[0]
