import copy
import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pretzel_pi1 import presentations, smith
from pretzel_pi1.derivation import run_pipeline
from pretzel_pi1.presentations import (
    MOVE_KINDS,
    AddGenerator,
    AddRelator,
    Delta,
    DerivationTrace,
    Insertion,
    InvertRelator,
    Presentation,
    PresentationError,
    RelabelRelator,
    RemoveGenerator,
    RemoveRelator,
    Replay,
    Report,
    RewriteLongitude,
    RewriteRelator,
    RotateRelator,
    SideConditionViolated,
    SubstituteEverywhere,
    apply_move,
    move_from_json,
    replay_trace,
    solve_for,
    trace_from_json,
    trace_to_json,
)
from pretzel_pi1.words import Word, parse_word as W, splice


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity via inversion count
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def invariant_factors_by_minors(matrix, n_gens):
    """Independent oracle: determinant divisors d_k = gcd of k x k minors."""
    m = len(matrix)
    n = n_gens
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = math.gcd(g, abs(det(sub)))
        divisors.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        factors.append(divisors[k] // divisors[k - 1])
    finite = [f for f in factors if f > 1]
    free = n - len(factors)
    return tuple(finite + [0] * free)


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_smith_matches_minor_gcd_oracle(matrix):
    n = len(matrix[0])
    rows = [{j: a for j, a in enumerate(row) if a} for row in matrix]
    assert smith.sparse_invariants(rows, n) == invariant_factors_by_minors(matrix, n)


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_smith_divisibility_chain(matrix):
    diag = smith.smith_normal_form(matrix)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
        assert a > 0


def test_abelianization_examples():
    free_c = Presentation(("c",), ())
    assert free_c.abelian_invariants() == (0,)
    gks = Presentation(("c", "l"), (("r_inf", W("clcLCL^-3CLclcl^2")),))
    assert gks.abelian_invariants() == (0,)
    filled = Presentation(("c", "l"), (
        ("r_inf", W("clcLCL^-3CLclcl^2")),
        ("fill", Word.from_syllables([("c", 3), ("l", 8)])),
    ))
    assert filled.abelian_invariants() == (19,)


def exponent_sum(word, name):
    """The oracle: the signed count of name's letters in word."""
    return sum(sign for gen, sign in word.letters if gen == name)


def dense_null_homologous(p, word):
    """Whether word is 0 in H1 of p, by a dense Smith normal form: word lies in
    the relator lattice exactly when appending its exponent vector leaves the
    Smith diagonal unchanged."""
    matrix = [[exponent_sum(w, g) for g in p.generators] for _, w in p.relators]
    vector = [exponent_sum(word, g) for g in p.generators]
    return smith.smith_normal_form(matrix + [vector]) == smith.smith_normal_form(matrix)


def test_null_homologous_examples():
    gks = Presentation(("c", "l"), (("r_inf", W("clcLCL^-3CLclcl^2")),))
    longitude = W("c^-4 l c l^3 c l^3 c l c^-15")
    assert dense_null_homologous(gks, longitude)
    assert not dense_null_homologous(gks, W("c"))
    # c generates the infinite factor: adding it as a relator kills H1
    assert Presentation(gks.generators,
                        gks.relators + (("c", W("c")),)).abelian_invariants() == ()
    assert dense_null_homologous(gks, Word())
    # relator-free presentations have the trivial lattice
    free2 = Presentation(("c", "l"), ())
    assert presentations.exponent_row(W("c l^-2")) == {"c": 1, "l": -2}
    assert presentations.exponent_row(W("c l c^-1")) == {"l": 1}  # zeros left out
    assert not dense_null_homologous(free2, W("c l^-2"))


GENERATORS = ("a", "b", "c")
words = st.lists(st.tuples(st.sampled_from(GENERATORS), st.sampled_from((1, -1))),
                 max_size=12).map(Word)


@settings(max_examples=200, deadline=None)
@given(words)
def test_null_homologous_without_relators_is_zero_exponent_sums(word):
    free = Presentation(GENERATORS, ())
    assert dense_null_homologous(free, word) == all(
        exponent_sum(word, g) == 0 for g in GENERATORS)


@settings(max_examples=100, deadline=None)
@given(st.lists(words, min_size=1, max_size=3), words, st.data())
def test_conjugates_of_relators_are_null_homologous(relators, x, data):
    p = Presentation(GENERATORS, tuple((f"r{i}", r) for i, r in enumerate(relators)))
    r = data.draw(st.sampled_from(relators))
    assert dense_null_homologous(p, splice(x, r, ~x))
    assert dense_null_homologous(p, splice(x, ~r, ~x))


BASE = Presentation(
    ("a", "b"),
    (("r1", W("a b A B")), ("r2", W("a^3"))),
)


def test_add_then_remove_generator_is_identity():
    added = apply_move(BASE, AddGenerator("z", W("a b"), "rz"))[0]
    assert added.generators == ("a", "b", "z")
    assert added.relator("rz") == W("z B A")
    back = apply_move(added, RemoveGenerator("z", "rz"))[0]
    assert back == BASE


def test_remove_generator_requires_single_occurrence():
    with pytest.raises(SideConditionViolated):
        apply_move(BASE, RemoveGenerator("a", "r1"))[0]  # a occurs twice in r1
    with pytest.raises(SideConditionViolated):
        apply_move(BASE, RemoveGenerator("a", "r2"))[0]  # three times in r2
    # an absent generator fails the solve, with or without a tracked longitude
    for longitude in (None, W("a b")):
        with pytest.raises(SideConditionViolated,
                           match="generator 'z' occurs 0 times, need exactly 1"):
            apply_move(BASE, RemoveGenerator("z", "r1"), longitude)


def test_solve_for_both_signs():
    assert solve_for(W("c a D A"), "d") == W("A c a")
    assert solve_for(W("h F A"), "a") == W("h F")
    assert solve_for(W("f e C E"), "f") == W("e c E")


def test_moved_checks_what_the_delta_names():
    """moved checks each word a delta sets, a renamed label and that no kept
    relator uses a removed generator; it keeps each relator in place, puts
    a new label last, and gives back the parent for a longitude-only delta."""
    for delta, named in (
            (Delta({"r 3": W("a")}), "bad relator label: 'r 3'"),
            (Delta({"r3": W("z")}), "relator r3 uses undeclared generators ['z']"),
            (Delta(renamed=("r1", "r10 c")), "bad relator label: 'r10 c'"),
            (Delta(renamed=("r1", "r2")), "duplicate relator label: 'r2'"),
            (Delta(generators=("a",)), "relator r1 uses undeclared generators ['b']")):
        with pytest.raises(PresentationError, match=re.escape(named)):
            BASE.moved(delta)
    assert BASE.moved(Delta(longitude=W("a"))) is BASE
    q = BASE.moved(Delta({"r2": W("a^2"), "r0": W("b^2")}, renamed=("r1", "s1")))
    assert q.relators == (("s1", W("a b A B")), ("r2", W("a^2")), ("r0", W("b^2")))
    assert q == Presentation(q.generators, q.relators)
    assert BASE.moved(Delta(dropped=("r1",), generators=("a",))).relators == (("r2", W("a^3")),)


def test_substitute_everywhere_checks_justification():
    p = Presentation(("a", "b", "z"),
                     (("rz", W("z B A")), ("r1", W("a b A B")), ("r2", W("a^3"))))
    q = apply_move(p, SubstituteEverywhere("z", W("a b"), "rz", only_in=("r1",)))[0]
    assert q.relator("r1") == W("a b A B")  # z does not occur; unchanged
    with pytest.raises(SideConditionViolated):
        apply_move(p, SubstituteEverywhere("z", W("b a"), "rz"))[0]  # wrong word
    with pytest.raises(SideConditionViolated):
        apply_move(p, SubstituteEverywhere("z", W("a b"), "rz", only_in=("rz",)))[0]


def test_add_relator_with_derivation():
    # conjugate of r2 by b, placed at 0
    ins = Insertion("r2", False, W("b"), 0)
    derived = apply_move(BASE, AddRelator("r3", W("b a^3 B"), (ins,)))[0]
    assert derived.relator("r3") == W("b a^3 B")
    with pytest.raises(SideConditionViolated):
        apply_move(BASE, AddRelator("r4", W("b a^2 B"), (ins,)))[0]


def test_rewrite_relator_and_rotation():
    # rewrite r1 by inserting r2^{-1} at position 0: a^-3 a b A B -> a^-2 b A B
    step = Insertion("r2", True, Word(), 0)
    p = apply_move(BASE, RewriteRelator("r1", (step,)))[0]
    assert p.relator("r1") == W("a^-2 b A B")
    rot = apply_move(p, RotateRelator("r1", 2))[0]
    assert rot.relator("r1") == W("b A B a^-2")
    assert apply_move(p, RotateRelator("r1", 0))[0] == p
    with pytest.raises(SideConditionViolated, match="cannot be justified by the relator"):
        apply_move(BASE, RewriteRelator("r1", (Insertion("r1", False, Word(), 0),)))[0]


def test_rewrite_longitude_forms():
    """A v2 longitude rewrite performs its insertions as a relator rewrite
    does, and the v1 form stating the word it reaches accepts that word.  A
    rewrite that states both, cites a missing relator or inserts out of
    range fails its side condition."""
    lon, step = W("a b"), Insertion("r2", True, W("b"), 1)
    new = RewriteLongitude((step,)).delta(BASE, lon).longitude
    assert new == step.perform(lon, BASE) == W("a b a^-3")  # a (b a^-3 b^-1) b
    assert RewriteLongitude(new_word=new, via="r2").delta(BASE, lon).longitude == new
    for bad, reason in ((RewriteLongitude((step,), new_word=new, via="r2"), "not both"),
                        (RewriteLongitude((replace(step, relator="r9"),)), "no relator labeled"),
                        (RewriteLongitude((replace(step, position=3),)), "out of range"),
                        (RewriteLongitude(new_word=splice(new, W("a")), via="r2"), "single consequence")):
        with pytest.raises(SideConditionViolated, match=reason):
            bad.delta(BASE, lon)
    with pytest.raises(SideConditionViolated, match="no longitude is being tracked"):
        RewriteLongitude((step,)).delta(BASE, None)


def test_remove_relator_variants():
    p = Presentation(("a",), (("r1", W("a A")), ("r2", W("a")), ("r3", W("a"))))
    q = apply_move(p, RemoveRelator("r1"))[0]  # empty word
    assert q.labels() == ["r2", "r3"]
    q2 = apply_move(q, RemoveRelator("r3", duplicate_of="r2"))[0]
    assert q2.labels() == ["r2"]
    with pytest.raises(SideConditionViolated):
        apply_move(q2, RemoveRelator("r2"))[0]


def test_invert_and_relabel():
    p = apply_move(BASE, InvertRelator("r2"))[0]
    assert p.relator("r2") == W("a^-3")
    q = apply_move(p, RelabelRelator("r2", "r9"))[0]
    assert q.has_relator("r9") and not q.has_relator("r2")
    with pytest.raises(SideConditionViolated):
        apply_move(q, RelabelRelator("r9", "r1"))[0]


# a presentation on which each move kind applies, and a longitude it tracks
LONGITUDE_BASE = Presentation(("a", "b", "z"), (
    ("rz", W("z B A")), ("r1", W("a b A B")), ("r2", W("a^3")), ("r3", W("z a Z")),
    ("r5", W("a^3"))))
KEEPS_THE_LONGITUDE = (
    AddGenerator("y", W("a b"), "ry"),
    SubstituteEverywhere("z", W("a b"), "rz"),
    AddRelator("r4", W("a^3"), (Insertion("r2", False, Word(), 0),)),
    RewriteRelator("r1", (Insertion("r2", True, Word(), 0),)),
    RemoveRelator("r5", duplicate_of="r2"),
    RotateRelator("r1", 1),
    InvertRelator("r2"),
    RelabelRelator("r2", "r9"),
)


@pytest.mark.parametrize("move", KEEPS_THE_LONGITUDE, ids=lambda move: type(move).__name__)
def test_a_delta_leaves_out_a_longitude_its_move_keeps(move):
    """Only apply_move carries a kept longitude over, and only if one is tracked."""
    p, lon = LONGITUDE_BASE, W("z b")
    assert move.delta(p, lon).longitude is None
    assert apply_move(p, move, lon)[1].longitude is lon
    assert apply_move(p, move)[1].longitude is None


@pytest.mark.parametrize("move, lon, after", [
    (RemoveGenerator("z", "rz"), W("z b"), W("a b^2")),  # z = a b, substituted
    # the empty word is falsy, and still a longitude the move states
    (RewriteLongitude((Insertion("r2", True, Word(), 0),)), W("a^3"), Word()),
])
def test_a_delta_states_a_longitude_its_move_changes(move, lon, after):
    p = LONGITUDE_BASE
    assert move.delta(p, lon).longitude == after
    assert apply_move(p, move, lon)[1].longitude == after


@pytest.mark.parametrize("kind", sorted(MOVE_KINDS))
def test_macro_is_one_keyword_only_field_of_move(kind):
    """Move declares macro once; no move kind declares it again."""
    cls = MOVE_KINDS[kind]
    macros = [f for f in fields(cls) if f.name == "macro"]
    assert len(macros) == 1 and macros[0].kw_only and macros[0].default is None
    assert "macro" not in vars(cls).get("__annotations__", {})


def test_replay_trace_pass_and_negative_control():
    moves = (AddGenerator("z", W("a b"), "rz"), RemoveGenerator("z", "rz"))
    trace = DerivationTrace(BASE, moves, BASE)
    assert replay_trace(trace).ok
    # tampered end: flip one letter
    bad_end = Presentation(("a", "b"), (("r1", W("a b A B")), ("r2", W("a^2 A^-1"))))
    bad_end = Presentation(("a", "b"), (("r1", W("a b a B")), ("r2", W("a^3"))))
    report = replay_trace(DerivationTrace(BASE, moves, bad_end))
    assert not report.ok
    # tampered move: removing via a relator with two occurrences
    bad_moves = (AddGenerator("z", W("a b"), "rz"), RemoveGenerator("a", "r1"))
    report2 = replay_trace(DerivationTrace(BASE, bad_moves, BASE))
    assert not report2.ok
    assert report2.first_failure().index == 1
    # a malformed generator name fails its move instead of raising
    for gen in ("A", "f0 "):
        bad_add = (AddGenerator(gen, W("a b"), "rz"),)
        assert replay_trace(DerivationTrace(BASE, bad_add, BASE)).first_failure().index == 0


def test_empty_trace_passes():
    assert replay_trace(DerivationTrace(BASE, (), BASE)).ok


def test_trace_json_round_trip():
    moves = (
        AddGenerator("z", W("a b"), "rz", macro="demo"),
        SubstituteEverywhere("z", W("a b"), "rz", only_in=("r1",)),
        SubstituteEverywhere("z", W("a b"), "rz", only_in=()),  # rewrites nothing
        RewriteRelator("r1", (Insertion("r2", True, W("b"), 1),)),
        RotateRelator("r1", 1),
        InvertRelator("r2"),
        RelabelRelator("r2", "r7"),
        RemoveGenerator("z", "rz"),
    )
    p = BASE
    lon = W("a b")
    for mv in moves:
        p, delta = apply_move(p, mv, lon)
        lon = delta.longitude
    trace = DerivationTrace(BASE, moves, p, W("a b"), lon)
    data = trace_to_json(trace)
    assert data["v"] == 2
    again = trace_from_json(data)
    assert again == trace
    assert replay_trace(again).ok


def test_a_start_longitude_with_an_undeclared_generator_fails_at_move_0():
    """The check that the longitude uses only declared generators runs after
    every move, also one that changes neither the longitude nor the
    generators, so a bad start longitude fails the first move."""
    moves = (RotateRelator("r1", 1), RotateRelator("r1", 1))
    p = BASE
    for mv in moves:
        p = apply_move(p, mv)[0]
    for check_abelian in (False, True):
        report = replay_trace(DerivationTrace(BASE, moves, p, W("a z"), W("a z")), check_abelian)
        failure = report.first_failure()
        assert (failure.index, failure.reason) == (
            0, "longitude uses a generator absent from the presentation")
        assert report.detail == "move 0 broke the longitude" and len(report.checks) == 1


def test_trace_from_json_names_the_bad_field():
    moves = (RotateRelator("r1", 1), RelabelRelator("r2", "r7"),
             RewriteRelator("r1", (Insertion("r7", True, W("b"), 1),)))
    p = BASE
    for mv in moves:
        p, _ = apply_move(p, mv)
    data = trace_to_json(DerivationTrace(BASE, moves, p))
    missing = copy.deepcopy(data)
    del missing["moves"][1]["new"]
    mistyped = copy.deepcopy(data)
    mistyped["start"]["relators"] = 5
    not_an_object = copy.deepcopy(data)
    not_an_object["end"] = "a b"
    unknown = copy.deepcopy(data)
    unknown["moves"][0]["kind"] = "Frobnicate"
    not_a_label = copy.deepcopy(data)
    not_a_label["moves"][0]["label"] = 7
    cases = [(missing, "move 1 has no field 'new'"),
             (not_a_label, "move 0: field 'label': expected a string"),
             (mistyped, "start: "),
             (not_an_object, "field 'end' is missing or not a dict"),
             (unknown, "move 0: unknown move kind 'Frobnicate'"),
             ({**data, "v": True}, "unsupported trace schema version True")]
    # a RewriteLongitude holds all of one form: its steps from v2 on, or
    # its new word and the relator that justifies it, as in v1
    for version, rewrite, named in (
            (2, {"steps": "a"}, "move 3: field 'steps': expected a list, got 'a'"),
            (1, {"steps": []}, "move 3 has no field 'new_word'"),
            (2, {"new_word": "a"}, "move 3 has no field 'via'"),
            (2, {"new_word": "a", "via": None}, "move 3: field 'via': expected a string, got None"),
            (1, {"new_word": None, "via": "r1"}, "move 3: field 'new_word': word text must be")):
        doc = copy.deepcopy(data)
        doc["v"] = version
        doc["moves"].append({"kind": "RewriteLongitude", **rewrite})
        cases.append((doc, named))
    # JSON types are checked, not coerced: an integer is no float, bool or
    # string, a flag is a JSON boolean, a generator list is a list, and a
    # longitude that is not null is a word
    def rotate(doc):
        return doc["moves"][0]

    def step(doc):
        return doc["moves"][2]["steps"][0]

    def end(doc):
        return doc["end"]

    def trace(doc):
        return doc

    for place, key, value, named in (
            (rotate, "k", 1.9, "move 0: field 'k': expected an integer, got 1.9"),
            (rotate, "k", True, "move 0: field 'k': expected an integer, got True"),
            (rotate, "k", "1", "move 0: field 'k': expected an integer, got '1'"),
            (step, "at", 1.0, "move 2: field 'steps': expected an integer, got 1.0"),
            (step, "inv", 0, "move 2: field 'steps': expected a boolean, got 0"),
            (step, "inv", 1, "move 2: field 'steps': expected a boolean, got 1"),
            (step, "inv", "false", "move 2: field 'steps': expected a boolean, got 'false'"),
            (end, "generators", "cl", "end: expected a list, got 'cl'"),
            (end, "relators", [{"label": 7, "word": "a"}], "end: expected a string, got 7"),
            (trace, "longitude_end", 0, "longitude_end: word text must be a string, got 0"),
            (trace, "longitude_end", "", "longitude_end: empty word text")):
        doc = copy.deepcopy(data)
        place(doc)[key] = value
        cases.append((doc, named))
    for doc, named in cases:
        with pytest.raises(PresentationError, match=re.escape(named)):
            trace_from_json(doc)


def test_replay_touches_only_what_each_move_names(monkeypatch):
    """Decoding and replaying the s=20 trace checks a whole presentation only
    for the start and the end, and a RemoveGenerator or SubstituteEverywhere
    substitutes only into the relators that hold its generator, plus the
    tracked longitude."""
    data = trace_to_json(run_pipeline(20).trace)
    validations, substituted, unexpected = [], [], []
    post_init, substitute, step = (Presentation.__post_init__, Word.substitute,
                                   presentations.apply_move)

    def counting_post_init(self):
        validations.append(self)
        post_init(self)

    def recording_substitute(self, name, replacement):
        substituted.append(self)
        return substitute(self, name, replacement)

    def checked_step(p, move, longitude=None):
        substituted.clear()
        result = step(p, move, longitude)
        expected = []
        if isinstance(move, RemoveGenerator):
            expected = [w for lab, w in p.relators
                        if lab != move.via and move.gen in w.generators()] + [longitude]
        elif isinstance(move, SubstituteEverywhere):
            targets = move.only_in or set(p.labels()) - {move.justified_by}
            expected = [w for lab, w in p.relators
                        if lab in targets and move.gen in w.generators()]
        if [id(w) for w in substituted] != [id(w) for w in expected]:
            unexpected.append(move)
        return result

    monkeypatch.setattr(Presentation, "__post_init__", counting_post_init)
    monkeypatch.setattr(Word, "substitute", recording_substitute)
    monkeypatch.setattr(presentations, "apply_move", checked_step)
    trace = trace_from_json(data)
    assert replay_trace(trace).ok
    assert validations == [trace.start, trace.end]
    assert unexpected == []
    assert any(isinstance(m, RemoveGenerator) for m in trace.moves)


def test_remove_generator_solves_its_relator_once(monkeypatch):
    """Replaying the s=100 trace, which tracks a longitude, solves each
    RemoveGenerator's relator once, for the presentation and the longitude
    alike, and each SubstituteEverywhere's justifying relator once."""
    trace = run_pipeline(100).trace
    kinds = [type(m) for m in trace.moves]
    solves = []

    def counting_solve_for(word, gen):
        solves.append(gen)
        return solve_for(word, gen)

    monkeypatch.setattr(presentations, "solve_for", counting_solve_for)
    assert replay_trace(trace).ok
    assert kinds.count(RemoveGenerator) == 208
    assert len(solves) == 208 + kinds.count(SubstituteEverywhere)


def test_an_insertion_inverts_its_relator_once_per_presentation(monkeypatch):
    """Replaying the s=20 trace inverts each relator word an inverted insertion
    cites at most once per presentation.  The 2s-1 rewrites b g -> h all cite
    r6 and the s longitude simplification steps all cite r_inf, each of one
    presentation, and inverted it every time."""
    trace = run_pipeline(20).trace
    inversions, citing, kept, inverted = Counter(), [], [], []
    perform, invert = Insertion.perform, Word.__invert__

    def citing_perform(self, word, p):
        citing.append((p, self.relator))
        kept.append(p)  # keeps each id unique while the counts are read
        inverted.append(self.inverted)
        try:
            return perform(self, word, p)
        finally:
            citing.pop()

    def counting_invert(self):
        if citing:
            p, label = citing[-1]
            if self is p.relator(label):
                inversions[id(p), label] += 1
        return invert(self)

    monkeypatch.setattr(Insertion, "perform", citing_perform)
    monkeypatch.setattr(Word, "__invert__", counting_invert)
    assert replay_trace(trace).ok
    assert inverted.count(True) > 20
    assert max(inversions.values()) == 1, inversions.most_common(1)


def test_carried_generator_sets_match_a_fresh_index():
    """After every move of the s=3..12 traces, the generator sets a presentation
    carries over from its parent are those the public constructor finds."""
    for s in range(3, 13):
        trace = run_pipeline(s).trace
        p, longitude = trace.start, trace.longitude_start
        for move in trace.moves:
            p, delta = apply_move(p, move, longitude)
            longitude = delta.longitude
            fresh = Presentation(p.generators, p.relators)
            assert all(p.labels_with(g) == fresh.labels_with(g) for g in p.generators), \
                (s, move)


def test_presentation_text_round_trip():
    text = BASE.to_text()
    assert "gens: a b" in text
    parsed = Presentation.from_text(text)
    assert parsed == BASE
    with_comment = "# hello\ngens: a\nrel r1: a^2\n"
    p = Presentation.from_text(with_comment)
    assert p.relator("r1") == W("a^2")


def test_presentation_text_rejects_garbage():
    with pytest.raises(Exception):
        Presentation.from_text("rel r1: a\n")  # no gens line
    with pytest.raises(Exception):
        Presentation.from_text("gens: a\nrelator r1: a\n")  # bad keyword
    with pytest.raises(Exception):
        Presentation.from_text("gens: a\nrel r1: b\n")  # undeclared generator
    with pytest.raises(Exception):
        Presentation(("a",), (("r 1", W("a")),))  # label with whitespace


# -- random Tietze sequences preserve the abelianization --------------------

def random_presentation(rng):
    gens = tuple(sorted(rng.sample("abcde", rng.randint(2, 4))))
    relators = []
    for i in range(rng.randint(1, 3)):
        letters = [(rng.choice(gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 6))]
        relators.append((f"r{i}", Word(letters)))
    return Presentation(gens, tuple(relators))


def random_move(rng, p, counter):
    kind = rng.choice(["add_gen", "remove_gen", "add_rel", "rotate", "invert",
                       "relabel", "rewrite"])
    labels = p.labels()
    if not p.generators:
        return None
    if kind == "add_gen":
        name = f"g{counter}"
        length = rng.randint(0, 3)
        definition = Word([(rng.choice(p.generators), rng.choice((1, -1)))
                           for _ in range(length)])
        return AddGenerator(name, definition, f"rg{counter}")
    if kind == "remove_gen":
        candidates = []
        for lab, word in p.relators:
            for g in set(word.generators()):
                if sum(1 for name, _ in word.letters if name == g) == 1:
                    candidates.append((g, lab))
        if not candidates:
            return None
        g, lab = rng.choice(candidates)
        return RemoveGenerator(g, lab)
    if not labels:
        return None
    label = rng.choice(labels)
    if kind == "add_rel":
        src = rng.choice(labels)
        conj = Word([(rng.choice(p.generators), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 2))])
        ins = Insertion(src, rng.random() < 0.5, conj, 0)
        word = ins.perform(Word(), p)
        return AddRelator(f"ra{counter}", word, (ins,))
    if kind == "rotate":
        return RotateRelator(label, rng.randint(0, 5))
    if kind == "invert":
        return InvertRelator(label)
    if kind == "relabel":
        return RelabelRelator(label, f"rn{counter}")
    if kind == "rewrite":
        src = rng.choice(labels)
        word = p.relator(label)
        ins = Insertion(src, rng.random() < 0.5, Word(),
                        rng.randint(0, len(word)))
        return RewriteRelator(label, (ins,))
    return None


@pytest.mark.parametrize("seed", range(20))
def test_random_move_sequences_preserve_invariants(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    baseline = p.abelian_invariants()
    counter = 0
    for _ in range(15):
        mv = random_move(rng, p, counter)
        counter += 1
        if mv is None:
            continue
        try:
            p = apply_move(p, mv)[0]
        except SideConditionViolated:
            continue
        assert p.abelian_invariants() == baseline


def test_relator_count_deltas():
    p = BASE
    moves = [(AddGenerator("z", W("a"), "rz"), 1),
             (AddRelator("rc", W("a^3"), (Insertion("r2", False, Word(), 0),)), 1),
             (RelabelRelator("rc", "rd"), 0),
             (RemoveRelator("rd", duplicate_of="r2"), -1),
             (RemoveGenerator("z", "rz"), -1)]
    for mv, change in moves:
        delta = mv.delta(p, None)
        assert len(delta.words.keys() - set(p.labels())) - len(delta.dropped) == change
        q = p.moved(delta)
        assert len(q.relators) == len(p.relators) + change
        p = q


# -- the abelian shadow of each move, against other oracles ---------------------

def exponent_sum_rows(p):
    """The oracle: the exponent rows of p by label and generator name, from
    exponent_sum per generator, zeros left out."""
    return {label: {g: e for g in p.generators if (e := exponent_sum(word, g))}
            for label, word in p.relators}


def no_shadow(*args):
    return None


def test_carried_rows_match_fresh_exponent_rows(monkeypatch):
    """After every move of the knot traces the rows a check_abelian replay
    carries are the exponent rows of its presentation, and H1 is computed
    once, for the start: no move falls back."""
    computed = []
    invariants = Presentation.abelian_invariants
    monkeypatch.setattr(Presentation, "abelian_invariants",
                        lambda self: computed.append(self) or invariants(self))
    for s in [*range(3, 13), 34]:
        trace = run_pipeline(s).trace
        computed.clear()
        replay = Replay(trace.start, trace.longitude_start, check_abelian=True)
        for move in trace.moves:
            assert replay.step(move), (s, move)
            assert replay.rows == exponent_sum_rows(replay.presentation), (s, move)
        assert replay.finish(trace.end, trace.longitude_end).ok
        assert computed == [trace.start], s


def _field_mutants(value, labels):
    """Values that each change one field of a move's JSON."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value - 1, value + 1]
    if isinstance(value, str):
        return [*labels, value + " c", "1"]
    if isinstance(value, list):
        return [value[:-1], value + value[-1:]] if value else [labels[:1]]
    return [labels[0], labels[:1]]  # None, an optional field left unset


def _move_mutants(data):
    """(i, move) for every decodable move that differs from move i of the
    trace document data in one field of its JSON, an insertion's fields
    included, or in its kind; each is decoded as of data's schema version."""
    labels = ["r1", "r_inf", "nope"]
    for i, move in enumerate(copy.deepcopy(data["moves"])):
        places = [(move, key) for key in move]
        for step in move.get("steps", []) + move.get("derivation", []):
            places += [(step, key) for key in step]
        for holder, key in places:
            options = [kind for kind in MOVE_KINDS if kind != holder[key]] if key == "kind" \
                else _field_mutants(holder[key], labels)
            for value in options:
                old = holder[key]
                holder[key] = value
                try:
                    yield i, move_from_json(copy.deepcopy(move), data["v"])
                except (KeyError, PresentationError, TypeError, ValueError):
                    pass
                holder[key] = old


def _replayed_from(replay, moves, trace):
    """replay_trace's loop over moves, from a copy of a replay that has
    stepped the moves before them."""
    twin = copy.copy(replay)
    twin.report = Report(replay.report.label, list(replay.report.checks))
    if all(twin.step(move) for move in moves):
        twin.finish(trace.end, trace.longitude_end)
    return twin.report


MUTANT_REPORTS_SHA256 = "25efb0829aa502c46dd628ced2fb798049efe130329b223732b834f681000098"
# 24 of the v2 mutants fail both end checks; since a report joins the
# details of all its failing checks, they name both
V2_MUTANT_REPORTS_SHA256 = "56005dae938d5990e8c8af753733912be83fd7f5c6137d53d9bcbd694b8e5e96"

DATA = Path(__file__).parent / "data"


def _v1_trace_document(s):
    """The committed s trace as derive --emit-trace wrote it in schema v1."""
    return json.loads((DATA / f"trace_v1_s{s}.json").read_text(encoding="utf-8"))


def _mutant_reports(monkeypatch, documents):
    """Replay every single-field mutant of each trace document with and
    without the shadow; assert the two Reports agree, that no replay raises
    and that none fails before the mutated move.  Returns the mutant count,
    the outcome tally and the sha256 of the printed reports, in order."""
    mutants, raised, outcomes = 0, [], Counter()
    digest = hashlib.sha256()
    for data in documents:
        trace = trace_from_json(data)
        shadowed, forced = (Replay(trace.start, trace.longitude_start, check_abelian=True)
                            for _ in range(2))
        stepped = 0
        for i, mutant in _move_mutants(data):
            for move in trace.moves[stepped:i]:
                assert shadowed.step(move)
                with monkeypatch.context() as patch:
                    patch.setattr(presentations, "_moved_rows", no_shadow)
                    assert forced.step(move)
            stepped = i
            moves = (mutant,) + trace.moves[i + 1:]
            mutants += 1
            try:
                with_shadow = _replayed_from(shadowed, moves, trace)
                with monkeypatch.context() as patch:
                    patch.setattr(presentations, "_moved_rows", no_shadow)
                    fresh = _replayed_from(forced, moves, trace)
            except Exception as exc:  # noqa: BLE001 - a replay must never raise
                raised.append((i, mutant, exc))
                continue
            assert (with_shadow.checks, with_shadow.detail) == (fresh.checks, fresh.detail), \
                (i, mutant)
            digest.update(str(with_shadow).encode() + b"\n")
            failure = with_shadow.first_failure()
            if failure is None or failure.index is None:
                outcomes["pass" if failure is None else "end"] += 1
            else:
                assert failure.index >= i, (i, mutant)
                outcomes["own" if failure.index == i else "later"] += 1
    assert raised == []
    return mutants, outcomes, digest.hexdigest()


def test_forced_fallback_gives_the_same_report_on_every_mutant(monkeypatch):
    """Replaying with H1 recomputed after every move, as when no move has a
    shadow, gives the same Report, check for check, as the shadow path, on
    every trace that differs from the committed v1 s=3 or s=5 trace in one
    move field.  The printed reports, in order, hash to the digest they had
    when it was recorded, before schema v2."""
    mutants, outcomes, digest = _mutant_reports(
        monkeypatch, [_v1_trace_document(s) for s in (3, 5)])
    assert mutants == 1774 > 1000
    assert outcomes == {"own": 934, "later": 158, "end": 24, "pass": 658}
    assert digest == MUTANT_REPORTS_SHA256


def test_forced_fallback_gives_the_same_report_on_every_v2_mutant(monkeypatch):
    """The same over the v2 s=3 and s=5 traces, whose longitude rewrites
    cite insertions.  An insertion of any conjugate of any relator is a
    sound rewrite, so a mutant step that still performs changes the
    longitude without failing its own move; the end longitude check, or a
    later move, catches the change, and where the later moves eliminate
    what it changed (the opening's rewrites of b g to h, before b goes
    away) the mutant trace is a proof too and passes."""
    documents = [trace_to_json(run_pipeline(s).trace) for s in (3, 5)]
    mutants, outcomes, digest = _mutant_reports(monkeypatch, documents)
    assert mutants == 1892 > 1000
    assert outcomes == {"own": 856, "later": 164, "end": 98, "pass": 774}
    assert digest == V2_MUTANT_REPORTS_SHA256


def test_forced_fallback_and_shadow_soundness_on_random_moves(monkeypatch):
    """On the random move sequences of the acceptance suite, forcing the
    fallback gives the same Report.  And wherever a move's Delta is tampered
    with (a relator times a letter, a relator or generator dropped, a
    generator added), a shadow that still matches claims only what the dense
    Smith normal form confirms."""
    rng = random.Random(1729)
    claims = 0
    for _ in range(300):
        start = p = random_presentation(rng)
        moves = []
        for counter in range(rng.randint(1, 8)):
            move = random_move(rng, p, counter)
            if move is None:
                continue
            try:
                delta = move.delta(p, None)
            except SideConditionViolated:
                continue
            for tampered in _tampered(rng, p, delta):
                try:
                    q = p.moved(tampered)
                except PresentationError:
                    continue
                rows = presentations._moved_rows(move, p, tampered, exponent_sum_rows(p))
                if rows is not None:
                    claims += 1
                    assert rows == exponent_sum_rows(q)
                    assert q.abelian_invariants() == p.abelian_invariants()
            moves.append(move)
            p = p.moved(delta)
        trace = DerivationTrace(start, tuple(moves), p)
        with_shadow = replay_trace(trace, check_abelian=True)
        with monkeypatch.context() as patch:
            patch.setattr(presentations, "_moved_rows", no_shadow)
            fresh = replay_trace(trace, check_abelian=True)
        assert with_shadow.ok and with_shadow.checks == fresh.checks
    assert claims > 0


def _dropping(delta, labels):
    """delta, with the relators under labels dropped from its result too."""
    return replace(delta, words={lab: w for lab, w in delta.words.items() if lab not in labels},
                   dropped=delta.dropped + tuple(sorted(labels)))


def _tampered(rng, p, delta):
    """delta itself and deltas whose result differs from its result q in one place."""
    q = p.moved(delta)
    out = [delta]
    if q.relators and q.generators:
        label, word = rng.choice(q.relators)
        letter = Word.generator(rng.choice(q.generators))
        out.append(replace(delta, words={**delta.words, label: splice(word, letter)}))
        out.append(_dropping(delta, {label}))
    if len(q.generators) > 1:
        gone = q.generators[-1]
        out.append(replace(_dropping(delta, q.labels_with(gone)), generators=q.generators[:-1]))
    out.append(replace(delta, generators=q.generators + ("y",)))
    return out


def test_the_shadow_is_total():
    """A missing label, a non-unit pivot, a changed generator list or a row
    dropped without cause gives no shadow, and nothing raises.  The first
    four deltas below move the rows as an unguarded shadow would predict,
    and change H1."""
    p = Presentation(("a", "b"), (("r1", W("a^2 b")), ("r2", W("b^3"))))  # H1 = Z/6
    rows = exponent_sum_rows(p)
    rotate = RotateRelator("r1", 1)
    assert presentations._moved_rows(rotate, p, rotate.delta(p, None), rows) == rows
    rotated = rotate.delta(p, None).words
    only_r2 = Delta(dropped=("r1",))
    cases = [(RemoveGenerator("a", "r1"), Delta(dropped=("r1",), generators=("b",))),
             (RemoveRelator("r1"), only_r2),
             (RemoveRelator("r1", "r2"), only_r2),
             (AddGenerator("z", W("z"), "r3"), Delta({"r3": Word()}, generators=("a", "b", "z"))),
             (RemoveRelator("r1", "r1"), only_r2),
             (RemoveGenerator("a", "r9"), Delta()),
             (RotateRelator("r9", 1), Delta(rotated)),
             (RotateRelator("r1", 1), Delta(rotated, generators=("a", "b", "z"))),
             (RotateRelator("r1", 1), Delta(rotated, dropped=("r2",)))]
    for move, delta in cases[:4]:
        assert p.moved(delta).abelian_invariants() != p.abelian_invariants()
    for move in (AddRelator("r1", W("a"), ()), RewriteRelator("r9", ()),
                 RewriteRelator("r1", (Insertion("r1", False, Word(), 0),)),
                 RewriteRelator("r1", (Insertion("r9", False, Word(), 0),)),
                 InvertRelator("r9"), RelabelRelator("r1", "r2"), RelabelRelator("r9", "r3"),
                 AddGenerator("a", W("b"), "r3"), AddGenerator("z", W("b"), "r1"),
                 SubstituteEverywhere("a", W("b"), "r9")):
        cases.append((move, Delta()))
    for move, delta in cases:
        assert presentations._moved_rows(move, p, delta, rows) is None, move
    # a longitude rewrite leaves every row as it is
    assert presentations._moved_rows(RewriteLongitude(W("a"), "r1"), p, Delta(), rows) == rows


def test_a_move_that_changes_h1_fails_at_its_own_index(monkeypatch):
    """Negative control: a RotateRelator that also multiplies its relator by
    c is reported at its own index with the reason a full H1 gives."""
    trace = run_pipeline(3).trace
    k = next(i for i, move in enumerate(trace.moves) if isinstance(move, RotateRelator))
    rotate = RotateRelator.delta

    def padded(self, p, longitude):
        delta = rotate(self, p, longitude)
        return replace(delta, words={self.label: splice(delta.words[self.label], W("c"))})

    monkeypatch.setattr(RotateRelator, "delta", padded)
    report = replay_trace(trace, check_abelian=True)
    failure = report.first_failure()
    assert (failure.index, failure.reason) == (k, "abelian invariants changed (0,) -> ()")
    assert report.detail == f"move {k} changed the abelianization"
