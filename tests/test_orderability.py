import copy
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pretzel_pi1.knot import Slope, final_relator
from pretzel_pi1.orderability import (
    RULES,
    BranchContext,
    EngineError,
    Sign,
    _combine,
    replay_certificate,
)
from pretzel_pi1.surgery import (
    Branch,
    BudgetExhausted,
    Contradiction,
    _identity_branch,
    _strict_branch,
    _transfer_args,
    nlo_search,
)
from pretzel_pi1.words import CyclicWord, Word, parse_word as W, rotation_witness, splice

names = st.sampled_from(["c", "l"])
letters = st.tuples(names, st.sampled_from([1, -1]))
words = st.lists(letters, max_size=16).map(Word)


def saturate(state: Branch, relators: tuple[Word, ...] = (),
             generators: tuple[str, ...] = ("c", "l")) -> Branch:
    """A soundness probe of the rule kernel: close the sign assignment under
    the rules until fixpoint or budget.

    Applies, in a fixed order: inverse flips, pairwise products,
    conjugation by single generators, and relator transfers (multiplying
    by rotated relator copies).  Contradictions surface through the
    journal exactly as in scripted runs.
    """
    extra = tuple(r for r in relators if r not in state.ctx.relators)
    state.ctx = replace(state.ctx, relators=state.ctx.relators + extra)
    ball = [Word(((g, e),)).tokens() for e in (1, -1) for g in generators]
    rotations = [w.rotated(k) for core in state.ctx.cores.values()
                 for w in (core.word, ~core.word) for k in range(max(1, len(w)))]
    frontier = [idx for _, idx in sorted(state.signs.values(), key=lambda e: e[1])]

    def emit(rule, premises, args, claim=None):
        before = len(state.signs)
        new_idx = state.apply(rule, premises, args, claim)
        if len(state.signs) > before:
            frontier.append(new_idx)

    try:
        while frontier:
            idx = frontier.pop(0)
            word = state.journal[idx].word
            emit("inverse", (idx,), {})
            for _, p_idx in sorted(state.signs.values(), key=lambda e: e[1]):
                for pair in ((idx, p_idx), (p_idx, idx)):
                    if _combine(*(state.journal[i].sign for i in pair)) is not None:
                        emit("product", pair, {})
            for x in ball:
                emit("conjugate", (idx,), {"conjugator": x})
            for rot in rotations:
                target = splice(rot, word)
                emit("relator", (idx,), _transfer_args(state.ctx, word, target),
                     (target, None))
    except (Contradiction, BudgetExhausted):
        pass
    return state


def test_pointwise_compare_examples():
    # x.u > x.v everywhere iff ~v u is Positive
    assert splice(~Word(), W("l")) == W("l")
    got = splice(~W("c^2"), W("l c l^3 c"))
    assert got == W("c^-2 l c l^3 c")
    w = W("c l C")
    assert splice(~w, w) == Word()


@settings(max_examples=80, deadline=None)
@given(words, words)
def test_compare_antisymmetry(u, v):
    assert splice(~v, u) == ~splice(~u, v)


def test_rotation_consequence_examples():
    relator = CyclicWord(final_relator(3))
    # the traded comparison identity: clcl^{s-1}clc = lcl^scl
    diff = splice(~W("l c l^3 c l"), W("c l c l^2 c l c"))
    assert rotation_witness(diff, relator) is not None
    assert rotation_witness(final_relator(3), relator) == {
        "inverted": False, "rotation": 0, "conjugator": Word()}
    assert rotation_witness(W("c"), relator) is None
    assert rotation_witness(Word(), relator) is None


def test_engine_rules_and_conflicts():
    branch = Branch(budget=50)
    i = branch.assume(W("l"), Sign.POSITIVE)
    j = branch.apply("power", (i,), {"n": 2})
    assert branch.journal[j].word == W("l^2")
    k = branch.apply("inverse", (i,), {})
    assert branch.journal[k].sign is Sign.NEGATIVE
    with pytest.raises(EngineError):
        branch.apply("product", (i, k), {})  # strictly mixed product has no sign
    with pytest.raises(Contradiction):
        branch.assume(W("l^-1"), Sign.POSITIVE)
    assert branch.outcome == "contradiction"


def test_engine_relator_triviality_contradicts():
    branch = Branch(ctx=BranchContext((final_relator(3),)), budget=50)
    with pytest.raises(Contradiction):
        branch.assume(final_relator(3).rotated(4), Sign.POSITIVE)


def test_engine_budget():
    branch = Branch(budget=2)
    branch.assume(W("l"), Sign.POSITIVE)
    branch.apply("power", (0,), {"n": 2})
    with pytest.raises(BudgetExhausted):
        branch.apply("power", (0,), {"n": 3})
    assert branch.outcome == "budget"


def test_saturate_derives_powers_without_contradiction():
    branch = Branch(budget=40)
    branch.assume(W("l"), Sign.POSITIVE)
    state = saturate(branch, relators=(), generators=("l",))
    assert state.outcome in ("open", "budget")
    signs = {k.tokens(): v[0] for k, v in state.signs.items()}
    assert signs.get("l^2") is Sign.POSITIVE
    assert signs.get("l^3") is Sign.POSITIVE
    assert signs.get("l^-1") is Sign.NEGATIVE


def test_saturate_detects_antisymmetry_clash():
    branch = Branch(budget=40)
    branch.assume(W("c l"), Sign.POSITIVE)
    branch.signs[~W("c l")] = (Sign.POSITIVE, 0)  # forged entry
    state = saturate(branch, relators=(), generators=("c", "l"))
    assert state.outcome == "contradiction"


def test_free_group_positivity_never_contradicts():
    # soundness control: the free group on {c, l} is orderable
    branch = Branch(budget=700)
    branch.assume(W("c"), Sign.POSITIVE)
    branch.assume(W("l"), Sign.POSITIVE)
    state = saturate(branch, relators=(), generators=("c", "l"))
    assert state.outcome != "contradiction"
    for key, (sign, _) in state.signs.items():
        inv = ~key
        if inv in state.signs:
            assert state.signs[inv][0] is sign.flipped()


def test_knot_group_positivity_never_contradicts():
    # the unfilled knot group acts on the line with c, l both moving points
    # up (translations by 1 and 2 factor through the abelianization and kill
    # the relator), so saturation with the relator available must stay
    # consistent and every derived sign must match that model
    relator = final_relator(3)
    branch = Branch(ctx=BranchContext((relator,)), budget=900)
    branch.assume(W("c"), Sign.POSITIVE)
    branch.assume(W("l"), Sign.POSITIVE)
    state = saturate(branch, relators=(relator,), generators=("c", "l"))
    assert state.outcome != "contradiction"
    for key, (sign, _) in state.signs.items():
        translation = sum(s for n, s in key.letters if n == "c") \
            + 2 * sum(s for n, s in key.letters if n == "l")
        if sign is Sign.POSITIVE:
            assert translation > 0
        elif sign is Sign.NEGATIVE:
            assert translation < 0


@pytest.mark.parametrize("s,p,q", [(3, 19, 1), (4, 23, 1), (3, 39, 2)])
def test_replay_lemma_l_positive(s, p, q):
    """The k_positive branch of the search forces l positive within its first 12 lines."""
    branch = nlo_search(s, Slope(p, q)).branches[0]
    assert branch.name == "k_positive"
    n = next(i for i, line in enumerate(branch.journal)
             if line.note == "un-conjugate to isolate l")
    journal = branch.journal[:n + 1]
    assert len(journal) <= 12
    last = journal[-1]
    assert last.word == W("l") and last.sign is Sign.POSITIVE
    rules = [line.rule for line in journal]
    assert "peripheral-meridian" in rules  # the x < xk < xk^q = xM = xc chain
    assert "relator" in rules


def test_identity_branch_closes_via_h1():
    branch = _identity_branch(3, Slope(19, 1), 1000)
    assert branch.outcome == "contradiction"
    rules = [line.rule for line in branch.journal]
    assert rules[-1] == "abelian-obstruction"
    # meridian inherits the trivial action before the obstruction fires
    c_lines = [l for l in branch.journal if l.word == W("c")]
    assert c_lines and c_lines[0].sign is Sign.IDENTITY


def test_identity_branch_open_for_unit_h1():
    branch = _identity_branch(3, Slope(1, 1), 1000)
    assert branch.outcome == "open"


CERTIFIABLE = [(3, 19, 1), (3, 39, 2), (4, 23, 1), (5, 27, 1)]


@pytest.mark.parametrize("s,p,q", CERTIFIABLE)
def test_nlo_emits_replayable_certificates(s, p, q):
    result = nlo_search(s, Slope(p, q), depth=100_000)
    assert result.reason is None
    cert = result.to_json()
    assert cert["verdict"] == "not_left_orderable"
    assert cert["params"]["p_odd"] is True
    assert {b["name"] for b in cert["branches"]} == {"k_positive", "k_identity"}
    for branch in cert["branches"]:
        assert branch["outcome"] == "contradiction"
        for line in branch["journal"]:
            assert "rule" in line and "premises" in line and "conclusion" in line
    report = replay_certificate(cert)
    assert report.ok, str(report)


@pytest.mark.parametrize("s,p,q", [(3, 17, 1), (3, 18, 1)])
def test_nlo_below_bound_is_inconclusive(s, p, q):
    result = nlo_search(s, Slope(p, q))
    assert result.reason is not None
    assert "below the bound" in result.reason


def test_nlo_budget_exhaustion_is_inconclusive():
    result = nlo_search(3, Slope(19, 1), depth=3)
    assert result.reason is not None
    assert "budget" in result.reason


def test_nlo_even_p_still_certifies_with_flag():
    result = nlo_search(3, Slope(20, 1))
    assert result.reason is None
    assert result.to_json()["params"]["p_odd"] is False


def test_certificate_exactly_when_slope_reaches_bound():
    import math
    for s in (3, 4, 5):
        bound = 4 * s + 7
        for q in (1, 2, 3):
            for p in range(bound * q - 3, bound * q + 4):
                if math.gcd(abs(p), q) != 1:
                    continue
                result = nlo_search(s, Slope(p, q))
                certified = result.reason is None
                assert certified == (p - bound * q >= 0), (s, p, q)
                if certified:
                    assert replay_certificate(result.to_json()).ok


def test_nlo_jobs_deterministic():
    a = nlo_search(3, Slope(19, 1)).to_json()
    b = nlo_search(3, Slope(19, 1)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_mirror_branch_has_equal_shape_and_flipped_signs():
    pos = _strict_branch(3, Slope(19, 1), Sign.POSITIVE, 1000)
    neg = _strict_branch(3, Slope(19, 1), Sign.NEGATIVE, 1000)
    assert pos.outcome == neg.outcome == "contradiction"
    assert [(l.rule, l.premises) for l in pos.journal] == \
           [(l.rule, l.premises) for l in neg.journal]
    for a, b in zip(pos.journal, neg.journal):
        if a.sign is None:
            assert b.sign is None
        else:
            assert b.sign is a.sign.flipped()


def test_replayer_rejects_tampered_certificates():
    cert = nlo_search(3, Slope(19, 1)).to_json()

    flipped = copy.deepcopy(cert)
    flipped["verdict"] = "left_orderable"
    assert not replay_certificate(flipped).ok

    corrupted = copy.deepcopy(cert)
    for line in corrupted["branches"][0]["journal"]:
        if line["conclusion"].get("word") == "l":
            line["conclusion"]["word"] = "c"
    assert not replay_certificate(corrupted).ok

    unfinished = copy.deepcopy(cert)
    unfinished["branches"][1]["journal"] = unfinished["branches"][1]["journal"][:1]
    assert not replay_certificate(unfinished).ok

    wrong_params = copy.deepcopy(cert)
    wrong_params["params"]["p"] = 17
    assert not replay_certificate(wrong_params).ok

    forged_assumption = copy.deepcopy(cert)
    forged_assumption["branches"][0]["journal"].insert(
        1, {"rule": "assume", "premises": [],
            "args": {}, "conclusion": {"word": "c^-1", "sign": "positive"}})
    assert not replay_certificate(forged_assumption).ok

    dropped_case = copy.deepcopy(cert)
    dropped_case["branches"][1] = copy.deepcopy(dropped_case["branches"][0])
    assert not replay_certificate(dropped_case).ok


def test_certificates_are_json_serializable():
    cert = nlo_search(4, Slope(23, 1)).to_json()
    encoded = json.dumps(cert, indent=2)
    assert replay_certificate(json.loads(encoded)).ok


GOLDEN_CERT = json.loads(
    (Path(__file__).parent / "data" / "nlo_s3_19_1.json").read_text())


DROP = object()


def _problems(report):
    """The located problems of a replay report, one per failing check."""
    return [str(check) for check in report.checks if not check.ok]


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("path,value,located", [
    (("branches", 0, "journal", 1, "premises"), [], "branch k_positive: line 1:"),
    (("branches", 0, "journal", 2), 7, "branch k_positive: line 2:"),
    (("branches", 1, "journal", 0, "conclusion"), "k", "branch k_identity: line 0:"),
    (("branches",), 7, "branches"),
    (("params", "relator"), DROP, "'relator'"),
    (("params", "s"), 2, "parameter s"),
    # 2^64 is past sys.maxsize: no run of that many letters is ever built
    (("branches", 1, "journal", 0, "conclusion", "word"), f"k^{2 ** 64}",
     "branch k_identity: line 0: exponent 18446744073709551616 is too large"),
])
def test_replay_reports_malformed_certificates(path, value, located):
    cert = copy.deepcopy(GOLDEN_CERT)
    _set(cert, path, value)
    report = replay_certificate(cert)
    assert not report.ok
    assert any(located in problem for problem in _problems(report)), str(report)


def _line_mutants(line):
    """(field, mutant) pairs, each mutant changing one field of the line."""
    for key in line:
        yield key, {k: v for k, v in line.items() if k != key}
    for key, wrong in (("rule", 7), ("premises", "0"), ("args", []),
                       ("conclusion", "c"), ("note", 5)):
        yield key, dict(line, **{key: wrong})
    for rule in RULES:
        if rule != line["rule"]:
            yield "rule", dict(line, rule=rule)
    for n in range(len(line["premises"])):
        for shift in (-1, 1):
            premises = list(line["premises"])
            premises[n] += shift
            yield "premises", dict(line, premises=premises)
    conclusion = line["conclusion"]
    if "sign" in conclusion:
        for sign in ("positive", "negative", "identity"):
            if sign != conclusion["sign"]:
                yield "conclusion", dict(line, conclusion=dict(conclusion, sign=sign))
        yield "conclusion", dict(line, conclusion=dict(
            conclusion, word=conclusion["word"] + " c"))
    else:
        yield "conclusion", dict(line, conclusion={"word": "c", "sign": "positive"})


def test_replay_rejects_every_single_field_mutant():
    assert replay_certificate(GOLDEN_CERT).ok
    mutants = 0
    for b, branch in enumerate(GOLDEN_CERT["branches"]):
        for i, line in enumerate(branch["journal"]):
            for key, mutant in _line_mutants(line):
                cert = copy.deepcopy(GOLDEN_CERT)
                cert["branches"][b]["journal"][i] = mutant
                report = replay_certificate(cert)  # a report, never an exception
                mutants += 1
                if key in ("rule", "premises", "conclusion"):
                    assert not report.ok, (branch["name"], i, mutant)
                    assert any(f"branch {branch['name']}: line {i}:" in problem
                               for problem in _problems(report)), str(report)
    assert mutants > 400


def _line(branch, i):
    return ("branches", branch, "journal", i)


# values that equal the right one under Python's == but are of another JSON type
@pytest.mark.parametrize("path,value,located", [
    (("params", "q"), True, "params: q: expected an integer, got True"),
    (("params", "s"), 3.0, "params: s: expected an integer, got 3.0"),
    (_line(0, 6) + ("args", "n"), "3", "branch k_positive: line 6: expected an integer, got '3'"),
    (_line(0, 6) + ("args", "n"), 3.9, "branch k_positive: line 6: expected an integer, got 3.9"),
    (_line(0, 4) + ("args", "inverted"), 0,
     "branch k_positive: line 4: expected a boolean, got 0"),
    (_line(0, 4) + ("args", "rotation"), 0.0,
     "branch k_positive: line 4: expected an integer, got 0.0"),
    (_line(0, 4) + ("args", "rotation"), False,
     "branch k_positive: line 4: expected an integer, got False"),
    (_line(0, 1) + ("args", "q"), True,
     "branch k_positive: line 1: peripheral-meridian needs k^q and the slope's bezout pair"),
    (_line(0, 1) + ("args", "bezout"), [True, False],
     "branch k_positive: line 1: peripheral-meridian needs k^q and the slope's bezout pair"),
    (_line(0, 14) + ("args", "clasp_power"), 0.0,
     "branch k_positive: line 14: exponent bookkeeping is wrong"),
    (_line(1, 2) + ("args", "h1_order"), 19.0,
     "branch k_identity: line 2: needs a trivially acting meridian and H1 of order > 1"),
    (_line(0, 15) + ("conclusion",), {"contradiction": 1},
     "branch k_positive: line 15: missing field 'word'"),
])
def test_replay_checks_json_types_exactly(path, value, located):
    """A bool is no integer, nor 0.0 nor "3": each such field is rejected where it is."""
    cert = copy.deepcopy(GOLDEN_CERT)
    _set(cert, path, value)
    assert _problems(replay_certificate(cert)) == [located]


@pytest.mark.parametrize("path,value,located", [
    (("params", "slope_bound"), 5, "cited slope_bound: does not match the knot group and slope"),
    (("params", "p_odd"), False, "cited p_odd: does not match the knot group and slope"),
    (("params", "depth"), -1, "params: depth: the budget must be at least 1"),
    (("params", "depth"), True, "params: depth: expected an integer, got True"),
    (("depth_used",), -4, "depth_used: is not the 19 journal lines of the branches"),
    (("engine_version",), "9", "engine_version: not '1.0'"),
])
def test_replay_checks_every_parameter_it_can_derive(path, value, located):
    """The slope bound and parity follow from s and p, the budget is a positive
    integer, and depth_used counts the journal lines of every branch."""
    assert replay_certificate(GOLDEN_CERT).ok
    cert = copy.deepcopy(GOLDEN_CERT)
    _set(cert, path, value)
    assert _problems(replay_certificate(cert)) == [located]


def _power_of_line_1(cert):
    """Line 6 (c^3 from line 1) asks for the 4000th power of c."""
    cert["branches"][0]["journal"][6]["args"]["n"] = 4000
    return "line 6"


def _power_of_the_empty_word(cert):
    """An assumed empty word raised to the millionth power."""
    branch = cert["branches"][0]
    branch["assumptions"].append({"word": "1", "sign": "positive"})
    n = len(branch["journal"])
    branch["journal"] += [
        {"rule": "assume", "premises": [], "args": {},
         "conclusion": {"word": "1", "sign": "positive"}},
        {"rule": "power", "premises": [n], "args": {"n": 10 ** 6},
         "conclusion": {"word": "1", "sign": "positive"}}]
    return f"line {n + 1}"


def _power_claiming_a_contradiction(cert):
    """Line 6 asks for c^4000 and claims that it closes the branch."""
    line = cert["branches"][0]["journal"][6]
    line["args"]["n"] = 4000
    line["conclusion"] = {"contradiction": True}
    return "line 6"


@pytest.mark.parametrize("forge", [_power_of_line_1, _power_of_the_empty_word,
                                   _power_claiming_a_contradiction])
def test_replay_bounds_a_forged_power_by_its_claim(forge):
    cert = copy.deepcopy(GOLDEN_CERT)
    located = f"branch k_positive: {forge(cert)}:"
    start = time.perf_counter()
    report = replay_certificate(cert)
    assert time.perf_counter() - start < 0.5
    assert not report.ok
    assert any(located in problem for problem in _problems(report)), str(report)
