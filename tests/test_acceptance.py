"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import random
import time

from test_orderability import saturate
from test_presentations import dense_null_homologous, random_move, random_presentation

from pretzel_pi1.derivation import (
    knot_group_presentation,
    run_pipeline,
    simplify_longitude,
    verify_L_induction,
    verify_R_induction,
)
from pretzel_pi1.knot import (
    Slope,
    clasp_word,
    final_relator,
    h1_order,
    longitude_word,
)
from pretzel_pi1.orderability import Sign, replay_certificate
from pretzel_pi1.presentations import (DerivationTrace, SideConditionViolated, apply_move,
                                       replay_trace)
from pretzel_pi1.surgery import (
    Branch,
    nlo_search,
    verify_fact,
    verify_lemma_k,
)
from pretzel_pi1.words import CyclicWord, Word, palindrome_rotation, parse_word as W, splice

S_RANGE = range(3, 13)


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.seconds
        verdict = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.description}): {verdict} "
              f"in {elapsed:.2f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert in_budget, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_1_presentation_reproduction():
    with Budget(1, "presentation and longitude reproduction", 5):
        for s in S_RANGE:
            result = run_pipeline(s)
            assert result.trace.end.generators == ("c", "l")
            assert result.trace.end.relators == (("r_inf", final_relator(s)),)
            simplified = simplify_longitude(s, result.longitude)
            assert result.trace.moves[-len(simplified):] == simplified
            # the simplification moves take the pipeline longitude to the closed form
            end = result.trace.end
            assert replay_trace(DerivationTrace(end, simplified, end, result.longitude,
                                                longitude_word(s))).ok
            assert replay_trace(result.trace).ok
        # the s=3 endpoints, verbatim
        assert final_relator(3) == W("clcLCL^-3CLclcl^2")
        assert longitude_word(3) == W("c^-4 l c l^3 c l^3 c l c^-15")


def test_criterion_2_induction_oracles():
    with Budget(2, "closed forms equal iterative substitution", 5):
        for s in S_RANGE:
            assert verify_R_induction(s).ok
            assert verify_L_induction(s).ok


def test_criterion_3_palindrome_property():
    with Budget(3, "the relator is a palindrome up to rotation", 1):
        for s in S_RANGE:
            assert palindrome_rotation(CyclicWord(final_relator(s))) is not None


def test_criterion_4_fact_identity():
    with Budget(4, "the clasp identity holds freely", 1):
        for s in S_RANGE:
            assert verify_fact(s).ok
            lhs = ~longitude_word(s)
            rhs = splice(Word.from_syllables([("c", 2 * s + 9)]), ~clasp_word(s),
                         Word.from_syllables([("c", 2 * s - 2)]))
            assert lhs == rhs


def test_criterion_5_lemma_k_random_slopes():
    with Budget(5, "peripheral root on 200 random slopes", 1):
        rng = random.Random(20240817)
        seen = 0
        while seen < 200:
            p = rng.randint(-500, 500)
            q = rng.randint(1, 50)
            if math.gcd(abs(p), q) != 1:
                continue
            assert verify_lemma_k(Slope(p, q)).ok
            seen += 1


def test_criterion_6_homology():
    with Budget(6, "filled H1 orders and null-homologous longitude", 1):
        slopes = [Slope(19, 1), Slope(23, 1), Slope(39, 2), Slope(37, 2)]
        for s in range(3, 9):
            for slope in slopes:
                assert h1_order(s, slope) == abs(slope.p)
        for s in S_RANGE:
            assert dense_null_homologous(knot_group_presentation(s), longitude_word(s))


def test_criterion_7_certificates():
    params = [(3, Slope(19, 1)), (3, Slope(39, 2)), (4, Slope(23, 1)),
              (5, Slope(27, 1))]
    with Budget(7, "replayer-validated certificates and honest refusals", 240):
        for s, slope in params:
            start = time.perf_counter()
            result = nlo_search(s, slope, depth=100_000)
            assert result.reason is None, (s, str(slope))
            cert = result.to_json()
            assert cert["depth_used"] <= 100_000
            report = replay_certificate(cert)
            assert report.ok, str(report)
            assert time.perf_counter() - start < 60
        for s, slope in [(3, Slope(17, 1)), (3, Slope(18, 1))]:
            result = nlo_search(s, slope, depth=100_000)
            assert result.reason is not None, (s, str(slope))


def test_criterion_8_soundness_controls():
    with Budget(8, "orderable control and Tietze invariance", 30):
        # the free group on {c, l} is left-orderable: no contradiction may appear
        branch = Branch(budget=600)
        branch.assume(W("c"), Sign.POSITIVE)
        branch.assume(W("l"), Sign.POSITIVE)
        state = saturate(branch, relators=(), generators=("c", "l"))
        assert state.outcome != "contradiction"

        # bundled traces preserve the abelianization move by move
        for s in (3, 5, 8):
            assert replay_trace(run_pipeline(s).trace, check_abelian=True).ok

        # 1000 random move sequences on random small presentations
        rng = random.Random(1729)
        sequences = 0
        while sequences < 1000:
            p = random_presentation(rng)
            baseline = p.abelian_invariants()
            counter = 0
            for _ in range(rng.randint(1, 8)):
                move = random_move(rng, p, counter)
                counter += 1
                if move is None:
                    continue
                try:
                    p = apply_move(p, move)[0]
                except SideConditionViolated:
                    continue
                assert p.abelian_invariants() == baseline
            sequences += 1
