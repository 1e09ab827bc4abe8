"""Deterministic cost: the letters that words build, counted per doubling.

Wall time on a shared machine is noisy; the letters that the reducing
constructor (_reduce_letters) and the seam splice (_splice_letters) return
are not.  Each bound is a growth ratio per doubling of the input size.
"""

import pytest

from pretzel_pi1 import words
from pretzel_pi1.derivation import run_pipeline, verify_L_induction, verify_R_induction
from pretzel_pi1.knot import Slope
from pretzel_pi1.presentations import replay_trace
from pretzel_pi1.surgery import nlo_search, surgered_presentation


@pytest.fixture
def letters_built(monkeypatch):
    """A callable that runs its argument and returns the letters built."""
    count = [0]

    def counted(build):
        def wrapper(*args):
            out = build(*args)
            count[0] += len(out)
            return out
        return wrapper

    monkeypatch.setattr(words, "_reduce_letters", counted(words._reduce_letters))
    monkeypatch.setattr(words, "_splice_letters", counted(words._splice_letters))

    def run(job):
        count[0] = 0
        job()
        return count[0]
    return run


def ratios(counts):
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("induction", [verify_R_induction, verify_L_induction])
def test_induction_letters_grow_at_most_4_4x_per_doubling_of_s(letters_built, induction):
    """Each of the 2s substitution steps rewrites Theta(s) letters, so about 4x
    per doubling (ROADMAP item 5 would take it to 2x).  The closed forms the
    steps are compared with must cost O(s) each: built by one product per
    factor they cost O(s^2) each, and the ratio reads 5.5-7.1x."""
    counts = [letters_built(lambda: induction(s)) for s in (25, 50, 100)]
    assert all(r <= 4.4 for r in ratios(counts)), counts


def test_derive_and_replay_letters_grow_at_most_4_4x_per_doubling_of_s(letters_built):
    """The pipeline and its checked replay follow the induction's corkscrew
    eliminations, so they grow about 4x per doubling as the inductions do
    (3.6-3.9x measured); the trace is built before the replay is counted."""
    traces = {s: run_pipeline(s).trace for s in (25, 50, 100)}
    derive = [letters_built(lambda: run_pipeline(s)) for s in traces]
    replay = [letters_built(lambda: replay_trace(trace, check_abelian=True))
              for trace in traces.values()]
    assert all(r <= 4.4 for r in ratios(derive)), derive
    assert all(r <= 4.4 for r in ratios(replay)), replay


def test_filling_letters_grow_at_most_2_2x_per_doubling_of_q(letters_built):
    """c^p L^q has p + q|L| letters and is built once; L^q by repeated
    multiplication costs O(q^2 |L|) letters, 3.6-3.8x per doubling."""
    counts = [letters_built(lambda: surgered_presentation(5, Slope(27 * q + 1, q)))
              for q in (40, 80, 160)]
    assert all(r <= 2.2 for r in ratios(counts)), counts


def test_nlo_letters_grow_at_most_4_4x_per_doubling_of_p(letters_built):
    """The power rule builds k^(p - 19) with Word.__pow__, whose repeated
    products cost O(p^2) letters: 4.15-4.30x per doubling.  A linear power
    (ROADMAP item 1) would take it to about 2x."""
    counts = [letters_built(lambda: nlo_search(3, Slope(p, 1))) for p in (250, 500, 1000)]
    assert all(r <= 4.4 for r in ratios(counts)), counts


@pytest.mark.parametrize("slope,depth", [(lambda n: Slope(1, n), 1),
                                         (lambda n: Slope(n, 1), 15)],
                         ids=["k^q past depth 1", "k^-e past depth 15"])
def test_a_budget_stopped_search_builds_the_same_letters_for_any_exponent(
        letters_built, slope, depth):
    """The line past the budget is a power of the root whose exponent grows
    with the slope.  It is refused before its rule runs, so the letters built
    do not depend on that exponent; charged after the rule, it built O(n^2)."""
    counts = [letters_built(lambda: nlo_search(3, slope(n), depth=depth))
              for n in (250, 500, 1000)]
    assert len(set(counts)) == 1, counts
