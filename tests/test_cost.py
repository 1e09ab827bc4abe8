"""Deterministic cost: the letters that words build, counted per doubling.

Wall time on a shared machine is noisy; the letters that the reducing
constructor (_reduce_letters) and the seam splice (_splice_letters) return
are not.  Each bound is a growth ratio per doubling of the input size.
"""

import pytest

from pretzel_pi1 import words
from pretzel_pi1.derivation import verify_L_induction, verify_R_induction
from pretzel_pi1.surgery import Slope, surgered_presentation


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


def test_filling_letters_grow_at_most_2_2x_per_doubling_of_q(letters_built):
    """c^p L^q has p + q|L| letters and is built once; L^q by repeated
    multiplication costs O(q^2 |L|) letters, 3.6-3.8x per doubling."""
    counts = [letters_built(lambda: surgered_presentation(5, Slope(27 * q + 1, q)))
              for q in (40, 80, 160)]
    assert all(r <= 2.2 for r in ratios(counts)), counts
