import math

import pytest
from hypothesis import given, settings, strategies as st

from pretzel_pi1.knot import (
    PeripheralVector,
    Slope,
    SlopeError,
    bezout_k,
    clasp_word,
    fact_exponent,
    h1_order,
    longitude_word,
    parse_slope,
)
from pretzel_pi1.surgery import surgered_presentation, verify_fact, verify_lemma_k
from pretzel_pi1.words import Word, parse_word as W, splice


def coprime_slopes(max_p=500, max_q=50):
    return st.tuples(
        st.integers(min_value=-max_p, max_value=max_p),
        st.integers(min_value=1, max_value=max_q),
    ).filter(lambda pq: math.gcd(abs(pq[0]), pq[1]) == 1).map(lambda pq: Slope(*pq))


def test_slope_validation():
    assert str(Slope(19, 1)) == "19/1"
    assert parse_slope("19/1") == Slope(19, 1)
    assert parse_slope("-7/3") == Slope(-7, 3)
    assert parse_slope("19") == Slope(19, 1)
    with pytest.raises(SlopeError):
        Slope(38, 2)
    with pytest.raises(SlopeError):
        Slope(19, 0)
    with pytest.raises(SlopeError):
        Slope(19, -1)
    with pytest.raises(SlopeError):
        parse_slope("a/b")


def test_bezout_examples():
    assert bezout_k(Slope(19, 1)) == PeripheralVector(1, 0)
    assert bezout_k(Slope(39, 2)) == PeripheralVector(-19, -1)


@settings(max_examples=100, deadline=None)
@given(coprime_slopes())
def test_bezout_class_is_pair_independent(slope):
    k = bezout_k(slope)
    # shifting the Bezout pair by (r+q, s-p) moves k by a lattice element
    shifted = PeripheralVector(k.m - slope.p, k.l - slope.q)
    assert shifted.congruent(k, slope)
    assert not PeripheralVector(k.m + 1, k.l).congruent(k, slope) or slope.p == 1


def test_lemma_k_examples():
    assert verify_lemma_k(Slope(19, 1)).ok
    assert verify_lemma_k(Slope(39, 2)).ok


@settings(max_examples=200, deadline=None)
@given(coprime_slopes())
def test_lemma_k_random_slopes(slope):
    assert verify_lemma_k(slope).ok


def test_clasp_identity_s3_literal():
    assert ~longitude_word(3) == W("c^15 L C L^-3 C L^-3 C L c^4")
    assert clasp_word(3) == W("l c l^3 c l^3 c l")


@pytest.mark.parametrize("s", range(3, 13))
def test_fact_passes(s):
    assert verify_fact(s).ok


def test_fact_exponent_examples():
    assert fact_exponent(3, Slope(19, 1)) == 0  # the boundary case
    assert fact_exponent(3, Slope(39, 2)) == 1
    assert fact_exponent(3, Slope(17, 1)) == -2
    assert fact_exponent(4, Slope(23, 1)) == 0


def test_surgered_presentation_s3_19():
    p = surgered_presentation(3, Slope(19, 1))
    assert p.generators == ("c", "l")
    assert len(p.relators) == 2
    expected = splice(Word.from_syllables([("c", 19)]), longitude_word(3))
    assert p.relator("fill") == expected
    assert p.abelian_invariants() == (19,)


def test_the_filling_is_the_reduced_concatenation():
    """The filling, built in one pass from runs, equals c^p followed by q
    copies of L, reduced letter by letter.  The p values make c^p cancel
    into L's leading c^-(2s-2), pass it, or merge with it."""
    for s in range(3, 9):
        longitude = longitude_word(s).letters
        for q in range(1, 13):
            bound, head = (4 * s + 7) * q, 2 * s - 2
            for p in {sign * (base + d) for sign in (1, -1) for base in (0, head, bound)
                      for d in (-1, 0, 1)}:
                if math.gcd(abs(p), q) != 1:
                    continue
                meridian = (("c", 1 if p > 0 else -1),) * abs(p)
                expected = Word(meridian + longitude * q)
                assert surgered_presentation(s, Slope(p, q)).relator("fill") == expected, (s, p, q)


def test_h1_grid():
    """h1_order, read from the closed forms' runs, agrees with abelianizing the filling
    relator c^p L^q that surgered_presentation builds, on slopes either side
    of the bound (4s+7)q."""
    for s in range(3, 13):
        for q in range(1, 13):
            bound = (4 * s + 7) * q
            for p in (-bound - 1, -1, 0, 1, bound - 1, bound, bound + 1):
                if math.gcd(abs(p), q) != 1:
                    continue
                slope = Slope(p, q)
                order = h1_order(s, slope)
                assert order == abs(p)
                assert order == math.prod(
                    surgered_presentation(s, slope).abelian_invariants())


def test_h1_zero_slope_is_infinite():
    assert h1_order(3, Slope(0, 1)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=8), coprime_slopes(max_p=60, max_q=9))
def test_h1_equals_abs_p(s, slope):
    assert h1_order(s, slope) == abs(slope.p)
