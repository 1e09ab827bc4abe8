import itertools
from collections import Counter

import pytest

from test_presentations import dense_null_homologous

from pretzel_pi1 import derivation, knot
from pretzel_pi1.derivation import (
    initial_longitude,
    strand_name,
    tunnel_collapse,
    tunnel_moves,
    wirtinger_presentation,
)
from pretzel_pi1.presentations import (
    AddGenerator,
    DerivationTrace,
    RewriteRelator,
    replay_trace,
)
from pretzel_pi1.words import parse_word as W, splice


def test_s3_generators_and_relators():
    p = wirtinger_presentation(3)
    assert p.generators == ("a", "b", "c", "d", "e", "f", "f1", "f2", "f3", "f4", "f5", "g")
    assert len(p.generators) == 12 and len(p.relators) == 12
    assert p.relator("r1") == W("c a D A")
    assert p.relator("r2") == W("a c B C")
    assert p.relator("r6") == W("f1 a F A")
    assert p.relator("r7") == W("f2 f1 A F1")
    assert p.relator("r11") == W("g f5 F4 F5")
    assert p.relator("r12") == W("b g F5 G")


@pytest.mark.parametrize("s", range(3, 13))
def test_counts_and_abelianization(s):
    p = wirtinger_presentation(s)
    assert len(p.generators) == 2 * s + 6
    assert len(p.relators) == 2 * s + 6
    # conjugation relators: length 4, at most 3 distinct generators
    for _, word in p.relators:
        assert len(word) == 4
        assert len(word.generators()) <= 3
    assert p.abelian_invariants() == (0,)


def test_strand_name_bounds():
    assert strand_name(0, 3) == "a"
    assert strand_name(5, 3) == "f5"
    assert strand_name(6, 3) == "g"
    assert strand_name(7, 3) == "b"
    with pytest.raises(ValueError):
        strand_name(8, 3)


def test_rejects_small_s():
    with pytest.raises(ValueError):
        wirtinger_presentation(2)
    with pytest.raises(ValueError):
        initial_longitude(0)


def test_tunnel_collapse_s3():
    p = tunnel_collapse(3)
    assert p.generators[-1] == "f0"
    assert p.relator("r_inf") == W("f0 A")
    assert p.relator("r6") == W("f1 f0 F A")
    assert p.relator("r7") == W("f2 f1 F0 F1")
    # untouched crossings keep the generator a
    assert p.relator("r1") == W("c a D A")
    assert p.abelian_invariants() == (0,)


@pytest.mark.parametrize("s", [3, 5, 8])
def test_tunnel_trace_shape_and_replay(s):
    moves = tunnel_moves(s)
    assert len(moves) == 3
    assert isinstance(moves[0], AddGenerator)
    assert all(isinstance(m, RewriteRelator) for m in moves[1:])
    trace = DerivationTrace(wirtinger_presentation(s), moves, tunnel_collapse(s))
    assert replay_trace(trace, check_abelian=True).ok


def test_initial_longitude_s3():
    assert initial_longitude(3) == W("a f c f5 f3 f1 c g f4 f2 a e c^-12")


@pytest.mark.parametrize("s", range(3, 13))
def test_longitude_reading_invariants(s):
    word = initial_longitude(s)
    arcs = word[:2 * s + 6]
    assert len(arcs) == 2 * s + 6
    assert word[2 * s + 6:] == W("c") ** -(2 * s + 6)
    p = wirtinger_presentation(s)
    # the corrected longitude is null-homologous
    assert dense_null_homologous(p, word)
    # sanity of the correction: the raw reading is 2s+6 meridians in H1
    c = W("c")
    assert dense_null_homologous(p, splice(arcs, c ** -(2 * s + 6)))
    assert not dense_null_homologous(p, splice(arcs, c ** -(2 * s + 5)))


# -- the Alexander polynomial, an oracle independent of the derivation -------
#
# Fox calculus with phi: c -> t, l -> t^2 (l is 2c in H1) on the one-relator
# presentation <c, l | r_inf> gives phi(dr/dl) = Delta(t), up to +-t^k.  The
# Wirtinger start gives Delta as a minor of its Alexander matrix, with every
# arc sent to t.  The two routes share no move of the pipeline.

def fox(word, gen, degree):
    """phi(d word / d gen) as {exponent: coefficient}, phi(x) = t^degree[x]."""
    poly, d = Counter(), 0
    for name, exp in word.syllables():
        for _ in range(abs(exp)):
            if exp < 0:
                d -= degree[name]
            if name == gen:
                poly[d] += 1 if exp > 0 else -1
            if exp > 0:
                d += degree[name]
    return {e: k for e, k in poly.items() if k}


def normalized(poly):
    """Coefficients from t^0 up, shifted by t^-k and signed to lead with +1."""
    low, high = min(poly), max(poly)
    sign = 1 if poly[high] > 0 else -1
    return [sign * poly.get(e, 0) for e in range(low, high + 1)]


def alexander(s):
    return normalized(fox(knot.final_relator(s), "l", {"c": 1, "l": 2}))


def evaluate(coeffs, t):
    return sum(k * t ** e for e, k in enumerate(coeffs))


def bareiss_det(matrix):
    """The determinant of an integer matrix, every division exact."""
    m, sign, prev = [row[:] for row in matrix], 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def matches_the_wirtinger_minor(s):
    """Delta(t) equals +-t^k times the Alexander matrix's minor without the
    last relator and the last arc, k in {0, 1}.  Both sides are polynomials
    of degree at most 2s+5, so agreement at 2s+6 points is equality."""
    p = wirtinger_presentation(s)
    arcs = p.generators[:-1]
    rows = [[fox(word, arc, dict.fromkeys(p.generators, 1)) for arc in arcs]
            for _, word in p.relators[:-1]]
    assert all(set(entry) <= {0, 1} for row in rows for entry in row)  # degree <= 1 each
    delta = alexander(s)
    minors = {t: bareiss_det([[entry.get(0, 0) + entry.get(1, 0) * t for entry in row]
                              for row in rows]) for t in range(2, 2 * s + 8)}
    return any(all(minor == unit * t ** k * evaluate(delta, t) for t, minor in minors.items())
               for unit, k in itertools.product((1, -1), (0, 1)))


def test_the_alexander_polynomial_at_s3_is_lehmers():
    assert alexander(3) == [1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1]


@pytest.mark.parametrize("s", [*range(3, 13), 20])
def test_the_relator_and_the_wirtinger_start_have_one_alexander_polynomial(s):
    assert matches_the_wirtinger_minor(s)


def test_the_alexander_polynomial_is_symmetric_with_delta_1_equal_to_1():
    for s in range(3, 41):
        delta = alexander(s)
        assert len(delta) - 1 == 2 * s + 4, s
        assert delta == delta[::-1], s  # Delta(t) = t^(2s+4) Delta(1/t)
        assert evaluate(delta, 1) == 1, s


def test_the_alexander_oracle_sees_one_changed_exponent_or_crossing(monkeypatch):
    runs, crossing = knot._relator_runs, derivation._conjugation_relator

    def changed_runs(s):
        out = runs(s)
        out[5] = ("l", -(s + 1))  # l^-s becomes l^-(s+1)
        return out

    def changed_crossing(over, source, target):  # r5 passes under d, not e
        return crossing("d" if (over, source, target) == ("e", "c", "g") else over,
                        source, target)

    for module, name, changed in ((knot, "_relator_runs", changed_runs),
                                  (derivation, "_conjugation_relator", changed_crossing)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, changed)
            assert not matches_the_wirtinger_minor(4), name
    assert matches_the_wirtinger_minor(4)
