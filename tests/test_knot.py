import pytest

from test_presentations import dense_null_homologous

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
from pretzel_pi1.words import parse_word as W


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
    assert dense_null_homologous(p, arcs * c ** -(2 * s + 6))
    assert not dense_null_homologous(p, arcs * c ** -(2 * s + 5))
