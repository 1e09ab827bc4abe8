"""The sparse unit-pivot path of smith against the dense Smith normal form."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pretzel_pi1 import smith
from pretzel_pi1.derivation import run_pipeline
from pretzel_pi1.presentations import Presentation, apply_move, exponent_row, replay_trace
from pretzel_pi1.words import parse_word as W


def exponent_sum(word, name):
    """The oracle: the signed count of name's letters in word."""
    return sum(sign for gen, sign in word.letters if gen == name)


def dense_invariants(matrix, n):
    """The oracle: invariant factors read off the dense Smith normal form."""
    diag = smith.smith_normal_form(matrix)
    return tuple([d for d in diag if d > 1] + [0] * (n - len(diag)))


def sparse(matrix):
    return [{j: a for j, a in enumerate(row) if a} for row in matrix]


def named(rows):
    """rows with column j keyed by a name; the names sort in the reverse of
    the column order."""
    return [{"zyxwvutsrq"[j]: a for j, a in row.items()} for row in rows]


ENTRIES = [
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),        # sparse, with units
    st.sampled_from([0, 0, 2, -2, 3, -4, 6, 9, -12]),   # no unit: a non-empty core
]


@st.composite
def matrices(draw):
    """(matrix, n): up to 7 x 7, with zero rows and zero columns mixed in."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = draw(st.sampled_from(ENTRIES))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=n))
        rows = [row[:at] + [0] + row[at:] for row in rows]
        n += 1
    if draw(st.booleans()):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * n)
    return rows, n


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_sparse_invariants_match_the_dense_oracle(case):
    matrix, n = case
    expected = dense_invariants(matrix, n)
    rows = sparse(matrix)
    assert smith.sparse_invariants(rows, n) == expected
    # the invariant factors do not depend on the column keys or their order
    assert smith.sparse_invariants(named(rows), n) == expected
    # generators that no row mentions are free factors
    assert smith.sparse_invariants(rows, n + 2) == expected + (0, 0)


def test_sparse_invariants_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(2012)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        pool = rng.choice([range(-9, 10), (0, 0, 0, 1, -1, 2), (0, 2, -2, 3, 4, -6)])
        matrix = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(sympy.Matrix(matrix), domain=sympy.ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0]
        expected = tuple(sorted(d for d in diag if d > 1)) + (0,) * (n - len(diag))
        assert smith.sparse_invariants(sparse(matrix), n) == expected, matrix


def test_sparse_invariants_examples():
    assert smith.sparse_invariants([], 3) == (0, 0, 0)
    assert smith.sparse_invariants([{"a": 2}, {"b": 3}], 2) == (6,)
    assert smith.sparse_invariants([{"a": 2, "b": 4}, {"a": 6, "b": 8}], 2) == (2, 4)
    assert smith.sparse_invariants([{"a": 1, "b": -1}, {"b": 1, "c": -1}], 3) == (0,)
    assert smith.sparse_invariants([{"c": 3, "l": 1}, {"c": 19}], 2) == (19,)
    # string keys and integer keys over the same matrix
    matrix = [[2, 4, 6], [6, 2, 4], [4, 6, 2]]
    assert smith.sparse_invariants(named(sparse(matrix)), 3) \
        == smith.sparse_invariants(sparse(matrix), 3) == (2, 2, 36)
    filled = Presentation(("c", "l"), (("fill", W("c^3 l^8")), ("r", W("l"))))
    assert [exponent_row(word) for _, word in filled.relators] == [{"c": 3, "l": 8}, {"l": 1}]
    assert filled.abelian_invariants() == (3,)


def test_dense_snf_entries_stay_bounded():
    """A 7 x 7 matrix on which the dense elimination used to grow its entries
    past 4000 digits; the invariant factors agree with sympy and the determinant."""
    matrix = [[-2, -5, -6, 3, -8, -4, -7], [-6, 5, 8, 5, -9, -8, -1],
              [-8, 7, 6, -3, 2, 5, -6], [1, 1, 3, 3, 0, -7, -2], [5, 8, 2, 4, 4, 4, 9],
              [-1, -4, -5, -8, 1, 2, 3], [-7, 9, 1, 9, -4, -5, -6]]
    assert smith.smith_normal_form(matrix) == [1, 1, 1, 1, 1, 1, 2344530]
    assert smith.sparse_invariants(sparse(matrix), 7) == (2344530,)


def test_invariants_match_the_oracle_on_every_trace_presentation():
    """Every presentation along the s = 3..40 traces presents the knot group,
    whose H1 is Z; both paths must say so."""
    for s in range(3, 41):
        trace = run_pipeline(s).trace
        p, longitude = trace.start, trace.longitude_start
        for move in (None, *trace.moves):
            if move is not None:
                p, delta = apply_move(p, move, longitude)
                longitude = delta.longitude
            matrix = [[exponent_sum(word, g) for g in p.generators] for _, word in p.relators]
            assert p.abelian_invariants() == dense_invariants(matrix, len(p.generators)) == (0,)


def test_check_abelian_replay_keeps_the_dense_snf_small(monkeypatch):
    """Unit pivots remove every generator but one, so the start of the s=20
    trace sends no more than a 2 x 2 core to the dense Smith normal form; each
    move then matches its abelian shadow, so H1 is computed once per replay."""
    seen, checked = [], []
    dense, sparse = smith.smith_normal_form, smith.sparse_invariants

    def recording_dense(matrix):
        seen.append((len(matrix), len(matrix[0]) if matrix else 0))
        return dense(matrix)

    def recording_sparse(rows, n):
        checked.append(n)
        return sparse(rows, n)

    monkeypatch.setattr(smith, "smith_normal_form", recording_dense)
    monkeypatch.setattr(smith, "sparse_invariants", recording_sparse)
    trace = run_pipeline(20).trace
    assert replay_trace(trace, check_abelian=True).ok
    assert len(checked) == 1
    assert all(rows <= 2 and cols <= 2 for rows, cols in seen), seen
