"""Closed forms and peripheral arithmetic of the (-2,3,2s+1) pretzel knot family.

Everything here is a function of the integer parameter s >= 3 and of the
filling slope p/q alone: the knot group relator r_inf, the simplified
longitude, the clasp word the peripheral identity targets, the Bezout
root of the peripheral lattice and |H_1| of a filling.  The three words
are closed forms of 12, 9 and 7 syllables at every s.

Both proof checkers read their targets from this module, so it imports
nothing that produces a proof: the derivation that reaches r_inf and the
longitude lives in derivation.py, the filling and the nlo search in
surgery.py.

|H_1| of a filling needs no word at all.  Exponent sums add under
products and survive free reduction, so c^p L^q abelianizes to
p*row(c) + q*row(L), and each row is a sum over the closed form's runs.
So h1_order (which `h1`, `nlo` and certificate replay use) costs the
same for every s and every slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .words import Word, splice


def check_s(s: int) -> int:
    if not isinstance(s, int) or s < 3:
        raise ValueError(f"the pretzel parameter s must be an integer >= 3, got {s!r}")
    return s


def _relator_runs(s: int) -> list[tuple[str, int]]:
    check_s(s)
    return [("c", 1), ("l", 1), ("c", 1), ("l", -1), ("c", -1), ("l", -s),
            ("c", -1), ("l", -1), ("c", 1), ("l", 1), ("c", 1), ("l", s - 1)]


def final_relator(s: int) -> Word:
    return Word.from_syllables(_relator_runs(s))


def _longitude_runs(s: int) -> list[tuple[str, int]]:
    check_s(s)
    return [("c", -(2 * s - 2)), ("l", 1), ("c", 1), ("l", s), ("c", 1),
            ("l", s), ("c", 1), ("l", 1), ("c", -(2 * s + 9))]


def longitude_word(s: int) -> Word:
    """The simplified longitude: null-homologous companion of the meridian c."""
    return Word.from_syllables(_longitude_runs(s))


def clasp_word(s: int) -> Word:
    """The product l c l^s c l^s c l that the peripheral identity targets."""
    check_s(s)
    return Word.from_syllables([("l", 1), ("c", 1), ("l", s), ("c", 1),
                                ("l", s), ("c", 1), ("l", 1)])


def clasp_identity_holds(s: int) -> bool:
    """~longitude == c^(2s+9) * ~clasp * c^(2s-2) by free reduction alone."""
    rhs = splice(Word.from_syllables([("c", 2 * s + 9)]), ~clasp_word(s),
                 Word.from_syllables([("c", 2 * s - 2)]))
    return ~longitude_word(s) == rhs


class SlopeError(ValueError):
    pass


@dataclass(frozen=True)
class Slope:
    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise SlopeError(f"slope denominator must be positive, got {self.q}")
        if math.gcd(abs(self.p), self.q) != 1:
            raise SlopeError(f"slope {self.p}/{self.q} is not in lowest terms")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def parse_slope(text: str) -> Slope:
    head, sep, tail = text.partition("/")
    try:
        p = int(head)
        q = int(tail) if sep else 1
    except ValueError as exc:
        raise SlopeError(f"cannot parse slope {text!r}") from exc
    return Slope(p, q)


@dataclass(frozen=True)
class PeripheralVector:
    """Exponents (meridian, longitude) in the rank-2 peripheral subgroup."""
    m: int
    l: int

    def scaled(self, n: int) -> "PeripheralVector":
        return PeripheralVector(n * self.m, n * self.l)

    def congruent(self, other: "PeripheralVector", slope: Slope) -> bool:
        """Equality modulo the filling sublattice Z*(p, q)."""
        dm, dl = self.m - other.m, self.l - other.l
        if dl % slope.q:
            return False
        return dm == (dl // slope.q) * slope.p


def bezout_k(slope: Slope) -> PeripheralVector:
    """The peripheral root k = M^s L^-r with rp + sq = 1, canonical pair.

    Normalization: r = 0 when q = 1, otherwise the unique 0 <= r < q.
    Any other Bezout pair shifts the vector by a filling-lattice element.
    """
    if slope.q == 1:
        r, s = 0, 1
    else:
        r = pow(slope.p, -1, slope.q)
        s = (1 - r * slope.p) // slope.q
    assert r * slope.p + s * slope.q == 1
    return PeripheralVector(s, -r)


def fact_exponent(s: int, slope: Slope) -> int:
    """Exponent of k in the peripheral identity for the clasp word."""
    check_s(s)
    return slope.p - (4 * s + 7) * slope.q


def _row(runs: list[tuple[str, int]]) -> tuple[int, int]:
    """The exponent sums (of c, of l) of the word with these runs."""
    return sum(e for g, e in runs if g == "c"), sum(e for g, e in runs if g == "l")


def h1_order(s: int, slope: Slope) -> int:
    """|H_1| of the filled manifold; 0 means infinite.

    The same group as surgery.surgered_presentation(s, slope).abelian_invariants()
    gives: Z^2 modulo row(r_inf) and p*row(c) + q*row(L) for the filling.  A
    quotient of Z^2 by two rows is finite exactly when their determinant is
    nonzero, and then has order |det|.
    """
    (r_c, r_l), (lon_c, lon_l) = _row(_relator_runs(s)), _row(_longitude_runs(s))
    fill_c, fill_l = slope.p + slope.q * lon_c, slope.q * lon_l
    return abs(r_c * fill_l - r_l * fill_c)
