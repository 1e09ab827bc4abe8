"""Dehn surgery quotients and peripheral arithmetic.

The filled group is <c,l | r_inf(s), c^p L(s)^q> with meridian M = c and
longitude L the simplified null-homologous word.  M and L commute (they
live on the boundary torus), so identities among peripheral elements are
decided exactly in Z^2 modulo the sublattice generated by (p, q); no
word search in the group is ever needed for them.

|H_1| of a filling never needs the filling word either.  Exponent sums add
under products and survive free reduction, so c^p L^q abelianizes to
p*row(c) + q*row(L), where row is presentations.exponent_row, the one
name-keyed row that every H_1 here is read from.  So h1_order (which `h1`,
`nlo` and certificate replay use) costs the same for every slope.
surgered_presentation, for the `surgery` command, still builds the
filling word: in one pass, from the run of c^p and q copies of the runs
of L, reduced only at the seams, so it costs p + q|L| letters.  Only the
`power` rule of the orderability engine multiplies a word by itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .derivation import check_s, final_relator, longitude_word
from .presentations import Presentation, Report, exponent_row, row_plus
from .smith import group_order, sparse_invariants
from .words import _MAX_RUN, Word, WordError, _run


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


MERIDIAN = PeripheralVector(1, 0)
LONGITUDE = PeripheralVector(0, 1)


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


def verify_lemma_k(slope: Slope) -> Report:
    """k^q = M and k^-p = L hold in the peripheral quotient."""
    k = bezout_k(slope)
    report = Report(f"lemma-k {slope}")
    report.add(f"k^{slope.q} = M", k.scaled(slope.q).congruent(MERIDIAN, slope))
    report.add(f"k^{-slope.p} = L", k.scaled(-slope.p).congruent(LONGITUDE, slope))
    return report


def fact_exponent(s: int, slope: Slope) -> int:
    """Exponent of k in the peripheral identity for the clasp word."""
    check_s(s)
    return slope.p - (4 * s + 7) * slope.q


def clasp_word(s: int) -> Word:
    """The product l c l^s c l^s c l that the peripheral identity targets."""
    check_s(s)
    return Word.from_syllables([("l", 1), ("c", 1), ("l", s), ("c", 1),
                                ("l", s), ("c", 1), ("l", 1)])


def clasp_identity_holds(s: int) -> bool:
    """~longitude == c^(2s+9) * ~clasp * c^(2s-2) by free reduction alone."""
    rhs = (Word.from_syllables([("c", 2 * s + 9)]) * ~clasp_word(s)
           * Word.from_syllables([("c", 2 * s - 2)]))
    return ~longitude_word(s) == rhs


def verify_fact(s: int) -> Report:
    """Free-word half plus exponent bookkeeping of the clasp identity.

    (a) the free reduction identity of clasp_identity_holds.
    (b) trading each meridian block for k^q then moves the whole identity
        onto k with exponent p - (4s+7)q; the meridian blocks contribute
        (2s+9) + (2s-2) = 4s+7 copies of q.
    """
    check_s(s)
    report = Report(f"fact s={s}")
    report.add("free reduction identity", clasp_identity_holds(s))
    report.add("meridian blocks sum to 4s+7", (2 * s + 9) + (2 * s - 2) == 4 * s + 7)
    return report


def surgered_presentation(s: int, slope: Slope) -> Presentation:
    """Two generators, two relators: the knot relator plus the filling."""
    check_s(s)
    longitude = longitude_word(s)
    if _run(slope.p) + slope.q * len(longitude) > _MAX_RUN:  # before q copies of L's runs
        raise WordError(f"slope denominator {slope.q} is too large: c^p L^q would have more "
                        f"than {_MAX_RUN} letters before reduction")
    filling = Word.from_syllables([("c", slope.p)] + longitude.syllables() * slope.q)
    return Presentation(
        ("c", "l"),
        (("r_inf", final_relator(s)), ("fill", filling)),
        provenance=f"surgery s={s} slope={slope}")


def h1_order(s: int, slope: Slope) -> int:
    """|H_1| of the filled manifold; 0 means infinite.

    The same group as surgered_presentation(s, slope).abelian_invariants()
    gives, from the exponent rows of its relators: row(r_inf), and
    p*row(c) + q*row(L) for the filling.
    """
    r_inf = exponent_row(final_relator(s))
    filling = row_plus({"c": slope.p}, exponent_row(longitude_word(s)), slope.q)
    return group_order(sparse_invariants([r_inf, filling], 2))
