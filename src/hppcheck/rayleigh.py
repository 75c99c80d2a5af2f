"""Rayleigh differences and their quadratic decomposition.

For a polynomial Z over y1..ym and distinct indices e, f the Rayleigh
difference is

    diff(Z, e, f) = Z_e * Z_f - Z_ef * Z

where subscripts are partial derivatives.  For multiaffine Z the same
value equals Z_e^f * Z_f^e - Z_ef * Z^ef in contraction/deletion minors.

Viewed as a quadratic in a third variable y_g,

    diff(Z, e, f) = A*y_g^2 + B*y_g + C

where A, B and C are read off the difference's powers of y_g (at most 2
for multiaffine Z).  The discriminant B^2 - 4AC is symmetric in {e, f, g};
it is computed from that read-off and from its expanded form in the eight
minors of Z at {e, f, g}, and cross-checked in tests (neither is trusted
alone).

Each difference and each discriminant is one call of the product kernel
`polynomial.sum_of_products`, which sums all of a form's products into one
dict.  The two difference forms, and the two discriminant forms, share
nothing but that kernel and the minors, so their cross-checks stay
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hppcheck.polynomial import Polynomial, sum_of_products


def rayleigh_diff(Z: Polynomial, e: int, f: int) -> Polynomial:
    """Z_e*Z_f - Z_ef*Z, valid for arbitrary polynomials."""
    if e == f:
        raise ValueError("Rayleigh difference needs two distinct indices")
    Ze = Z.contract(e)
    Zf = Z.contract(f)
    Zef = Ze.contract(f)
    return sum_of_products(Z.m, ((1, Ze, Zf), (-1, Zef, Z)))


def rayleigh_diff_multiaffine(Z: Polynomial, e: int, f: int) -> Polynomial:
    """Minor form Z_e^f*Z_f^e - Z_ef*Z^ef; requires Z multiaffine."""
    if e == f:
        raise ValueError("Rayleigh difference needs two distinct indices")
    if not Z.is_multiaffine():
        raise ValueError("minor form requires a multiaffine polynomial")
    Ze = Z.contract(e)
    return sum_of_products(Z.m, ((1, Ze.delete(f), Z.contract(f).delete(e)),
                                 (-1, Ze.contract(f), Z.delete(e).delete(f))))


@dataclass(frozen=True)
class QuadDecomposition:
    """diff(Z, e, f) written as A*y_g^2 + B*y_g + C.

    A equals diff(Z_g, e, f) and C equals diff(Z^g, e, f); both facts are
    checked by the test suite.  For multiaffine Z all three parts are free
    of y_e, y_f and y_g.
    """

    e: int
    f: int
    g: int
    A: Polynomial
    B: Polynomial
    C: Polynomial

    def discriminant(self) -> Polynomial:
        return sum_of_products(self.B.m, ((1, self.B, self.B), (-4, self.A, self.C)))


def quad_decompose(Z: Polynomial, e: int, f: int, g: int) -> QuadDecomposition:
    """Decompose diff(Z, e, f) as a quadratic in y_g.

    Requires Z multiaffine and e, f, g distinct.  With D = diff(Z, e, f),
    of degree at most 2 in y_g: C = D at y_g = 0, B = dD/dy_g at y_g = 0
    and A = (d^2D/dy_g^2) / 2, so every term of D lands in one part.
    """
    if len({e, f, g}) != 3:
        raise ValueError("indices e, f, g must be distinct")
    if not Z.is_multiaffine():
        raise ValueError("quadratic decomposition requires a multiaffine polynomial")
    diff = rayleigh_diff_multiaffine(Z, e, f)
    d_g = diff.contract(g)
    A = d_g.contract(g).scalar_mul(Fraction(1, 2))
    return QuadDecomposition(e, f, g, A, d_g.delete(g), diff.delete(g))


def discriminant(Z: Polynomial, e: int, f: int, g: int) -> Polynomial:
    """B^2 - 4AC of the quadratic decomposition of diff(Z, e, f) in y_g."""
    return quad_decompose(Z, e, f, g).discriminant()


def _eight_minors(Z: Polynomial, e: int, f: int, g: int) -> tuple[Polynomial, ...]:
    """The eight contraction/deletion minors of Z at distinct {e, f, g}.

    Order: (Z_e^fg, Z_fg^e, Z_f^eg, Z_eg^f, Z_g^ef, Z_ef^g, Z_efg, Z^efg).
    """
    Ze, Zf, Zg = Z.contract(e), Z.contract(f), Z.contract(g)
    return (
        Ze.delete(f).delete(g),
        Zf.contract(g).delete(e),
        Zf.delete(e).delete(g),
        Ze.contract(g).delete(f),
        Zg.delete(e).delete(f),
        Ze.contract(f).delete(g),
        Ze.contract(f).contract(g),
        Z.delete(e).delete(f).delete(g),
    )


def discriminant_symmetric_form(Z: Polynomial, e: int, f: int, g: int) -> Polynomial:
    """The discriminant evaluated via its expanded form in the eight minors.

    Writing (p1..p8) = (Z_e^fg, Z_fg^e, Z_f^eg, Z_eg^f, Z_g^ef, Z_ef^g,
    Z_efg, Z^efg), the discriminant equals

        (p1 p2)^2 + (p3 p4)^2 + (p5 p6)^2 + (p7 p8)^2
        - 2 p1 p2 p3 p4 - 2 p1 p2 p5 p6 - 2 p3 p4 p5 p6
        - 2 (p1 p2 + p3 p4 + p5 p6) p7 p8
        + 4 p1 p3 p5 p7 + 4 p2 p4 p6 p8

    which is visibly symmetric under permutations of {e, f, g}.
    """
    if len({e, f, g}) != 3:
        raise ValueError("indices e, f, g must be distinct")
    if not Z.is_multiaffine():
        raise ValueError("symmetric discriminant form requires a multiaffine polynomial")
    p1, p2, p3, p4, p5, p6, p7, p8 = _eight_minors(Z, e, f, g)
    q12, q34, q56, q78 = p1 * p2, p3 * p4, p5 * p6, p7 * p8
    return sum_of_products(Z.m, (
        (1, q12, q12), (1, q34, q34), (1, q56, q56), (1, q78, q78),
        (-2, q12, q34), (-2, q12, q56), (-2, q34, q56),
        (-2, q12, q78), (-2, q34, q78), (-2, q56, q78),
        (4, p1 * p3, p5 * p7), (4, p2 * p4, p6 * p8)))
