"""Rayleigh differences and their quadratic decomposition.

For a polynomial Z over y1..ym and distinct indices e, f the Rayleigh
difference is

    diff(Z, e, f) = Z_e * Z_f - Z_ef * Z

where subscripts are partial derivatives.  For multiaffine Z the same
value equals Z_e^f * Z_f^e - Z_ef * Z^ef in contraction/deletion minors.

Viewed as a quadratic in a third variable y_g,

    diff(Z, e, f) = A*y_g^2 + B*y_g + C

with A, B, C expressible in the eight minors of Z at {e, f, g}.  The
discriminant B^2 - 4AC is symmetric in {e, f, g}; both the direct form
and the fully expanded symmetric form are implemented and cross-checked
in tests (the expanded form is long and transcription-prone, so neither
implementation is trusted alone).
"""

from __future__ import annotations

from dataclasses import dataclass

from hppcheck.polynomial import Polynomial


def rayleigh_diff(Z: Polynomial, e: int, f: int) -> Polynomial:
    """Z_e*Z_f - Z_ef*Z, valid for arbitrary polynomials."""
    if e == f:
        raise ValueError("Rayleigh difference needs two distinct indices")
    Ze = Z.contract(e)
    Zf = Z.contract(f)
    Zef = Ze.contract(f)
    return Ze * Zf - Zef * Z


def rayleigh_diff_multiaffine(Z: Polynomial, e: int, f: int) -> Polynomial:
    """Minor form Z_e^f*Z_f^e - Z_ef*Z^ef; requires Z multiaffine."""
    if e == f:
        raise ValueError("Rayleigh difference needs two distinct indices")
    if not Z.is_multiaffine():
        raise ValueError("minor form requires a multiaffine polynomial")
    Ze = Z.contract(e)
    return Ze.delete(f) * Z.contract(f).delete(e) \
        - Ze.contract(f) * Z.delete(e).delete(f)


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
        return self.B * self.B - self.A * self.C * 4

    def recombine(self) -> Polynomial:
        """A*y_g^2 + B*y_g + C on the common ground set."""
        yg = Polynomial.variable(self.A.m, self.g)
        return self.A * yg * yg + self.B * yg + self.C


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


def quad_decompose(Z: Polynomial, e: int, f: int, g: int) -> QuadDecomposition:
    """Decompose diff(Z, e, f) as a quadratic in y_g via the minor formulas.

    Requires Z multiaffine and e, f, g distinct.  The defining identity
    A*y_g^2 + B*y_g + C == diff(Z, e, f) is re-checked internally.
    """
    if len({e, f, g}) != 3:
        raise ValueError("indices e, f, g must be distinct")
    if not Z.is_multiaffine():
        raise ValueError("quadratic decomposition requires a multiaffine polynomial")
    p_e_fg, p_fg_e, p_f_eg, p_eg_f, p_g_ef, p_ef_g, p_efg, p_del = \
        _eight_minors(Z, e, f, g)
    A = p_eg_f * p_fg_e - p_efg * p_g_ef
    B = p_e_fg * p_fg_e + p_f_eg * p_eg_f - p_g_ef * p_ef_g - p_efg * p_del
    C = p_e_fg * p_f_eg - p_ef_g * p_del
    dec = QuadDecomposition(e=e, f=f, g=g, A=A, B=B, C=C)
    if dec.recombine() != rayleigh_diff(Z, e, f):
        raise RuntimeError(
            "internal error: quadratic decomposition does not recombine to the "
            "Rayleigh difference")
    return dec


def discriminant(Z: Polynomial, e: int, f: int, g: int) -> Polynomial:
    """B^2 - 4AC of the quadratic decomposition of diff(Z, e, f) in y_g."""
    return quad_decompose(Z, e, f, g).discriminant()


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
    return (
        q12 * q12 + q34 * q34 + q56 * q56 + q78 * q78
        - 2 * (q12 * q34) - 2 * (q12 * q56) - 2 * (q34 * q56)
        - 2 * ((q12 + q34 + q56) * q78)
        + 4 * (p1 * p3 * p5 * p7) + 4 * (p2 * p4 * p6 * p8)
    )
