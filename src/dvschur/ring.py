"""Even intersection ring of the very general fourfold and Chern calculus.

The working subring of rational even cohomology has the fixed basis
1; h = ch1(Q); h^2, ch2(Q); ch3(Q); pt (the point class), with the
multiplication table of the ambient quotient bundle's Chern characters
restricted to the fourfold.  All arithmetic is exact.

Chern characters of Schur functors of Q come from one route, the
splitting-principle oracle ``ch_oracle``: one integer pass over the weight
system takes the rank and the eleven weight moments of degree <= 4, and a
fixed integer combination of them gives each coordinate.  The combination is
the ring classes of the monomial symmetric functions of the Chern roots
(``MONOMIAL_CLASS`` in ``tests/test_ring.py``, proved there from the power
sums) divided by rho!; the per-partition sum over that table is the test's
definitional reference for the oracle.  The paper's closed polynomial
formulas in the canonical triple (m,t,s), with the degree-4 coefficient's
garbled quadratic term refitted exactly, live in ``tests/test_ring.py`` as a
second, independent reference.

The Chern character of an endomorphism bundle End E is the product
ch(E) * ch(E)^dual, one oracle call per bundle: ``ch_end`` takes any weight
and calls the oracle on its canonical form.  ``chi_endo`` skips both
products: chi(End E) on ch(E) = (o, h, h2, c2, c3, p) is the quadratic form
3o^2 + 2op + 11 h c3 + 1452 h2^2 + 198 h2 c2 + 15 c2^2 + 110 o h2 - 55 h^2
- 7/2 o c2 from the multiplication table and ``TODD``; the tests keep the
product route ``integrate(ch * ch.dual() * TODD)`` as its reference.  Neither
uses the Littlewood-Richardson split of End E: chi checks it and the chase.

Atomicity has one formula: ``extended_vector_candidate`` takes the extended
Mukai vector's r and ell = c h from the Mukai vector's degrees 0 and 2, and
s = (22c^2 - (15/2) r ch2) / (2r) from its degree-4 piece.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import isqrt

from .partitions import Weight, canonicalize, check_dominant, weyl_dim
from .schur import weight_system

Q = Fraction


class RingElement(namedtuple("RingElement", "one h h2 ch2 ch3 pt", defaults=(Q(0),) * 6)):
    """A class in the 6-dimensional subring: Fraction coefficients over the
    fixed basis, each 0 unless given.  A scalar multiplies from the left."""

    __slots__ = ()

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(
            self.one + other.one,
            self.h + other.h,
            self.h2 + other.h2,
            self.ch2 + other.ch2,
            self.ch3 + other.ch3,
            self.pt + other.pt,
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "RingElement":
        c = Q(scalar)
        return RingElement(
            c * self.one, c * self.h, c * self.h2, c * self.ch2, c * self.ch3, c * self.pt
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        a, b = self, other
        h3 = a.h * b.h2 + a.h2 * b.h      # h * h^2   = -264 ch3
        hc2 = a.h * b.ch2 + a.ch2 * b.h   # h * ch2   =  -18 ch3
        hc3 = a.h * b.ch3 + a.ch3 * b.h   # h * ch3   = -11/2 pt
        h2c2 = a.h2 * b.ch2 + a.ch2 * b.h2  # h^2 * ch2 = 99 pt
        return RingElement(
            one=a.one * b.one,
            h=a.one * b.h + a.h * b.one,
            h2=a.one * b.h2 + a.h2 * b.one + a.h * b.h,
            ch2=a.one * b.ch2 + a.ch2 * b.one,
            ch3=a.one * b.ch3 + a.ch3 * b.one - 264 * h3 - 18 * hc2,
            pt=(
                a.one * b.pt
                + a.pt * b.one
                - Q(11, 2) * hc3
                + 1452 * a.h2 * b.h2
                + 99 * h2c2
                + 15 * a.ch2 * b.ch2
            ),
        )

    def dual(self) -> "RingElement":
        """Chern character of the dual bundle: odd Chern degrees change sign."""
        return RingElement(self.one, -self.h, self.h2, self.ch2, -self.ch3, self.pt)


def integrate(a: RingElement) -> Fraction:
    """Evaluate against the fundamental class: the point-class coefficient."""
    return a.pt


ONE = RingElement(one=Q(1))
H = RingElement(h=Q(1))
H2 = RingElement(h2=Q(1))
CH2 = RingElement(ch2=Q(1))
CH3 = RingElement(ch3=Q(1))
PT = RingElement(pt=Q(1))

C2X = H2 - 8 * CH2                       # second Chern class of the fourfold
TODD = ONE + Q(1, 12) * C2X + 3 * PT
SQRT_TODD = ONE + Q(1, 24) * C2X + Q(25, 32) * PT
H_DUAL = -4 * CH3                        # h^3 = 66 h_dual; BBF pairing dual of h
BBF_SQUARE_H = 22                        # Beauville-Bogomolov-Fujiki square of h

@cache
def ch_oracle(lam: Weight) -> RingElement:
    """Chern character of Sigma_lam Q by the splitting principle.

    Sums exp(w . x) over the weight system, truncated in degree 4: the
    coefficient of the monomial orbit m_rho is M_rho / rho!, with the integer
    moment M_rho = sum(mult * w^rho).  One pass over the weights takes the
    rank and the eleven moments from shared partial products (k a, k a a,
    k a b, ...); each coordinate is then a fixed integer combination of them,
    read off the ring classes of the m_rho over rho!.  Those classes
    (``MONOMIAL_CLASS``) and the per-rho sum over them, the reference this
    is tested against, live in ``tests/test_ring.py``.  Normative ground
    truth for the closed formulas.
    """
    lam = check_dominant(lam, 4)
    r = m1 = m2 = m11 = m3 = m21 = m111 = 0
    m4 = m31 = m22 = m211 = m1111 = 0
    for (a, b, c, d), k in weight_system(lam):
        ka = k * a
        kaa = ka * a
        kab = ka * b
        kaaa = kaa * a
        kaab = kaa * b
        kabc = kab * c
        r += k
        m1 += ka
        m2 += kaa
        m11 += kab
        m3 += kaaa
        m21 += kaab
        m111 += kabc
        m4 += kaaa * a
        m31 += kaaa * b
        m22 += kaab * b
        m211 += kaab * c
        m1111 += kabc * d
    return RingElement(
        one=Q(r),
        h=Q(m1),
        h2=Q(m11, 2),
        ch2=Q(m2 - m11),
        ch3=Q(m3 - 21 * m21 - 24 * m111),
        pt=Q(-m4 - 18 * m31 + 33 * m22 + 192 * m211 + 36 * m1111, 4),
    )


# ---------------------------------------------------------------------------
# endomorphism bundles: Euler characteristics, discriminant, atomicity


def ch_end(lam: Weight) -> RingElement:
    """Chern character of End(Sigma_lam Q) as ch(E) * ch(E)^dual.

    One oracle call, on the canonical weight (End E ignores twists and duals);
    the sum over the Littlewood-Richardson pieces is checked in the tests.
    """
    ch = ch_oracle(canonicalize(lam).weight)
    return ch * ch.dual()


def chi_endo(lam: Weight) -> int:
    """Euler characteristic of End(Sigma_lam Q) by Hirzebruch-Riemann-Roch.

    The pairing's p, c3, h2^2, h2 c2, c2^2 terms are the point class of
    ch * ch^dual by the multiplication table; 3o^2 + 110 o h2 - 55 h^2 - 7/2 o c2
    pairs its one, h2 and ch2 with ``TODD``.  Times 4 it is an integer form.
    """
    ch = ch_oracle(canonicalize(lam).weight)
    o, h, c2, c3, h2, p = map(int, (ch.one, ch.h, ch.ch2, ch.ch3, 2 * ch.h2, 4 * ch.pt))
    chi, rest = divmod(12 * o * o + 2 * o * p + 44 * h * c3 + 1452 * h2 * h2 + 396 * h2 * c2
                       + 60 * c2 * c2 + 220 * o * h2 - 220 * h * h - 14 * o * c2, 4)
    if rest:
        raise ArithmeticError(f"Euler characteristic not integral at {lam}")
    return chi


def discriminant(lam: Weight) -> RingElement:
    """Discriminant of Sigma_lam Q: minus the degree-4 part of ch(End)."""
    ch = ch_end(lam)
    return RingElement(h2=-ch.h2, ch2=-ch.ch2)


def c2x_multiple(x: RingElement) -> Fraction:
    """Express a degree-4 class as a multiple of c2(X); raises if it is not one."""
    coeff = x.h2
    if x != coeff * C2X:
        raise ValueError(f"{x} is not a multiple of the second Chern class")
    return coeff


def xi_end_integral(lam: Weight) -> Fraction:
    """Integral of the degree-8 part of ch(End(Sigma_lam Q))."""
    return integrate(ch_end(lam))


def mukai_vector(lam: Weight) -> RingElement:
    """ch(Sigma_lam Q) times the square root of the Todd class."""
    return ch_oracle(check_dominant(lam, 4)) * SQRT_TODD


class ExtendedMukaiVector(namedtuple("ExtendedMukaiVector", "r ell s")):
    """(r, ell, s) with ell a degree-2 class; q(v) = q(ell) - 2 r s."""

    __slots__ = ()

    def q_square(self) -> Fraction:
        return BBF_SQUARE_H * self.ell.h**2 - 2 * self.r * self.s


def verbitsky_projection(v: ExtendedMukaiVector) -> RingElement:
    """Projection of v * v to the subring generated by degree-2 classes.

    degree 4: (1/2r)(ell^2 - (q(v)/30) c2(X)); degree 6: (s/r) ell-dual;
    degree 8: s^2/(2r) times the point class.
    """
    qt = v.q_square()
    deg4 = Q(1, 2) / v.r * (v.ell * v.ell - (qt / 30) * C2X)
    deg6 = (v.s / v.r) * (v.ell.h * H_DUAL)
    deg8 = (v.s * v.s / (2 * v.r)) * PT
    return v.r * ONE + v.ell + deg4 + deg6 + deg8


def extended_vector_candidate(lam: Weight) -> ExtendedMukaiVector | None:
    """The only extended vector whose projection could be the Mukai vector,
    or None when its projection is not the Mukai vector (not atomic).

    The projection's degree-4 piece (ell^2 - (q/30) c2(X))/(2r) has ch2
    coordinate 2q/(15r), q = 22c^2 - 2rs, of slope -4/15 in s: equal to the
    Mukai vector's ch2 only at s = (22c^2 - (15/2) r ch2) / (2r).
    """
    v = mukai_vector(lam)
    r, c = v.one, v.h
    s = (BBF_SQUARE_H * c * c - Q(15, 2) * r * v.ch2) / (2 * r)
    cand = ExtendedMukaiVector(r, c * H, s)
    return cand if verbitsky_projection(cand) == v else None


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


AtomicityReport = namedtuple(
    "AtomicityReport",
    "lam canonical rank chi ratio necessary_pass sym_certificate atomic",
)


def atomicity_report(lam: Weight) -> AtomicityReport:
    """Atomicity test for Sigma_lam Q.

    Checks the rational-square necessary condition on chi(End)/(3 r^2) and
    looks for the extended-Mukai-vector certificate
    (``extended_vector_candidate``); ``sym_certificate`` records whether it
    was found for symmetric powers (canonical triples with t = s = 0) and is
    None elsewhere.  Atomic holds exactly for the symmetric powers, for every
    weight by the proofs in ``tests/test_ring.py``: the certificate exists
    exactly there, where chi(End) = 3 g(m)^2 passes the square test.
    """
    lam = check_dominant(lam, 4)
    c = canonicalize(lam)
    r = weyl_dim(c.weight)
    chi = chi_endo(lam)
    ratio = Q(chi, 3 * r * r)
    necessary = is_rational_square(ratio)
    found = extended_vector_candidate(c.weight) is not None
    certificate = found if c.t == c.s == 0 else None
    atomic = necessary and found
    return AtomicityReport(lam, c, r, chi, ratio, necessary, certificate, atomic)
