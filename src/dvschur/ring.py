"""Even intersection ring of the very general fourfold and Chern calculus.

The working subring of rational even cohomology has the fixed basis
1; h = ch1(Q); h^2, ch2(Q); ch3(Q); pt (the point class), with the
multiplication table of the ambient quotient bundle's Chern characters
restricted to the fourfold.  All arithmetic is exact.

Two independent routes compute Chern characters of Schur functors of Q:
the splitting-principle oracle (normative: weight-system moments times the
fixed ring classes ``MONOMIAL_CLASS`` of the monomial symmetric functions)
and closed polynomial formulas in the canonical triple (m,t,s).  The degree-4
closed coefficient's published quadratic term is garbled; its exact refit
against the oracle is the constant ``ALPHA2``.

The Chern character of an endomorphism bundle End E is the product
ch(E) * ch(E)^dual, one oracle call per bundle: ``ch_end`` takes any weight
and calls the oracle on its canonical form.  It does not use the
Littlewood-Richardson split of End E, so Euler characteristics computed
from it are an independent check on that split and on the chase; the
per-summand sum over the split is kept as a test (``tests/test_ring.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, isqrt, prod

from .partitions import (
    CanonicalQPartition,
    Weight,
    canonicalize,
    check_dominant,
    weyl_dim,
)
from .schur import weight_system

Q = Fraction


@dataclass(frozen=True)
class RingElement:
    """A class in the 6-dimensional subring, coefficients over the fixed basis."""

    one: Fraction = Q(0)
    h: Fraction = Q(0)
    h2: Fraction = Q(0)
    ch2: Fraction = Q(0)
    ch3: Fraction = Q(0)
    pt: Fraction = Q(0)

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

    def __mul__(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            return other * self
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
CH4_CLASS = Q(-1, 4) * PT                # ch4(Q) integrates to -1/4
TODD = ONE + Q(1, 12) * C2X + 3 * PT
SQRT_TODD = ONE + Q(1, 24) * C2X + Q(25, 32) * PT
H_DUAL = -4 * CH3                        # h^3 = 66 h_dual; BBF pairing dual of h
BBF_SQUARE_H = 22                        # Beauville-Bogomolov-Fujiki square of h

# Ring class of the monomial symmetric function m_rho of the Chern roots of Q,
# for every partition rho of degree <= 4.  These are fixed by the power sums
# p1 = h, p2 = 2 ch2, p3 = 6 ch3, p4 = 24 ch4(Q) (Newton's identities in four
# variables); ``tests/test_ring.py`` expands each product of power sums into
# monomials and checks it against this table.
MONOMIAL_CLASS = {
    (1,): H,
    (2,): 2 * CH2, (1, 1): Q(1, 2) * H2 - CH2,
    (3,): 6 * CH3, (2, 1): -42 * CH3, (1, 1, 1): -24 * CH3,
    (4,): -6 * PT, (3, 1): -27 * PT, (2, 2): 33 * PT,
    (2, 1, 1): 96 * PT, (1, 1, 1, 1): 9 * PT,
}


@cache
def ch_oracle(lam: Weight) -> RingElement:
    """Chern character of Sigma_lam Q by the splitting principle.

    Sums exp(w . x) over the weight system, truncated in degree 4: the
    coefficient of the monomial orbit m_rho is the weight moment
    sum(mult * w^rho) / rho!, and m_rho has the ring class
    ``MONOMIAL_CLASS[rho]``.  Normative ground truth for the closed formulas.
    """
    lam = check_dominant(lam, 4)
    ws = weight_system(lam)
    total = RingElement(one=Q(sum(mult for _, mult in ws)))
    for rho, cls in MONOMIAL_CLASS.items():
        moment = 0
        for w, mult in ws:
            term = mult
            for x, e in zip(w, rho):
                term *= x**e
            moment += term
        total = total + Q(moment, prod(map(factorial, rho))) * cls
    return total


# ---------------------------------------------------------------------------
# closed-form Chern polynomials in the canonical triple (m, t, s)


def rank_poly(m: int, t: int, s: int) -> int:
    num = (m + 3) * (t + 2) * (s + 1) * (m - t + 1) * (m - s + 2) * (t - s + 1)
    dim, rem = divmod(num, 12)
    if rem:
        raise ArithmeticError(f"rank polynomial not integral at {(m, t, s)}")
    return dim


def ell_poly(m, t, s) -> Fraction:
    return Q(m + t + s, 4)


def delta_poly(m, t, s) -> Fraction:
    return Q(
        3 * m * m - 2 * m * t - 2 * m * s + 3 * t * t + 3 * s * s - 2 * t * s
        + 12 * m + 4 * t - 4 * s,
        60,
    )


def tau_poly(m, t, s) -> Fraction:
    return 15 * delta_poly(m, t, s) - 44 * ell_poly(m, t, s) ** 2


def alpha3(t, s):
    return -60 * t - 60 * s + 30


def alpha1(t, s):
    return (
        -60 * t**3 - 241 * t**2 * s - 241 * t * s**2 - 60 * s**3
        + 65 * t**2 + 78 * t * s + 4 * s**2 - t + 8 * s + 6
    )


def alpha0(t, s):
    return (
        -10 * t**4 - 60 * t**3 * s - 109 * t**2 * s**2 - 60 * t * s**3 - 10 * s**4
        + 10 * t**3 + 19 * t**2 * s - 19 * t * s**2 - 10 * s**3
        + 3 * t**2 - 13 * t * s + 3 * s**2 + 14 * t - 14 * s
    )


# (A, B, C, D, E, F) of alpha2(t,s) = A t^2 + B t s + C s^2 + D t + E s + F,
# refitted exactly from the oracle (``test_closed_matches_oracle`` pins all
# six): the published s-coefficient is garbled and refits to 80.
ALPHA2 = (-109, -241, -109, 103, 80, -21)


def alpha2(t, s):
    a, b, c, d, e, f = ALPHA2
    return a * t * t + b * t * s + c * s * s + d * t + e * s + f


def xi_poly(m, t, s) -> Fraction:
    return Q(
        -10 * m**4
        + alpha3(t, s) * m**3
        + alpha2(t, s) * m**2
        + alpha1(t, s) * m
        + alpha0(t, s),
        20,
    )


def ch_closed(c: CanonicalQPartition) -> RingElement:
    """Chern character assembled from the closed polynomials r, ell, delta,
    tau and xi; must agree with the oracle on every canonical triple."""
    m, t, s = c.m, c.t, c.s
    r = rank_poly(m, t, s)
    ell = ell_poly(m, t, s)
    delta = delta_poly(m, t, s)
    return (
        r * ONE
        + ell * r * H
        + (delta * r) * CH2
        + (Q(1, 2) * (ell * ell - delta / 4) * r) * H2
        + (tau_poly(m, t, s) * ell * r) * CH3
        + (xi_poly(m, t, s) * r) * CH4_CLASS
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
    """Euler characteristic of End(Sigma_lam Q) by Hirzebruch-Riemann-Roch."""
    chi = integrate(ch_end(lam) * TODD)
    if chi.denominator != 1:
        raise ArithmeticError(f"Euler characteristic not integral at {lam}")
    return int(chi)


def chi_endo_closed(m: int, t: int, s: int) -> int:
    """Closed form of the same Euler characteristic from the Chern polynomials."""
    r = rank_poly(m, t, s)
    ell = ell_poly(m, t, s)
    delta = delta_poly(m, t, s)
    xi = xi_poly(m, t, s)
    val = 3 * (
        1
        + (-276 * delta - 1936 * ell**4 + 1320 * delta * ell**2 + 207 * delta**2 - 8 * xi)
        / 48
    ) * r * r
    if val.denominator != 1:
        raise ArithmeticError(f"closed Euler characteristic not integral at {(m, t, s)}")
    return int(val)


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


@dataclass(frozen=True)
class ExtendedMukaiVector:
    """(r, ell, s) with ell a degree-2 class; q(v) = q(ell) - 2 r s."""

    r: Fraction
    ell: RingElement
    s: Fraction

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


def sym_extended_vector(m: int) -> ExtendedMukaiVector:
    """Extended Mukai vector certifying atomicity of the m-th symmetric power."""
    r = Q(rank_poly(m, 0, 0))
    return ExtendedMukaiVector(
        r, Q(m, 4) * r * H, Q(2 * m * m - 3 * m + 5, 4) * r
    )


def extended_vector_candidate(lam: Weight) -> ExtendedMukaiVector | None:
    """The only extended vector whose projection could be the Mukai vector.

    The projection's degree-6 piece pins the scalar component (degree 8 pins
    it up to sign when the degree-2 piece vanishes); returns None when the
    resulting projection does not reproduce the Mukai vector, i.e. when the
    bundle is not atomic.
    """
    v = mukai_vector(lam)
    r = v.one
    c = v.h
    if c:
        s = -v.ch3 * r / (4 * c)  # ell-dual carries -4 ch3 per unit of ell
        candidates = [ExtendedMukaiVector(r, c * H, s)]
    else:
        square = 2 * r * v.pt
        if not is_rational_square(square):
            return None
        root = Q(isqrt(square.numerator), isqrt(square.denominator))
        candidates = [ExtendedMukaiVector(r, RingElement(), sign * root)
                      for sign in (1, -1)]
    for cand in candidates:
        if verbitsky_projection(cand) == v:
            return cand
    return None


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


@dataclass(frozen=True)
class AtomicityReport:
    lam: Weight
    canonical: CanonicalQPartition
    rank: int
    chi: int
    ratio: Fraction
    necessary_pass: bool
    sym_certificate: bool | None
    atomic: bool


def atomicity_report(lam: Weight) -> AtomicityReport:
    """Atomicity test for Sigma_lam Q.

    Checks the rational-square necessary condition on chi(End)/(3 r^2) and
    attempts the extended-Mukai-vector certificate; ``sym_certificate``
    additionally records the explicit closed-form vector for symmetric
    powers (canonical triples with t = s = 0).  Atomic holds exactly for
    the symmetric powers: away from them either the square test or the
    certificate fails.
    """
    lam = check_dominant(lam, 4)
    c = canonicalize(lam)
    r = weyl_dim(4, c.weight)
    chi = chi_endo(lam)
    ratio = Q(chi, 3 * r * r)
    necessary = is_rational_square(ratio)
    certificate = None
    if c.t == 0 and c.s == 0:
        projected = verbitsky_projection(sym_extended_vector(c.m))
        certificate = projected == mukai_vector(c.weight)
    atomic = necessary and extended_vector_candidate(c.weight) is not None
    if certificate is not None:
        atomic = atomic and certificate
    return AtomicityReport(lam, c, r, chi, ratio, necessary, certificate, atomic)
