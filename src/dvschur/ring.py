"""Even intersection ring of the very general fourfold and Chern calculus.

The working subring of rational even cohomology has the fixed basis
1; h = ch1(Q); h^2, ch2(Q); ch3(Q); pt (the point class), with the
multiplication table of the ambient quotient bundle's Chern characters
restricted to the fourfold.  All arithmetic is exact.

Two independent routes compute Chern characters of Schur functors of Q:
the splitting-principle oracle (weight enumeration, normative) and closed
polynomial formulas in the canonical triple (m,t,s).  The degree-4 closed
coefficient is refitted from the oracle because its published quadratic
term is garbled; see ``alpha2_coefficients``.

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
from math import factorial, isqrt

from .partitions import (
    CanonicalQPartition,
    Weight,
    canonicalize,
    check_dominant,
    is_dominant,
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

# power sums of the Chern roots of Q, as ring classes
_POWER_SUM = {1: H, 2: 2 * CH2, 3: 6 * CH3, 4: 24 * CH4_CLASS}


@cache
def _partitions(d: int) -> tuple[Weight, ...]:
    """The partitions of d <= 4: the dominant weights of Sym^d Q, zeros dropped."""
    return tuple(
        tuple(x for x in w if x) for w, _ in weight_system((d, 0, 0, 0)) if is_dominant(w)
    )


@cache
def _monomial_solver(d: int):
    """Invertible system expressing a symmetric polynomial of degree d <= 4
    in four variables through products of power sums.

    Returns (partitions pi of d, matrix rows indexed by the same partitions
    viewed as sorted exponent vectors, columns by pi).
    """
    parts = _partitions(d)

    def poly_mul(f, g):
        out = {}
        for ea, ca in f.items():
            for eb, cb in g.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return out

    def power_poly(k):
        out = {}
        for i in range(4):
            e = [0, 0, 0, 0]
            e[i] = k
            out[tuple(e)] = 1
        return out

    matrix = []
    for rho in parts:  # row: monomial orbit with sorted exponents rho
        row = []
        alpha = tuple(rho) + (0,) * (4 - len(rho))
        for pi in parts:  # column: power-sum product p_pi
            poly = {(0, 0, 0, 0): 1}
            for k in pi:
                poly = poly_mul(poly, power_poly(k))
            row.append(Q(poly.get(alpha, 0)))
        matrix.append(row)
    return parts, matrix


def _solve(matrix, vector):
    n = len(vector)
    aug = [row[:] + [vector[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


@cache
def _power_sum_product(pi: Weight) -> RingElement:
    """The product of the power sums p_k of the Chern roots over the parts k of pi."""
    piece = ONE
    for k in pi:
        piece = piece * _POWER_SUM[k]
    return piece


@cache
def ch_oracle(lam: Weight) -> RingElement:
    """Chern character of Sigma_lam Q by the splitting principle.

    Sums exp(w . x) over the weight system, truncated in degree 4, rewrites
    each graded piece in power sums of the Chern roots and evaluates it in
    the ring.  Normative ground truth for the closed formulas.
    """
    lam = check_dominant(lam, 4)
    ws = weight_system(lam)
    total = RingElement(one=Q(sum(mult for _, mult in ws)))
    for d in range(1, 5):
        parts, matrix = _monomial_solver(d)
        vector = []
        for rho in parts:
            alpha = tuple(rho) + (0,) * (4 - len(rho))
            moment = 0
            for w, mult in ws:
                term = mult
                for base_w, e in zip(w, alpha):
                    if e:
                        term *= base_w**e
                moment += term
            denom = 1
            for r in rho:
                denom *= factorial(r)
            vector.append(Q(moment, denom))
        coeffs = _solve(matrix, vector)
        for pi, c in zip(parts, coeffs):
            if not c:
                continue
            total = total + c * _power_sum_product(pi)
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


def xi_oracle(m: int, t: int, s: int) -> Fraction:
    """Degree-4 Chern coefficient from the oracle, in units of rank * ch4(Q)."""
    lam = (m, t, s, 0)
    r = weyl_dim(4, lam)
    return ch_oracle(lam).pt / (Q(-1, 4) * r)


def _alpha2_value(m: int, t: int, s: int) -> Fraction:
    xi = xi_oracle(m, t, s)
    return Q(
        20 * xi + 10 * m**4 - alpha3(t, s) * m**3 - alpha1(t, s) * m - alpha0(t, s),
        m * m,
    )


@cache
def alpha2_coefficients() -> tuple[Fraction, ...]:
    """Quadratic coefficients (A,B,C,D,E,F) of the degree-4 correction term
    alpha2(t,s) = A t^2 + B t s + C s^2 + D t + E s + F.

    Refitted exactly from the splitting-principle oracle on six canonical
    triples (the published quadratic is garbled); each sample is checked at
    two values of m.
    """
    samples = [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]
    values = []
    rows = []
    for t, s in samples:
        m = max(t + s, 1)
        val = _alpha2_value(m, t, s)
        if val != _alpha2_value(m + 1, t, s) or val != _alpha2_value(m + 2, t, s):
            raise ArithmeticError(
                f"degree-4 coefficient at (t,s)={(t, s)} is not quadratic in m"
            )
        values.append(val)
        rows.append([Q(t * t), Q(t * s), Q(s * s), Q(t), Q(s), Q(1)])
    return tuple(_solve(rows, values))


def alpha2(t, s) -> Fraction:
    a, b, c, d, e, f = alpha2_coefficients()
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
