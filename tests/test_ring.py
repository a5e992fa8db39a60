import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dvschur.partitions import CanonicalQPartition, dual, weyl_dim
from dvschur.ring import (
    ExtendedMukaiVector,
    extended_vector_candidate,
    C2X,
    CH2,
    CH3,
    H,
    H2,
    H_DUAL,
    MONOMIAL_CLASS,
    ONE,
    PT,
    SQRT_TODD,
    TODD,
    RingElement,
    atomicity_report,
    c2x_multiple,
    ch_end,
    ch_oracle,
    chi_endo,
    discriminant,
    integrate,
    is_rational_square,
    mukai_vector,
    verbitsky_projection,
    weight_system,
    xi_end_integral,
)
from dvschur.schur import end_decomposition


Q = Fraction
CH4_CLASS = Q(-1, 4) * PT                # ch4(Q) integrates to -1/4


# ---------------------------------------------------------------------------
# closed-form Chern polynomials in the canonical triple (m, t, s): the paper's
# formulas, kept here as the reference for ``ch_oracle``; test_ext and
# test_acceptance import them


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


def canonical_triples(max_m):
    for m in range(max_m + 1):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s <= m:
                    yield m, t, s


def test_multiplication_table():
    assert H * H == H2
    assert H * H2 == -264 * CH3
    assert H * CH2 == -18 * CH3
    assert H * CH3 == Q(-11, 2) * PT
    assert H2 * H2 == 1452 * PT
    assert H2 * CH2 == 99 * PT
    assert CH2 * CH2 == 15 * PT
    assert H2 * CH3 == RingElement()  # degree > 8
    assert ONE * CH3 == CH3


def test_published_intersection_numbers():
    assert integrate(H * (H * H2)) == 1452
    assert integrate(C2X * C2X) == 828
    assert integrate((H * H) * CH2) == 99
    assert integrate(H * CH3) == Q(-11, 2)
    assert H * H2 == 66 * H_DUAL  # h^3 = 66 h-dual
    assert integrate(PT) == 1
    assert integrate(CH4_CLASS) == Q(-1, 4)
    assert integrate(H2) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=18, max_size=18))
def test_ring_axioms(coeffs):
    def elem(cs):
        return RingElement(*[Q(c) for c in cs])

    a, b, c = elem(coeffs[:6]), elem(coeffs[6:12]), elem(coeffs[12:])
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def partitions_of(d, largest=None):
    """The partitions of d, parts in decreasing order."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in partitions_of(d - first, first):
            yield (first,) + rest


def test_monomial_classes_match_power_sums():
    # expand p_pi = prod_k (x1^k + ... + x4^k) into monomial orbits m_rho: the
    # table's classes must add up to the product of the power-sum classes
    power_sum = {1: H, 2: 2 * CH2, 3: 6 * CH3, 4: 24 * CH4_CLASS}
    pis = [pi for d in range(1, 5) for pi in partitions_of(d)]
    assert len(pis) == 11 and set(MONOMIAL_CLASS) == set(pis)
    for pi in pis:
        poly = Counter({(0, 0, 0, 0): 1})
        want = ONE
        for k in pi:
            step = Counter()
            for e, c in poly.items():
                for i in range(4):
                    step[e[:i] + (e[i] + k,) + e[i + 1:]] += c
            poly = step
            want = want * power_sum[k]
        got = RingElement()
        for e, c in poly.items():
            if list(e) == sorted(e, reverse=True):  # one monomial per orbit
                got = got + c * MONOMIAL_CLASS[tuple(x for x in e if x)]
        assert got == want, pi


def test_ch_oracle_standard():
    assert ch_oracle((1, 0, 0, 0)) == RingElement(Q(4), Q(1), Q(0), Q(1), Q(1), Q(-1, 4))


def test_ch_oracle_symmetric_powers():
    # closed coefficients of the symmetric powers, all degrees
    for m in range(1, 7):
        r = rank_poly(m, 0, 0)
        got = ch_oracle((m, 0, 0, 0))
        assert got.one == r
        assert got.h == Q(m, 4) * r
        assert got.h2 == Q(m * m - m, 40) * r
        assert got.ch2 == Q(m * m + 4 * m, 20) * r
        assert got.ch3 == -Q(2 * m**3 - 3 * m**2, 4) * r
        assert got.pt == -Q(10 * m**4 - 30 * m**3 + 21 * m**2 - 6 * m, 20) * r * Q(-1, 4)


def test_weight_system_counts():
    for lam in [(2, 1, 0, 0), (3, 2, 1, 0), (1, 0, 0, -1)]:
        total = sum(mult for _, mult in weight_system(lam))
        assert total == weyl_dim(lam)


def simplex(d):
    """The points of N^3 with coordinate sum <= d, C(d + 3, 3) of them.

    They are unisolvent for degree d: a polynomial of degree <= d in three
    variables that vanishes on them is zero.  In the basis of products of
    binomials C(x, i) C(y, j) C(z, k) with i + j + k <= d, its values there
    form a triangular system (Newton's forward differences), so every
    coefficient is zero.
    """
    return [(x, y, n - x - y) for n in range(d + 1)
            for x in range(n + 1) for y in range(n - x + 1)]


def difference(values):
    """The last finite difference of equally spaced values: zero when they are
    a polynomial of degree < len(values) - 1 in the step."""
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


CLOSED_DEGREES = {"one": 6, "h": 7, "ch2": 8, "h2": 8, "ch3": 9, "pt": 10}


def test_closed_forms_have_their_degrees():
    # r is a product of six linear factors, ell has degree 1, delta and tau 2
    # and xi 4, so the coordinates r, ell r, delta r, (ell^2 - delta/4) r,
    # tau ell r and xi r of ch_closed have the degrees CLOSED_DEGREES lists.
    # On a line in a direction where the top-degree part does not vanish, a
    # polynomial has the same degree; seeded random directions find one.
    rng = random.Random(24)
    for _ in range(4):
        start = [rng.randrange(4) for _ in range(3)]
        step = [rng.randrange(1, 6) for _ in range(3)]
        line = [[a + k * b for a, b in zip(start, step)] for k in range(12)]
        chs = [ch_closed(CanonicalQPartition(u + v + 2 * s, v + s, s)) for u, v, s in line]
        for name, d in CLOSED_DEGREES.items():
            values = [getattr(ch, name) for ch in chs]
            assert difference(values[:d + 1]) != 0, (name, step)
            assert difference(values[:d + 2]) == 0, (name, step)


def test_closed_matches_oracle():
    # A proof, not a sample.  ch_k of the oracle is a Taylor coefficient of
    # the Weyl character, a polynomial in lambda of degree <= 6 + k on the
    # dominant weights (Fulton-Harris, section 24); the closed forms have
    # degree <= 10 (test_closed_forms_have_their_degrees).  m = u + v + 2s,
    # t = v + s maps N^3 linearly onto the canonical triples, so the
    # difference is a polynomial of degree <= 10 in (u, v, s) that vanishes
    # on the unisolvent simplex(10): it vanishes on every canonical triple.
    # This also proves ALPHA2's refitted coefficients.
    points = simplex(max(CLOSED_DEGREES.values()))
    assert len(points) == 286
    for u, v, s in points:
        c = CanonicalQPartition(u + v + 2 * s, v + s, s)
        assert ch_closed(c) == ch_oracle(c.weight), (u, v, s)


def test_every_schur_functor_is_modular():
    # The paper's modularity theorem, proved within the ring model: the
    # discriminant, the degree-2 part of ch(E) ch(E)^dual, is a multiple of
    # c2(X) = h^2 - 8 ch2, i.e. its defect ch2 + 8 h^2 is zero.  Each
    # coordinate of that part sums ch_i(E) ch_j(E^*) over i + j = 2, of degree
    # <= (6 + i) + (6 + j) = 14 in lambda.  lambda = (a+b+c, b+c, c, 0) maps N^3
    # linearly onto the dominant weights with last entry 0, and twisting E
    # leaves End E alone, so a zero defect on the unisolvent simplex(14)
    # proves it for every Schur functor of Q.
    points = simplex(14)
    assert len(points) == 680
    for a, b, c in points:
        ch = ch_oracle((a + b + c, b + c, c, 0))
        end = ch * ch.dual()
        assert end.ch2 + 8 * end.h2 == 0, (a, b, c)


def test_degree012_closed_forms():
    for m, t, s in canonical_triples(6):
        r = rank_poly(m, t, s)
        ell = ell_poly(m, t, s)
        delta = delta_poly(m, t, s)
        got = ch_oracle((m, t, s, 0))
        assert got.one == r
        assert got.h == ell * r
        assert got.ch2 == delta * r
        assert got.h2 == Q(1, 2) * (ell * ell - delta / 4) * r


def test_tau_is_combination():
    for m, t, s in canonical_triples(5):
        assert tau_poly(m, t, s) == 15 * delta_poly(m, t, s) - 44 * ell_poly(m, t, s) ** 2


def test_discriminant_is_multiple_of_c2():
    for lam, want in [
        ((1, 0, 0, 0), Q(1)),
        ((1, 1, 0, 0), Q(3)),
        ((3, 2, 1, 0), Q(1024)),
    ]:
        coeff = c2x_multiple(discriminant(lam))
        assert coeff == want
    for m, t, s in canonical_triples(5):
        coeff = c2x_multiple(discriminant((m, t, s, 0)))
        r = rank_poly(m, t, s)
        assert coeff == delta_poly(m, t, s) / 4 * r * r, (m, t, s)


def test_discriminant_symmetric_powers():
    for m in range(1, 7):
        r = rank_poly(m, 0, 0)
        assert c2x_multiple(discriminant((m, 0, 0, 0))) == Q(m * m + 4 * m, 80) * r * r


def test_chi_examples():
    assert chi_endo((1, 0, 0, 0)) == 3
    assert chi_endo((1, 1, 0, 0)) == -36
    assert chi_endo((2, 0, 0, 0)) == 192
    for m in range(7):
        r = rank_poly(m, 0, 0)
        want = 3 * Q(3 * m * m + 12 * m - 20, 20) ** 2 * r * r
        assert want.denominator == 1
        assert chi_endo((m, 0, 0, 0)) == want


def test_chi_closed_matches_hrr():
    for m, t, s in canonical_triples(10):
        assert chi_endo((m, t, s, 0)) == chi_endo_closed(m, t, s), (m, t, s)
    assert chi_endo((18, 0, 0, 0)) == chi_endo_closed(18, 0, 0)


def test_ch_end_matches_sum_over_summands():
    # ch(End E) = ch(E) ch(E)^dual against the sum over the Littlewood-Richardson
    # pieces of End E, in all six coordinates, also from the dual weight;
    # and the dual of a Chern character is the oracle on the dual weight
    for m, t, s in canonical_triples(5):
        lam = (m, t, s, 0)
        pieces = RingElement()
        for summand in end_decomposition(CanonicalQPartition(m, t, s)):
            weight = tuple(x + summand.twist for x in summand.q_weight)
            pieces = pieces + summand.multiplicity * ch_oracle(weight)
        assert pieces == ch_end(lam) == ch_end(dual(lam)), (m, t, s)
        assert ch_oracle(lam).dual() == ch_oracle(dual(lam)), (m, t, s)


def test_chi_invariant_under_twist_and_dual():
    assert chi_endo((3, 2, 1, 1)) == chi_endo((2, 1, 0, 0))
    assert chi_endo((1, 1, 1, 0)) == chi_endo((1, 0, 0, 0))


def test_chi_via_dual_product():
    # integrate ch(F) ch(F-dual) td with the dual taken by the oracle
    for m, t, s in canonical_triples(5):
        lam = (m, t, s, 0)
        direct = integrate(ch_oracle(lam) * ch_oracle(dual(lam)) * TODD)
        assert direct == chi_endo(lam), (m, t, s)


def test_xi_integral_closed_form():
    # integral of the degree-8 part of ch(End):
    # -1/4 (2 xi + 484 ell^4 - 330 ell^2 delta - 207/4 delta^2) r^2
    for m, t, s in canonical_triples(5):
        r = rank_poly(m, t, s)
        ell = ell_poly(m, t, s)
        delta = delta_poly(m, t, s)
        xi = xi_poly(m, t, s)
        closed = Q(-1, 4) * (
            2 * xi + 484 * ell**4 - 330 * ell**2 * delta - Q(207, 4) * delta**2
        ) * r * r
        assert xi_end_integral((m, t, s, 0)) == closed, (m, t, s)


def test_todd_classes():
    assert TODD == ONE + Q(1, 12) * C2X + 3 * PT
    assert SQRT_TODD == ONE + Q(1, 24) * C2X + Q(25, 32) * PT
    # sqrt really squares to the Todd class in the subring
    assert SQRT_TODD * SQRT_TODD == TODD


def test_rational_square():
    assert is_rational_square(Q(16, 25))
    assert is_rational_square(Q(0))
    assert not is_rational_square(Q(-1, 4))
    assert not is_rational_square(Q(2))
    assert not is_rational_square(Q(8, 9))


def sym_extended_vector(m: int) -> ExtendedMukaiVector:
    """The paper's closed-form extended Mukai vector of the m-th symmetric power,
    the reference for ``extended_vector_candidate``, which certifies atomicity.

    Checking m in SYM_DEGREES proves the closed form for every m.  The rank
    r = (m+1)(m+2)(m+3)/6 has degree 3 in m.  Multiplied by r, every component
    of ``verbitsky_projection`` of this vector is a polynomial in m of degree
    at most 10 (the point class s^2/2, with s of degree 5, is the highest), and
    so is every component of ``mukai_vector((m, 0, 0, 0))``: ch_k(Sym^m Q) is r
    times a polynomial of degree k <= 4 (``ch_closed``) and SQRT_TODD is a
    constant.  Two polynomials of degree <= 10 that agree at 11 points are equal.
    """
    r = Q(weyl_dim((m, 0, 0, 0)))
    return ExtendedMukaiVector(
        r, Q(m, 4) * r * H, Q(2 * m * m - 3 * m + 5, 4) * r
    )


SYM_DEGREES = range(13)  # at least 11 points: see sym_extended_vector


def test_atomicity_symmetric_certificates():
    for m in SYM_DEGREES:
        report = atomicity_report((m, 0, 0, 0))
        assert report.atomic and report.necessary_pass
        assert report.sym_certificate is True
        assert verbitsky_projection(sym_extended_vector(m)) == mukai_vector((m, 0, 0, 0))


def test_atomicity_q_square():
    for m in range(1, 7):
        v = sym_extended_vector(m)
        r = rank_poly(m, 0, 0)
        assert v.q_square() == Q(3 * m * m + 12 * m - 20, 8) * r * r


def test_non_atomic_examples():
    report = atomicity_report((1, 1, 0, 0))
    assert not report.atomic and not report.necessary_pass
    assert report.ratio == Q(-1, 3)
    assert report.sym_certificate is None
    report = atomicity_report((3, 2, 1, 0))
    assert not report.necessary_pass


def test_square_test_alone_is_not_sufficient():
    # chi(End) = 363 makes the ratio (11/20)^2, yet no extended vector
    # projects onto the Mukai vector: the certificate settles the verdict
    report = atomicity_report((2, 1, 0, 0))
    assert report.necessary_pass
    assert report.ratio == Q(121, 400)
    assert extended_vector_candidate((2, 1, 0, 0)) is None
    assert not report.atomic


def test_candidate_matches_closed_form_for_sym_powers():
    for m in SYM_DEGREES:
        assert extended_vector_candidate((m, 0, 0, 0)) == sym_extended_vector(m)


def test_atomicity_twist_invariance():
    # (1,1,1,0) canonicalises to the standard bundle: atomic
    assert atomicity_report((1, 1, 1, 0)).atomic
    assert atomicity_report((3, 2, 1, 1)).atomic is False
