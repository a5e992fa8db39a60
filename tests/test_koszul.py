import itertools
import json
import random
import re

import pytest

from dvschur.bwb import bott
from dvschur.koszul import (
    E1Page,
    OverrideError,
    RankOverride,
    build_complex,
    chase,
    chase_summand,
    constituents,
    e1_page,
    load_overrides,
    serre_partner,
)
from dvschur.plethysm import koszul_factor_table
from dvschur.ring import TODD, ch_oracle, integrate


def entries_of(page):
    return dict(page.entries)


def test_build_complex_terms():
    # the benchmark's call: Sigma_lam Q tensor O(-d) is the page pair (lam, -d)
    assert build_complex((2, 2, 0, 0), 1) == ((2, 2, 0, 0), -1)
    # term p of the page (lam, t) is factor-table column p raised by -t
    table = koszul_factor_table()
    assert table[3] == {
        (3, 3, 1, 1, 1, 0): 1, (3, 2, 2, 2, 0, 0): 1, (2, 2, 2, 1, 1, 1): 1
    }
    assert table[0] == {(0,) * 6: 1} and table[20] == {(10,) * 6: 1}
    # det Q tensor O(-1) is trivial: the page of O, every piece raised by 1
    page = e1_page(((1, 1, 1, 1), -1))
    plain = e1_page(((0, 0, 0, 0), 0))
    assert page.entries == plain.entries == (((0, 0), 1), ((10, 12), 1), ((20, 24), 1))
    for pos, _ in page.entries:
        (w, mult), = constituents(page, pos)
        assert constituents(plain, pos) == ((tuple(x - 1 for x in w), mult),)
    assert constituents(page, (20, 24)) == (((7,) * 10, 1),)


def test_e1_page_wedge2_summand():
    page = e1_page(((2, 2, 0, 0), -1))
    assert entries_of(page) == {
        (3, 4): 10, (7, 8): 10, (10, 12): 1, (13, 16): 10, (17, 20): 10
    }


def test_e1_page_structure_sheaf():
    page = e1_page(((0, 0, 0, 0), 0))
    assert entries_of(page) == {(0, 0): 1, (10, 12): 1, (20, 24): 1}
    res = chase(page)
    assert res.dims() == (1, 0, 1, 0, 1)


def test_e1_page_empty():
    page = e1_page(((2, 1, 1, 0), -1))
    assert page.entries == ()
    res = chase(page)
    assert res.exact and res.dims() == (0, 0, 0, 0, 0)


def test_chase_wedge2_summand_exact():
    res = chase(e1_page(((2, 2, 0, 0), -1)))
    assert res.exact
    assert res.dims() == (0, 20, 1, 20, 0)


def test_chase_goldens_with_preset(preset):
    for (w, t), want in [
        (((5, 5, 2, 0), -3), 2730),
        (((7, 5, 4, 0), -4), 32550),
        (((6, 6, 4, 0), -4), 10206),
    ]:
        res = chase_summand(w, t, preset)
        assert res.exact
        assert res.dims() == (0, 0, want, 0, 0), (w, t)


def test_chase_dual_goldens_with_preset(preset):
    # the Serre-dual summands resolve to the same degree-2 dimensions
    for (w, t), want in [
        (((5, 3, 0, 0), -2), 2730),
        (((7, 3, 2, 0), -3), 32550),
        (((6, 2, 0, 0), -2), 10206),
    ]:
        res = chase_summand(w, t, preset)
        assert res.exact
        assert res.dims() == (0, 0, want, 0, 0), (w, t)


def test_chase_without_override_is_bounded():
    res = chase(e1_page(((5, 5, 2, 0), -3)))
    assert not res.exact
    assert res.conflicts
    lo, hi = res.values[2]
    assert lo <= 2730 <= hi
    assert res.values[1] == (0, 220)


def test_value_reads_intervals_exactly_on_bounded_degrees(preset):
    bounded = chase_summand((5, 5, 2, 0), -3)
    assert bounded.bounded_degrees()
    for n, (lo, hi) in enumerate(bounded.values):
        want = (lo, hi) if n in bounded.bounded_degrees() else lo
        assert bounded.value(n) == want, n
    with pytest.raises(ValueError, match="bounded"):
        bounded.dims()
    exact = chase_summand((5, 5, 2, 0), -3, preset)
    assert exact.exact
    assert [exact.value(n) for n in range(5)] == list(exact.dims())


def test_sym5_summand_indeterminate():
    res = chase_summand((10, 5, 5, 0), -5)
    assert not res.exact
    assert len(res.conflicts) >= 1
    assert res.bounded_degrees()


def test_euler_is_preserved(preset):
    for (w, t) in [((5, 5, 2, 0), -3), ((6, 6, 4, 0), -4), ((2, 2, 0, 0), -1)]:
        page = e1_page((w, t))
        plain = chase(page)
        resolved = chase(page, preset)
        assert plain.euler == resolved.euler == page.euler
        for res in (plain, resolved):
            alternating = sum((-1) ** n * hi for n, (lo, hi) in enumerate(res.values))
            if res.exact:
                assert alternating == res.euler


def test_override_monotone():
    page = e1_page(((5, 5, 2, 0), -3))
    previous = None
    for rank in (0, 100, 220):
        ov = RankOverride((5, 5, 2, 0), -3, (11, 12), (9, 11), rank)
        res = chase(page, (ov,))
        his = [hi for _, hi in res.values]
        if previous is not None:
            assert all(a <= b for a, b in zip(his, previous))
        previous = his


def test_override_validation():
    with pytest.raises(ValueError):
        RankOverride((5, 5, 2, 0), -3, (9, 11), (11, 12), 220)  # wrong direction
    with pytest.raises(ValueError):
        RankOverride((5, 5, 2, 0), -3, (11, 12), (9, 10), 220)  # illegal offset
    page = e1_page(((5, 5, 2, 0), -3))
    too_big = RankOverride((5, 5, 2, 0), -3, (11, 12), (9, 11), 331)
    with pytest.raises(OverrideError, match=re.escape(
        "override rank 331 at (11, 12)->(9, 11) exceeds entry dimensions 220, 330"
    )):
        chase(page, (too_big,))
    dangling = RankOverride((5, 5, 2, 0), -3, (12, 13), (9, 11), 5)
    with pytest.raises(OverrideError, match=re.escape(
        "override at (12, 13)->(9, 11) does not match any pair of entries on the page"
    )):
        chase(page, (dangling,))
    # a rank-0 override asserts nothing, so it may name a pair that is absent
    unused = RankOverride((5, 5, 2, 0), -3, (12, 13), (9, 11), 0)
    assert chase(page, (unused,)) == chase(page)


@pytest.mark.parametrize("args, message", [
    # a half-integer rank would chase to a half-integer interval
    (((5, 5, 2, 0), -3, (11, 12), (9, 11), 219.5), "field 'rank' is not an integer: 219.5"),
    (((5, 5, 2, 0), True, (11, 12), (9, 11), 1), "field 'twist' is not an integer: True"),
    (((5, 5, 2, 0), -3, ("a", 12), (9, 11), 1), "field 'source.p' is not an integer: 'a'"),
], ids=["half-integer-rank", "bool-twist", "string-position"])
def test_override_fields_are_integers(tmp_path, args, message):
    # RankOverride is the one validator: the JSON reader names the entry
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RankOverride(*args)
    weight, twist, (p, q), (pp, qq), rank = args
    path = tmp_path / "ov.json"
    path.write_text(json.dumps([{
        "q_weight": list(weight), "twist": twist, "rank": rank,
        "source": {"p": p, "q": q}, "target": {"p": pp, "q": qq},
    }]))
    with pytest.raises(OverrideError, match=f"^override 0: {re.escape(message)}$"):
        load_overrides(str(path))


def test_stray_cohomology_blames_override_only_when_one_applied():
    # an override that leaves an entry outside degrees 0..4 is bad input;
    # without one, a stray entry is a program fault
    page = e1_page(((3, 1, 1, 0), 0))
    wrong = RankOverride((3, 1, 1, 0), 0, (12, 11), (0, 0), 4)
    with pytest.raises(OverrideError, match=re.escape(
        "{(12, 11): 6}, after overrides at [((12, 11), (0, 0))]"
    )):
        chase(page, (wrong,))
    stray = E1Page((0, 0, 0, 0), 0, (((12, 0), 1),))
    with pytest.raises(ArithmeticError, match=r"\{\(12, 0\): 1\}"):
        chase(stray)


def test_overrides_for_other_bundles_are_ignored(preset):
    res = chase(e1_page(((2, 2, 0, 0), -1)), preset)
    assert res.exact
    assert res.dims() == (0, 20, 1, 20, 0)


def test_preset_loading(tmp_path):
    preset = load_overrides("paper-4.2")
    assert len(preset) == 12
    assert load_overrides("paper-4.2") == preset
    with pytest.raises(ValueError):
        load_overrides("nonsense")
    with pytest.raises(ValueError):
        load_overrides("no-such-preset")
    path = tmp_path / "ov.json"
    path.write_text(
        '[{"q_weight": [5,5,2,0], "twist": -3, "source": {"p": 11, "q": 12},'
        ' "target": {"p": 9, "q": 11}, "rank": 220}]'
    )
    loaded = load_overrides(str(path))
    assert loaded[0].rank == 220 and loaded[0].note == ""


def test_serre_duality_of_dual_summand_chases(preset):
    # H^n of a summand equals H^(4-n) of its dual summand
    pairs = [
        (((5, 2, 1, 0), -2), ((5, 4, 3, 0), -3)),
        (((2, 2, 0, 0), -1), ((2, 2, 0, 0), -1)),
        (((5, 5, 2, 0), -3), ((5, 3, 0, 0), -2)),
        (((6, 4, 2, 0), -3), ((6, 4, 2, 0), -3)),
    ]
    for (w1, t1), (w2, t2) in pairs:
        a = chase_summand(w1, t1, preset).dims()
        b = chase_summand(w2, t2, preset).dims()
        assert a == tuple(reversed(b)), (w1, w2)


def test_determinate_iff_no_legal_pairs():
    # all entries of this page share one total degree, so no differential fits
    page = e1_page(((6, 4, 2, 0), -3))
    degrees = {q - p for (p, q), _ in page.entries}
    assert degrees == {2}
    res = chase(page)
    assert res.exact
    assert res.dims()[2] == sum(dim for _, dim in page.entries)


def spectral_sequence_ends(first):
    """Every E_inf of a spectral sequence on the first page ``first``
    ({(p, q): dim}, p <= 4): page r gives each pair (p, q) -> (p-r, q-r+1) of
    entries a rank, so that at each position the ranks in plus the ranks out
    are at most its dimension on E_r, which they lower."""
    states = {tuple(sorted(first.items()))}
    for r in range(1, 5):
        later = set()
        for state in states:
            dims = dict(state)
            pairs = [(s, (s[0] - r, s[1] - r + 1)) for s in dims]
            pairs = [(s, t) for s, t in pairs if dims[s] and dims.get(t)]
            bounds = (range(min(dims[s], dims[t]) + 1) for s, t in pairs)
            for ranks in itertools.product(*bounds):
                left = dict(dims)
                for (s, t), x in zip(pairs, ranks):
                    left[s] -= x
                    left[t] -= x
                if min(left.values()) >= 0:
                    later.add(tuple(sorted(left.items())))
        states = later
    return states


def exact_projection(first):
    """(h^0..h^4) of every spectral sequence on ``first`` whose E_inf
    vanishes outside total degrees 0..4."""
    return {
        tuple(sum(dim for (p, q), dim in end if q - p == n) for n in range(5))
        for end in spectral_sequence_ends(first)
        if all(dim == 0 for (p, q), dim in end if not 0 <= q - p <= 4)
    }


def synthetic_pages(count=1500, seed=1):
    """Seeded first pages with p <= 4, q <= 8 and 3-7 entries of dimension
    1-3, each with its exact projection; a page with an empty projection is
    skipped."""
    rng = random.Random(seed)
    cells = [(p, q) for p in range(5) for q in range(9)]
    out = []
    while len(out) < count:
        first = {pos: rng.randint(1, 3) for pos in rng.sample(cells, rng.randint(3, 7))}
        projection = exact_projection(first)
        if projection:
            out.append((first, projection))
    return out


def test_chase_contains_every_spectral_sequence():
    # over a field every rank assignment comes from a filtered complex
    # (Barannikov 1994), so the projection is exactly what a dimension-only
    # chase can know: each interval must contain it (soundness), and a change
    # that loosens the chase lowers the number of tight cells
    tight = 0
    for first, projection in synthetic_pages():
        res = chase(E1Page((0, 0, 0, 0), 0, tuple(sorted(first.items()))))
        for n, (lo, hi) in enumerate(res.values):
            low = min(h[n] for h in projection)
            high = max(h[n] for h in projection)
            assert lo <= low and high <= hi, (first, n, res.values[n], (low, high))
            tight += (lo, hi) == (low, high)
    assert tight >= 6961  # of 1,500 * 5 cells


STAIRCASE = (9, 8, 7, 6, 5, 4, 3, 2, 1, 0)


def textbook_bott(lam, mu):
    """Borel-Weil-Bott computed without the package: all 45 pairs compared,
    Weyl product taken on the weight.  Returns (degree, weight, dim) or None."""
    v = [x + r for x, r in zip(lam + mu, STAIRCASE)]
    if len(set(v)) < 10:
        return None
    inversions = sum(v[i] < v[j] for i in range(10) for j in range(i + 1, 10))
    weight = tuple(x - r for x, r in zip(sorted(v, reverse=True), STAIRCASE))
    num = den = 1
    for i in range(10):
        for j in range(i + 1, 10):
            num *= weight[i] - weight[j] + j - i
            den *= j - i
    assert num % den == 0
    return inversions, weight, num // den


def reference_page(lam, twist):
    """The page of Sigma_lam Q tensor O(twist) built factor by factor with the
    public, validating bott on every factor-table weight raised by -twist,
    each answer checked against textbook_bott: the sorted (position, dim)
    entries and each position's constituents."""
    dims, parts = {}, {}
    for p, column in enumerate(koszul_factor_table()):
        for mu, mult in column.items():
            mu = tuple(x - twist for x in mu)
            res = bott(lam, mu)
            want = textbook_bott(lam, mu)
            if res is None:
                assert want is None, (lam, mu)
                continue
            assert (res.degree, res.gl10_weight, res.dim) == want, (lam, mu)
            pos = (p, res.degree)
            dims[pos] = dims.get(pos, 0) + mult * res.dim
            parts.setdefault(pos, []).append((res.gl10_weight, mult))
    return tuple(sorted(dims.items())), {pos: tuple(ws) for pos, ws in parts.items()}


def reference_grid():
    """Every (a,b,c,x) with a <= 8, every third one with a negative last
    entry x, each at one twist t; the twists run through [-3, a+2]."""
    cases = [((2, 1, 1, 0), -1)]  # an acyclic page
    k = 0
    for a in range(9):
        for b in range(a + 1):
            for c in range(b + 1):
                x = -(1 + a % 3) if k % 3 == 0 else 0
                twists = range(a + 2, -4, -1)
                cases.append(((a, b, c, x), twists[(5 * k) % len(twists)]))
                k += 1
    return cases


def test_e1_page_matches_per_factor_bott():
    cases = reference_grid()
    nonempty = negative = 0
    for lam, t in cases:
        page = e1_page((lam, t))
        assert page.q_weight == lam and page.twist == t
        entries, parts = reference_page(lam, t)
        assert page.entries == entries, (lam, t)
        assert {pos: constituents(page, pos) for pos, _ in entries} == parts, (lam, t)
        nonempty += bool(page.entries)
        negative += lam[3] < 0
    assert e1_page(((2, 1, 1, 0), -1)).entries == ()
    assert nonempty > len(cases) // 2 and negative > len(cases) // 4


def test_e1_page_alternating_sum_is_hrr():
    # an oracle that runs no Borel-Weil-Bott: the page's alternating sum is
    # chi(Sigma_(w+t) Q) by Hirzebruch-Riemann-Roch, since det Q = O(1).  The
    # sign is an integer: the grid keeps every twist-5 page of a = 8, where
    # entries pass 2^53 and a float sum would round
    pages = 0
    for a in range(9):
        for b in range(a + 1):
            for c in range(b + 1):
                for t in range(5, -a - 9, -2):
                    w = (a, b, c, 0)
                    page = e1_page((w, t))
                    alternating = sum(
                        -dim if (q - p) % 2 else dim for (p, q), dim in page.entries
                    )
                    chi = integrate(ch_oracle(tuple(x + t for x in w)) * TODD)
                    assert chi.denominator == 1 and alternating == chi, (w, t)
                    pages += 1
    assert pages == 1685


@pytest.mark.parametrize(
    "lam", [(0, 1, 0, 0), (2, 1, 0, 1), (1, 0, 0), (1, 0, 0, 0, 0), ()]
)
def test_build_complex_rejects_bad_q_weight(lam):
    # build_complex only flips the sign and e1_page checks the weight, so a
    # bad weight makes no page whichever caller built the pair
    with pytest.raises(ValueError):
        e1_page(build_complex(lam, 0))
    with pytest.raises(ValueError):
        e1_page((lam, 0))


def test_factor_table_weights_are_dominant_6_tuples():
    # the precondition e1_page trusts for every factor weight
    table = koszul_factor_table()
    assert len(table) == 21
    for col in table:
        for mu in col:
            assert type(mu) is tuple and len(mu) == 6, mu
            assert all(type(x) is int for x in mu), mu
            assert all(mu[i] >= mu[i + 1] for i in range(5)), mu


PRESET_SUMMANDS = [
    ((5, 5, 2, 0), -3, 2730),
    ((7, 5, 4, 0), -4, 32550),
    ((6, 6, 4, 0), -4, 10206),
    ((5, 3, 0, 0), -2, 2730),
    ((7, 3, 2, 0), -3, 32550),
    ((6, 2, 0, 0), -2, 10206),
]


def greedy_overrides(q_weight, twist):
    """The page-ordered maximal assignment: walk the potential differentials
    in increasing page order and give each the largest possible rank."""
    dims = entries_of(e1_page((q_weight, twist)))
    out = []
    for r in range(1, 21):
        for pos in sorted(dims):
            target = (pos[0] - r, pos[1] - r + 1)
            if target not in dims or not dims[pos] or not dims[target]:
                continue
            rank = min(dims[pos], dims[target])
            dims[pos] -= rank
            dims[target] -= rank
            out.append(RankOverride(q_weight, twist, pos, target, rank))
    return out


def test_greedy_rederives_preset(preset):
    # on the six preset summands the greedy kills all odd-degree cohomology,
    # as the published injectivity arguments do, and gives the frozen ranks
    frozen = {(ov.q_weight, ov.twist, ov.source, ov.target): ov.rank for ov in preset}
    derived = {}
    for q_weight, twist, h2 in PRESET_SUMMANDS:
        greedy = greedy_overrides(q_weight, twist)
        derived.update(
            ((ov.q_weight, ov.twist, ov.source, ov.target), ov.rank) for ov in greedy
        )
        res = chase_summand(q_weight, twist, tuple(greedy))
        assert res.exact and res.dims() == (0, 0, h2, 0, 0), (q_weight, twist)
    assert derived == frozen


def serre_sweep(count=200, seed=11):
    """Seeded distinct summands ((a,b,c,0), t) with a <= 14 and t in
    [-a-1, 1], plus the preset summands."""
    rng = random.Random(seed)
    out = {(w, t) for w, t, _ in PRESET_SUMMANDS}
    while len(out) < count:
        a = rng.randint(0, 14)
        b = rng.randint(0, a)
        c = rng.randint(0, b)
        out.add(((a, b, c, 0), rng.randint(-a - 1, 1)))
    return sorted(out)


@pytest.mark.parametrize("use_preset", [False, True])
def test_serre_duality_mirrors_intervals(use_preset, preset):
    # H^n of ((a,b,c,0), t) is H^(4-n) of ((a,a-c,a-b,0), -t-a), bounded
    # intervals included
    overrides = preset if use_preset else ()

    def phi(pos):
        return 20 - pos[0], 24 - pos[1]

    bounded = 0
    for (a, b, c, _), t in serre_sweep():
        res = chase_summand((a, b, c, 0), t, overrides)
        partner = chase_summand((a, a - c, a - b, 0), -t - a, overrides)
        assert res.values == tuple(reversed(partner.values)), ((a, b, c), t)
        # a conflict src -> tgt of the partner is phi(tgt) -> phi(src) here,
        # in the chase's (page, source) order
        mirrored = sorted(
            ((phi(x.target), phi(x.source), x.page, x.cap) for x in partner.conflicts),
            key=lambda m: (m[2], m[0]),
        )
        direct = [(x.source, x.target, x.page, x.cap) for x in res.conflicts]
        assert direct == mirrored, ((a, b, c), t)
        bounded += not res.exact
    assert bounded > 100


def test_serre_dual_is_the_direct_chase():
    # without overrides the mirrored chase of the partner page is the chase
    # of the page, conflict order and Euler characteristic included
    pairs = several = 0  # several: pages with more than one conflict to order
    for a in range(8):
        for b in range(a + 1):
            for c in range(b + 1):
                for t in range(-a - 2, 3):
                    key = ((a, b, c, 0), t)
                    partner = serre_partner(*key)
                    if partner < key:  # the pair's representative is the partner
                        continue
                    assert serre_partner(*partner) == key
                    direct = chase(e1_page(key))
                    chased = chase(e1_page(partner))
                    mirrored = chased.serre_dual()
                    assert mirrored.values == direct.values, key
                    assert mirrored.conflicts == direct.conflicts, key
                    assert mirrored.euler == direct.euler, key
                    pairs += 1
                    several += len(direct.conflicts) > 1
    assert pairs == 620 and several > 100
