import json
from importlib import resources

import pytest

from dvschur.ext import TABLE1_ROWS, ExtReport, ext_groups, reproduce_table1
from dvschur.koszul import chase_summand, load_overrides
from dvschur.partitions import canonicalize
from dvschur.reference import (
    diff_against_paper,
    known_discrepancies,
    table1_reference,
    unannotated_mismatches,
)
from dvschur.schur import EndSummand, end_decomposition
from test_ring import chi_endo_closed, rank_poly

DETERMINATE = [
    (1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0),
    (2, 2, 0, 0), (3, 0, 0, 0), (3, 1, 0, 0), (3, 1, 1, 0), (3, 2, 1, 0),
    (4, 0, 0, 0), (4, 1, 1, 0), (4, 2, 2, 0),
]
INDETERMINATE = [
    (3, 2, 0, 0), (3, 3, 0, 0), (4, 1, 0, 0), (4, 2, 0, 0),
    (4, 2, 1, 0), (4, 3, 0, 0), (4, 3, 1, 0), (4, 4, 0, 0),
]


def test_table1_rows_are_the_data_file_rows():
    # a row missing from either list would go undiffed
    text = resources.files("dvschur.data").joinpath("reference_tables.json").read_text()
    rows = tuple(tuple(row["lambda"]) for row in json.loads(text)["ext_table"])
    assert TABLE1_ROWS == rows
    assert len(rows) == 21


def test_wedge2(preset):
    report = ext_groups((1, 1, 0, 0), preset)
    assert report.exact
    assert report.dims() == (1, 20, 2, 20, 1)
    assert report.chi_check == -36


def test_published_rows(preset):
    assert ext_groups((2, 1, 1, 0), preset).dims() == (1, 20, 191, 20, 1)
    assert ext_groups((3, 2, 1, 0), preset).dims() == (1, 40, 35406, 40, 1)
    assert ext_groups((4, 2, 2, 0), preset).dims() == (1, 20, 172910, 20, 1)


def test_bounded_row(preset):
    report = ext_groups((3, 3, 0, 0), preset)
    assert not report.exact
    assert report.conflicts()
    assert 2 in report.bounded_degrees()


def test_preset_required_for_resolution(preset):
    assert not ext_groups((3, 2, 1, 0)).exact
    assert ext_groups((3, 2, 1, 0), preset).exact


def test_serre_symmetry(preset):
    for lam in DETERMINATE:
        d = ext_groups(lam, preset).dims()
        assert d[0] == d[4] and d[1] == d[3], lam


def test_simplicity(preset):
    # hom = 1 on every determinate row (and on rows with exact degree 0)
    for lam in DETERMINATE:
        assert ext_groups(lam, preset).value(0) == 1, lam


def test_ext1_counts_wedge_summand(preset):
    for lam in DETERMINATE:
        c = canonicalize(lam)
        dec = {s.q_weight: s.multiplicity for s in end_decomposition(c)}
        mult = dec.get((c.m + 1, c.m + 1, c.m - 1, c.m - 1), 0)
        report = ext_groups(lam, preset)
        assert report.value(1) == 20 * mult, lam
        assert report.value(1) in (0, 20, 40)


def test_chi_cross_check(preset):
    for lam in DETERMINATE:
        report = ext_groups(lam, preset)
        d = report.dims()
        assert d[0] - d[1] + d[2] - d[3] + d[4] == report.chi_check, lam


def test_sym_matches_end_decomposition():
    # End(Sym^m Q) nests: the summands (2m-i, m, m, i) twisted by O(-m), each once
    for m in range(31):
        want = [EndSummand((2 * m - i, m, m, i), -m, 1) for i in range(m + 1)]
        assert end_decomposition(canonicalize((m, 0, 0, 0))) == want, m


def test_sym_values(preset):
    assert ext_groups((1, 0, 0, 0), preset).dims() == (1, 0, 1, 0, 1)
    assert ext_groups((3, 0, 0, 0), preset).dims() == (1, 0, 5545, 0, 1)
    assert ext_groups((4, 0, 0, 0), preset).dims() == (1, 0, 53065, 0, 1)
    for m in range(1, 5):
        r = rank_poly(m, 0, 0)
        want = 3 * (3 * m * m + 12 * m - 20) ** 2 * r * r // 400 - 2
        assert ext_groups((m, 0, 0, 0), preset).value(2) == want


def test_sym5_indeterminate(preset):
    report = ext_groups((5, 0, 0, 0), preset)
    assert not report.exact
    assert report.conflicts()


def test_monotone_indeterminacy(preset):
    seeds = [
        (5, 0, 0, 0), (5, 1, 0, 0), (5, 2, 0, 0),
        (4, 2, 0, 0), (4, 3, 0, 0), (3, 3, 0, 0),
    ]
    for m, t, s, _ in seeds:
        assert not ext_groups((m, t, s, 0), preset).exact, (m, t, s)
        for up in [(m + 1, t, s, 0), (m + 1, t + 1, s, 0), (m + 1, t + 1, s + 1, 0)]:
            assert not ext_groups(up, preset).exact, up


def test_indeterminate_rows(preset):
    for lam in INDETERMINATE:
        report = ext_groups(lam, preset)
        assert not report.exact, lam
        assert report.conflicts(), lam


def test_report_is_exact_iff_every_summand_is(preset):
    # one exactness rule for both levels: a row is a sum of its summands
    seen = set()
    for report in reproduce_table1(preset):
        assert report.exact == all(res.exact for _, res in report.summands), report.lam
        seen.add(report.exact)
    assert seen == {True, False}


def test_hom_bounded_exactly_on_blank_rows(preset):
    reference = table1_reference()
    for lam in TABLE1_ROWS:
        report = ext_groups(lam, preset)
        hom_exact = not isinstance(report.value(0), tuple)
        assert hom_exact == (reference[lam]["hom"] is not None), lam


def test_diff_against_reference(preset):
    reports = reproduce_table1(preset)
    cells = diff_against_paper(reports)
    assert not unannotated_mismatches(cells)
    annotated = {(c.lam, c.column) for c in cells if c.status == "annotated"}
    assert annotated == set(known_discrepancies())
    assert ((2, 0, 0, 0), "ext2") in annotated
    assert ((3, 1, 0, 0), "ext2") in annotated


def test_forced_values_follow_from_chi():
    # each annotation's forced value is what HRR chi and the printed hom and
    # ext1 of its row force under Serre duality (ext3 = ext1, ext4 = hom)
    reference = table1_reference()
    for (lam, column), item in known_discrepancies().items():
        assert column == "ext2"
        printed = reference[lam]
        c = canonicalize(lam)
        chi = chi_endo_closed(c.m, c.t, c.s)
        assert item["forced"] == chi - 2 * printed["hom"] + 2 * printed["ext1"]
        assert item["forced"] != item["printed"]


def test_annotated_cell_with_wrong_value_is_mismatch(preset):
    report = ext_groups((3, 1, 0, 0), preset)
    (cell,) = [c for c in diff_against_paper([report]) if c.column == "ext2"]
    assert cell.status == "annotated"
    for wrong in [(21419, 21419), (23770, 23770), (21419, 23771)]:
        values = report.values[:2] + (wrong,) + report.values[3:]
        bad = ExtReport(
            values, report.lam, report.canonical, report.summands, report.chi_check
        )
        cells = diff_against_paper([bad])
        (cell,) = [c for c in cells if c.column == "ext2"]
        assert cell.status == "mismatch", wrong
        assert unannotated_mismatches(cells) == [cell]


def test_euler_of_bounded_report_is_satisfiable(preset):
    # the all-hi endpoint corresponds to every unknown rank being zero,
    # which is one consistent assignment; its alternating sum over 0..4
    # differs from chi only by entries outside the window
    report = ext_groups((3, 3, 0, 0), preset)
    lo = sum((-1) ** n * report.values[n][0] for n in range(5))
    hi = sum((-1) ** n * report.values[n][1] for n in range(5))
    assert min(lo, hi) <= report.chi_check <= max(lo, hi)


def direct_ext(lam, overrides):
    """Ext of lam with every End summand through ``chase_summand``: no mirror."""
    ext = [[0, 0] for _ in range(5)]
    results = []
    for summand in end_decomposition(canonicalize(lam)):
        res = chase_summand(*summand.normalized(), tuple(overrides))
        results.append(res)
        for n, (lo, hi) in enumerate(res.values):
            ext[n][0] += summand.multiplicity * lo
            ext[n][1] += summand.multiplicity * hi
    return tuple(map(tuple, ext)), results


def assert_matches_direct(lam, overrides):
    report = ext_groups(lam, overrides)
    ext, results = direct_ext(lam, overrides)
    assert report.values == ext, lam
    assert len(report.summands) == len(results), lam
    for (summand, res), want in zip(report.summands, results):
        assert res.values == want.values, (lam, summand)
        assert res.conflicts == want.conflicts, (lam, summand)


@pytest.mark.parametrize("use_preset", [False, True])
def test_mirrored_ext_equals_direct_sum(use_preset, preset):
    overrides = preset if use_preset else ()
    for lam in TABLE1_ROWS + ((8, 4, 2, 0), (10, 5, 2, 0)):
        assert_matches_direct(lam, overrides)


def chases(rows, overrides):
    chase_summand.cache_clear()
    for lam in rows:
        ext_groups(lam, overrides)
    return chase_summand.cache_info().misses


def test_one_chase_per_serre_pair(preset):
    # a pair is chased on both sides only where an override names one side
    assert chases([(16, 8, 4, 0)], ()) == 499
    assert chases([(8, 4, 2, 0)], preset) == 89
    assert chases(TABLE1_ROWS, preset) == 27  # 33 with both sides chased


def test_one_sided_override_is_not_mirrored(tmp_path, preset):
    # an override file naming ((5,5,2,0), -3) but not its partner
    # ((5,3,0,0), -2): the pair must be chased on both sides
    entries = [
        {"q_weight": list(ov.q_weight), "twist": ov.twist,
         "source": {"p": ov.source[0], "q": ov.source[1]},
         "target": {"p": ov.target[0], "q": ov.target[1]}, "rank": ov.rank}
        for ov in preset if (ov.q_weight, ov.twist) == ((5, 5, 2, 0), -3)
    ]
    assert entries
    path = tmp_path / "one_side.json"
    path.write_text(json.dumps({"overrides": entries}))
    overrides = load_overrides(str(path))
    assert chase_summand((5, 5, 2, 0), -3, overrides).exact
    assert not chase_summand((5, 3, 0, 0), -2, overrides).exact
    assert_matches_direct((3, 2, 0, 0), overrides)
