"""Acceptance gate: each test runs one criterion at zero tolerance and prints
a pass/fail line.  Run standalone with `pytest tests/test_acceptance.py -s`.

Every criterion is expected to pass; a failure here is a regression.  Two
published values are inconsistent and are checked for what they are:

* the printed ext^2 = 21419 for (3,1,0,0) fails the Euler-characteristic
  cross-check (see ``known_discrepancies`` in
  ``src/dvschur/data/reference_tables.json``).  Criterion 2 requires the
  value that HRR chi forces, 23771, and requires the table diff to report
  the printed cell as annotated;
* the rational-square necessary test for atomicity passes at (2,1,0,0),
  where chi/(3 r^2) = (11/20)^2.  The ``ring.atomicity_report`` docstring
  promises only that away from the symmetric powers either the square test
  or the extended-Mukai-vector certificate fails; criterion 8 checks that.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import comb, isqrt

from dvschur import plethysm, schur
from dvschur.bwb import DIM_GR, bott
from dvschur.cli import main as cli_main
from dvschur.ext import ext_groups
from dvschur.koszul import chase_summand
from dvschur.partitions import canonicalize, dual, weyl_dim
from dvschur.reference import diff_against_paper, koszul_reference
from dvschur.ring import atomicity_report, ch_oracle, extended_vector_candidate
from test_ring import chi_endo_closed, delta_poly, ell_poly, rank_poly

CRITERION_2_ROWS = {
    (1, 0, 0, 0): (1, 0, 1),
    (1, 1, 0, 0): (1, 20, 2),
    (2, 1, 0, 0): (1, 20, 401),
    (2, 1, 1, 0): (1, 20, 191),
    (2, 2, 0, 0): (1, 20, 590),
    (3, 0, 0, 0): (1, 0, 5545),
    (3, 1, 0, 0): (1, 20, 21419),
    (3, 1, 1, 0): (1, 20, 10649),
    (3, 2, 1, 0): (1, 40, 35406),
    (4, 0, 0, 0): (1, 0, 53065),
    (4, 1, 1, 0): (1, 20, 141746),
    (4, 2, 2, 0): (1, 20, 172910),
}

# The printed cells that fail the chi cross-check, as (lambda, column).
ANNOTATED_CELLS = {((2, 0, 0, 0), "ext2"), ((3, 1, 0, 0), "ext2")}

CRITERION_4_ROWS = [
    (3, 2, 0, 0), (3, 3, 0, 0), (4, 1, 0, 0), (4, 2, 0, 0),
    (4, 2, 1, 0), (4, 3, 0, 0), (4, 3, 1, 0), (4, 4, 0, 0),
]


def report(name: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_koszul_table(capsys):
    plethysm.decompose_wedge_power.cache_clear()
    plethysm.koszul_factor_table.cache_clear()
    start = time.monotonic()
    code = cli_main(["koszul-table"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if payload["published_mismatches"]:
        problems.append(f"columns {payload['published_mismatches']} mismatch")
    table = plethysm.koszul_factor_table()
    for p, published in enumerate(koszul_reference()):
        if frozenset(table[p]) != published:
            problems.append(f"column {p} differs from the published sets")
        if any(mult != 1 for mult in table[p].values()):
            problems.append(f"column {p} has a multiplicity above 1")
    for p in range(21):
        total = sum(n * weyl_dim(w) for w, n in table[p].items())
        if total != comb(20, p):
            problems.append(f"column {p} dimension sum {total} != C(20,{p})")
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s")
    report("1 (factor table)", not problems, f"{elapsed:.2f}s cold")
    assert not problems, problems


def _chi_forced_ext2(lam, hom, ext1):
    """ext^2 forced by HRR chi(End) and Serre duality (ext3 = ext1, ext4 = hom)."""
    c = canonicalize(lam)
    return chi_endo_closed(c.m, c.t, c.s) - 2 * hom + 2 * ext1


def test_criterion_2_determinate_rows(capsys):
    code = cli_main(["table1", "--overrides", "paper-4.2"])
    payload = json.loads(capsys.readouterr().out)
    rows = {tuple(row["lambda"]): row for row in payload["rows"]}
    diff = {(tuple(c["lambda"]), c["column"]): c for c in payload["diff"]}
    failures = []
    for lam, (hom, ext1, ext2) in CRITERION_2_ROWS.items():
        required = (hom, ext1, ext2)
        if (lam, "ext2") in ANNOTATED_CELLS:
            forced = _chi_forced_ext2(lam, hom, ext1)
            if forced == ext2:
                failures.append(f"{lam}: printed ext2 {ext2} is not inconsistent")
            required = (hom, ext1, forced)
        got = tuple(rows[lam]["ext"][:3])
        if not rows[lam]["exact"] or got != required:
            failures.append(f"{lam}: computed {got}, required {required}")
        for column, printed in zip(("hom", "ext1", "ext2"), (hom, ext1, ext2)):
            cell = diff[(lam, column)]
            want = "annotated" if (lam, column) in ANNOTATED_CELLS else "match"
            if cell["printed"] != printed or cell["status"] != want:
                failures.append(
                    f"{lam} {column}: printed {cell['printed']} reported "
                    f"{cell['status']}, expected {printed} reported {want}"
                )
    annotated = {key for key, c in diff.items() if c["status"] == "annotated"}
    if annotated != ANNOTATED_CELLS:
        failures.append(f"annotated cells {sorted(annotated)}")
    if code != 0:
        failures.append(f"table1 exit code {code}")
    report("2 (determinate rows)", not failures, "; ".join(failures))
    assert not failures, (
        "the (3,1,0,0) row must carry the chi-forced ext2 and its printed "
        "21419 must be annotated (see known_discrepancies in "
        "reference_tables.json): " + "; ".join(failures)
    )


def test_criterion_3_known_discrepancy(preset):
    rep = ext_groups((2, 0, 0, 0), preset)
    ok = rep.exact and rep.dims() == (1, 0, 190, 0, 1) and rep.chi_check == 192
    d = rep.dims()
    ok = ok and (d[0] - d[1] + d[2] - d[3] + d[4] == 192)
    cells = diff_against_paper([rep])
    flagged = any(
        c.lam == (2, 0, 0, 0) and c.column == "ext2" and c.status == "annotated"
        for c in cells
    )
    report("3 (flagged discrepancy)", ok and flagged,
           f"computed ext2 {rep.value(2)} vs printed 191, chi {rep.chi_check}")
    assert ok and flagged


def test_criterion_4_indeterminate_rows(preset, capsys):
    failures = []
    for lam in CRITERION_4_ROWS:
        rep = ext_groups(lam, preset)
        if rep.exact or not rep.conflicts():
            failures.append(f"{lam} unexpectedly determinate")
        code = cli_main([
            "ext", "--lambda", ",".join(map(str, lam)), "--overrides", "paper-4.2"
        ])
        if code != 2:
            failures.append(f"{lam} exit code {code} != 2")
    for m in (5, 6):
        rep = ext_groups((m, 0, 0, 0), preset)
        if rep.exact or not rep.conflicts():
            failures.append(f"Sym^{m} unexpectedly determinate")
        code = cli_main(["sym", "--m", str(m), "--overrides", "paper-4.2"])
        if code != 2:
            failures.append(f"Sym^{m} exit code {code} != 2")
    capsys.readouterr()  # drop the CLI payloads
    report("4 (indeterminate rows)", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_5_resolved_chases(preset):
    want = {
        ((5, 5, 2, 0), -3): 2730,
        ((7, 5, 4, 0), -4): 32550,
        ((6, 6, 4, 0), -4): 10206,
    }
    failures = []
    for (w, t), h2 in want.items():
        res = chase_summand(w, t, preset)
        if not res.exact or res.dims() != (0, 0, h2, 0, 0):
            failures.append(f"{w}|{t}: {res.values}")
    report("5 (resolved chases)", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_6_chi_cross_module(preset):
    failures = []
    for lam in CRITERION_2_ROWS:
        rep = ext_groups(lam, preset)
        d = rep.dims()
        alternating = d[0] - d[1] + d[2] - d[3] + d[4]
        if alternating != rep.chi_check:
            failures.append(f"{lam}: {alternating} != {rep.chi_check}")
    rep = ext_groups((2, 0, 0, 0), preset)
    d = rep.dims()
    if d[0] - d[1] + d[2] - d[3] + d[4] != rep.chi_check:
        failures.append("(2,0,0,0)")
    report("6 (chi cross-module)", not failures, "; ".join(failures))
    assert not failures, failures


def _partitions_up_to(size, parts):
    out = [()]

    def grow(prefix, left, cap):
        for v in range(min(left, cap), 0, -1):
            if len(prefix) < parts:
                out.append(prefix + (v,))
                grow(prefix + (v,), left - v, v)

    grow((), size, size)
    return out


def test_criterion_7a_lr_bookkeeping():
    failures = 0
    checked = 0
    for rank in (2, 3, 4):
        parts = [p for p in _partitions_up_to(8, rank)]
        for lam in parts:
            for mu in parts:
                dec = schur.lr_coefficients(lam, mu, rank)
                lam_p = lam + (0,) * (rank - len(lam))
                mu_p = mu + (0,) * (rank - len(mu))
                total = sum(n * weyl_dim(nu) for nu, n in dec.items())
                checked += 1
                if total != weyl_dim(lam_p) * weyl_dim(mu_p):
                    failures += 1
                if dec != schur.lr_coefficients(mu, lam, rank):
                    failures += 1
    report("7a (LR bookkeeping/symmetry)", failures == 0, f"{checked} pairs")
    assert failures == 0


def test_criterion_7b_end_multiplicity_table():
    failures = []
    for m in range(9):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s > m:
                    continue
                dec = schur.lr_coefficients(
                    (m, t, s, 0), (m, m - s, m - t, 0), 4
                )
                if dec.get((m, m, m, m), 0) != 1:
                    failures.append(f"trivial summand at {(m, t, s)}")
                got = dec.get((m + 1, m + 1, m - 1, m - 1), 0)
                if t == s == 0:
                    want = 0
                elif t > s > 0:
                    want = 2
                else:
                    want = 1
                if m >= 1 and got != want:
                    failures.append(f"wedge summand at {(m, t, s)}: {got} != {want}")
                got2 = dec.get((m + 2, m, m, m - 2), 0)
                if m <= 1:
                    if got2 != 0:
                        failures.append(f"spin summand at {(m, t, s)}: {got2} != 0")
                elif got2 < 1:
                    failures.append(f"spin summand at {(m, t, s)}: {got2} < 1")
    report("7b (end multiplicity table)", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_7c_bwb_serre_duality():
    rng = random.Random(424242)
    failures = 0
    for _ in range(500):
        lam = tuple(sorted((rng.randint(-5, 9) for _ in range(4)), reverse=True))
        mu = tuple(sorted((rng.randint(-5, 9) for _ in range(6)), reverse=True))
        res = bott(lam, mu)
        partner = bott(dual(lam), tuple(x + 10 for x in dual(mu)))
        if res is None:
            failures += partner is not None
            continue
        ok = (
            partner is not None
            and partner.degree == DIM_GR - res.degree
            and partner.dim == res.dim
            and partner.gl10_weight == tuple(x + 6 for x in dual(res.gl10_weight))
        )
        failures += not ok
    report("7c (BWB Serre duality)", failures == 0, "500 random pairs")
    assert failures == 0


def test_criterion_7d_shift_identity():
    table = plethysm.koszul_factor_table()
    failures = []
    for k in range(1, 11):
        direct = plethysm.decompose_wedge_power(10 + k)
        shifted = {tuple(x + k for x in w): n for w, n in table[10 - k].items()}
        if direct != shifted or table[10 + k] != direct:
            failures.append(f"k={k}")
    report("7d (shift identity)", not failures, "k = 1..10")
    assert not failures, failures


def test_criterion_7e_chern_degree_012():
    failures = []
    for m in range(7):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s > m:
                    continue
                r = rank_poly(m, t, s)
                ell = ell_poly(m, t, s)
                delta = delta_poly(m, t, s)
                got = ch_oracle((m, t, s, 0))
                ok = (
                    got.one == r
                    and got.h == ell * r
                    and got.ch2 == delta * r
                    and got.h2 == (ell * ell - delta / 4) * r / 2
                )
                if not ok:
                    failures.append(str((m, t, s)))
    report("7e (Chern degrees 0-2)", not failures, "all m <= 6")
    assert not failures, failures


def test_criterion_7f_sym_ext2_formula(preset):
    failures = []
    for m in range(1, 5):
        r = rank_poly(m, 0, 0)
        num = 3 * (3 * m * m + 12 * m - 20) ** 2 * r * r
        assert num % 400 == 0
        want = num // 400 - 2
        rep = ext_groups((m, 0, 0, 0), preset)
        if not rep.exact or rep.dims() != (1, 0, want, 0, 1):
            failures.append(f"m={m}")
    report("7f (sym ext2 formula)", not failures, "m = 1..4")
    assert not failures, failures


def _is_rational_square(x: Fraction) -> bool:
    return x >= 0 and all(isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def test_criterion_8_atomicity():
    failures = []
    square_passers = []
    for m in range(7):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s > m:
                    continue
                rep = atomicity_report((m, t, s, 0))
                ratio = Fraction(chi_endo_closed(m, t, s), 3 * rank_poly(m, t, s) ** 2)
                if rep.necessary_pass != _is_rational_square(ratio):
                    failures.append(f"{(m, t, s)}: square test disagrees on {ratio}")
                if t == 0 and s == 0:
                    if not (rep.atomic and rep.necessary_pass and rep.sym_certificate):
                        failures.append(f"{(m, 0, 0)} should be atomic")
                    continue
                if rep.atomic:
                    failures.append(f"{(m, t, s)} should not be atomic")
                if rep.sym_certificate is not None:
                    failures.append(f"{(m, t, s)} has an unexpected certificate")
                if rep.necessary_pass:
                    square_passers.append((m, t, s))
                    if extended_vector_candidate(rep.canonical.weight) is not None:
                        failures.append(
                            f"{(m, t, s)}: neither the square test nor the "
                            "certificate fails"
                        )
    # chi(End(2,1,0,0)) is pinned by the published row (1,20,401)
    hom, ext1, ext2 = CRITERION_2_ROWS[(2, 1, 0, 0)]
    chi = hom - ext1 + ext2 - ext1 + hom
    if Fraction(chi, 3 * rank_poly(2, 1, 0) ** 2) != Fraction(11, 20) ** 2:
        failures.append(f"(2,1,0,0): chi/(3 r^2) = {chi}/1200, not (11/20)^2")
    detail = (
        "atomic iff (m,0,0,0) with verified certificates; square test passes "
        f"off the symmetric powers only at {square_passers}, ruled out by "
        "the certificate"
    )
    report("8 (atomicity)", not failures, detail)
    assert not failures, (
        "atomic must hold exactly for the symmetric powers, and away from "
        "them the square test or the certificate must fail (see the "
        "ring.atomicity_report docstring): " + "; ".join(failures)
    )
