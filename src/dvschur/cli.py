"""Command-line front end: weight calculus, chases, table reproduction.

Standard output carries exclusively the report (JSON by default, canonical
key order); error messages go to standard error, and no command prints
progress.  Exit status: 0 on success, 2 when a requested cohomology value is
indeterminate, 1 on input errors (usage errors included), an unannotated
mismatch against the published tables, or a reader that closed stdout early
(no traceback).  An override from a file, not a preset, that matches no
chased summand draws a ``warning:`` line on standard error.

Each subcommand is declared once, in ``_COMMANDS`` (name, help, handler, flags),
and each flag once, in ``_OPTIONS``; ``build_parser`` and ``main`` read both.
``main`` builds the subparser of the invoked subcommand alone, with the usage
line and every message unchanged.

Every markdown table and CSV listing goes through one writer, ``_table``,
and every cell through one rule, ``_cell``: a weight tuple is ``(w)`` in
markdown and ``"w"`` in CSV (quoted even at length 1), an interval
``[lo, hi]`` as ``_values_json`` lists it is ``[lo,hi]`` in markdown and
``lo..hi`` in CSV, and any other value is ``str(value)``.  Ext groups, from
``ext``, ``sym`` and ``table1`` alike, have one writer, ``_print_ext``.

Every JSON report goes through one writer, ``_dump``, and is byte for byte
``json.dumps(obj, sort_keys=True, indent=2)``.  Before CPython 3.13 ``json``
drops to its pure-Python encoder whenever ``indent`` is set, about a third of
the run of ``ext --lambda 8,4,2,0 --summands`` (a 0.7 MB report); ``_dump``
joins each container's parts as strings in about half that time, and does so
on every interpreter, so one code path writes every report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import zip_longest
from json.encoder import encode_basestring_ascii

from . import bwb, ext, koszul, plethysm, reference, ring, schur
from .partitions import format_weight, normalize, parse_weight

__all__ = ["main"]


def _rational(x: Fraction) -> str | int:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _dump(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for ``str``-keyed payloads.

    Plain ints are written with ``repr`` and keys with ``json``'s own
    ``encode_basestring_ascii``; strings, floats, ``True``, ``False``,
    ``None`` and empty containers go to ``json.dumps``.
    """
    if type(obj) is int:
        return repr(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        parts = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        parts = [_dump(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    return json.dumps(obj)


def _decomposition_json(terms) -> list[dict]:
    return [{"weight": w, "mult": m} for w, m in sorted(terms.items(), reverse=True)]


def _cell(value, fmt: str) -> str:
    """One table cell, by the rules in the module docstring."""
    if isinstance(value, tuple):
        text = format_weight(value)
        return f'"{text}"' if fmt == "csv" else f"({text})"
    if isinstance(value, list):
        lo, hi = value
        return f"{lo}..{hi}" if fmt == "csv" else f"[{lo},{hi}]"
    return str(value)


def _table(fmt: str, header, rows) -> str:
    """The one table writer: CSV lines or a markdown table, cells by ``_cell``."""
    lines = [[_cell(v, fmt) for v in row] for row in [header, *rows]]
    if fmt == "csv":
        return "\n".join(map(",".join, lines))
    out = ["| " + " | ".join(cells) + " |" for cells in lines]
    out.insert(1, "|" + "---|" * len(header))
    return "\n".join(out)


def _print_terms(terms, fmt: str) -> None:
    if fmt == "json":
        print(_dump({"terms": _decomposition_json(terms)}))
    else:
        print(_table(fmt, ["weight", "mult"], sorted(terms.items(), reverse=True)))


def _values_json(values) -> list:
    return [lo if lo == hi else [lo, hi] for lo, hi in values]


def _conflicts_json(result: koszul.ChaseResult) -> list[dict]:
    return [c._asdict() for c in result.conflicts]


def _ext_json(report: ext.ExtReport, with_summands: bool) -> dict:
    out = {
        "lambda": report.lam,
        "canonical": report.canonical._asdict(),
        "ext": _values_json(report.values),
        "exact": report.exact,
        "bounded_degrees": report.bounded_degrees(),
        "chi": report.chi_check,
    }
    if with_summands:
        out["summands"] = [
            {
                "weight": s.q_weight,
                "twist": s.twist,
                "mult": s.multiplicity,
                "values": _values_json(res.values),
                "conflicts": _conflicts_json(res),
            }
            for s, res in report.summands
        ]
    return out


def _diff_note(cells) -> str:
    notes = []
    for cell in cells:
        if cell.status == "annotated":
            notes.append(f"{cell.column}: computed {cell.computed}, printed {cell.printed}")
        elif cell.status == "mismatch":
            notes.append(f"{cell.column}: MISMATCH (printed {cell.printed})")
    if notes:
        return "; ".join(notes)
    if cells and all(cell.printed is None for cell in cells):
        return "no published value"
    return "matches"


def _overrides_from_args(args):
    if args.overrides is None:  # "" is a file name that fails to load
        return ()
    return koszul.load_overrides(args.overrides)


def _warn_unmatched(args, overrides, chased) -> None:
    """Warn about each override whose (q_weight, twist), ``normalize``d like the
    names in ``chased``, is not among them; a preset spans many runs: silent."""
    if overrides and args.overrides not in koszul.PRESETS:
        chased = set(chased)
        for i, ov in enumerate(overrides):
            if (ov.q_weight, ov.twist) not in chased:
                print(f"warning: override {i}: no summand chased here has q_weight "
                      f"({format_weight(ov.q_weight)}) and twist {ov.twist}", file=sys.stderr)


# Every flag a subcommand may take, with its ``add_argument`` keywords.
_OPTIONS = {
    "--lambda": dict(dest="lam", required=True, metavar="W",
                     help="comma-separated weight, e.g. 3,2,1,0"),
    "--mu": dict(required=True, metavar="W"),
    "--m": dict(type=int, required=True),
    "--rank": dict(type=int, default=4),
    "--boxes": dict(type=int, required=True, metavar="M"),
    "--twist": dict(type=int, default=0, help="power of O(1); negative for down twists"),
    "--overrides": dict(metavar="PRESET|FILE", default=None),
    "--format": dict(dest="fmt", default="json", choices=["json", "markdown", "csv"]),
    "--summands": dict(action="store_true",
                       help="include the per-summand breakdown (JSON only)"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error (2 means bounded)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; when ``command`` names a subcommand, only its subparser."""
    parser = _Parser(
        prog="dvschur",
        description="Exact cohomology of Schur functors of the quotient bundle "
        "on the very general Debarre-Voisin fourfold.",
        allow_abbrev=False,
    )
    chosen = {command: _COMMANDS[command]} if command in _COMMANDS else _COMMANDS
    # with one subparser the usage line must still list every subcommand
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(chosen) == 1 else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, _, flags) in chosen.items():
        sub = subs.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags:
            sub.add_argument(flag, **_OPTIONS[flag])
    return parser


def _cmd_lr(args) -> int:
    lam = parse_weight(args.lam)
    mu = parse_weight(args.mu)
    _print_terms(schur.lr_coefficients(lam, mu, args.rank), args.fmt)
    return 0


def _cmd_pieri(args) -> int:
    lam = parse_weight(args.lam)
    _print_terms(schur.pieri(lam, args.boxes, args.rank), args.fmt)
    return 0


def _cmd_bwb(args) -> int:
    lam = parse_weight(args.lam, 4)
    mu = parse_weight(args.mu, 6)
    res = bwb.bott(lam, mu)
    if res is None:
        print(_dump({"acyclic": True}))
    else:
        print(_dump({
            "acyclic": False,
            "degree": res.degree,
            "weight": res.gl10_weight,
            "dim": res.dim,
        }))
    return 0


def _cmd_koszul_table(args) -> int:
    columns = plethysm.koszul_factor_table()
    if args.fmt == "markdown":  # columns p = 0..10 as a grid
        shown = [sorted(col, reverse=True) for col in columns[:11]]
        header = [f"p={p}" for p in range(len(shown))]
        print(_table("markdown", header, zip_longest(*shown, fillvalue="-")))
    elif args.fmt == "csv":
        rows = [
            (p, w, m) for p, col in enumerate(columns)
            for w, m in sorted(col.items(), reverse=True)
        ]
        print(_table("csv", ["p", "weight", "mult"], rows))
    else:
        print(_dump({
            "columns": [
                {"p": p, "factors": _decomposition_json(col)}
                for p, col in enumerate(columns)
            ],
            "published_mismatches": reference.koszul_mismatches(columns),
        }))
    return 0


def _cmd_cohomology(args) -> int:
    lam = parse_weight(args.lam, 4)
    overrides = _overrides_from_args(args)
    page = koszul.e1_page((lam, args.twist))
    result = koszul.chase(page, overrides)
    _warn_unmatched(args, overrides, [normalize(lam, args.twist)])
    print(_dump({
        "q_weight": lam,
        "twist": args.twist,
        "values": _values_json(result.values),
        "exact": result.exact,
        "conflicts": _conflicts_json(result),
        "euler": result.euler,
        "entries": [
            {"p": p, "q": q, "total_degree": q - p, "dim": dim,
             "constituents": [{"weight": w, "mult": m}
                              for w, m in koszul.constituents(page, (p, q))]}
            for (p, q), dim in page.entries
        ],
    }))
    return 0 if result.exact else 2


def _print_ext(reports, fmt: str, payload, diff_cells=None) -> None:
    """The one Ext writer: ``payload`` as JSON, or one table row per report."""
    if fmt == "json":
        print(_dump(payload))
        return
    header = ["lambda", "hom", "ext1", "ext2", "ext3", "ext4", "chi"]
    rows = [[r.lam, *_values_json(r.values), r.chi_check] for r in reports]
    if fmt == "csv":
        header.append("exact")
        rows = [[*row, r.exact] for row, r in zip(rows, reports)]
    elif diff_cells is not None:
        header.append("vs published")
        rows = [[*row, _diff_note([c for c in diff_cells if c.lam == r.lam])]
                for row, r in zip(rows, reports)]
    print(_table(fmt, header, rows))


def _cmd_ext(args) -> int:
    if args.summands and args.fmt != "json":
        raise ValueError("--summands needs --format json")
    return _run_ext(args, parse_weight(args.lam, 4), args.summands)


def _cmd_sym(args) -> int:
    if args.m < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return _run_ext(args, (args.m, 0, 0, 0), False)


def _run_ext(args, lam, with_summands: bool) -> int:
    overrides = _overrides_from_args(args)
    report = ext.ext_groups(lam, overrides)
    _warn_unmatched(args, overrides, (s.normalized() for s, _ in report.summands))
    _print_ext([report], args.fmt, _ext_json(report, with_summands))
    return 0 if report.exact else 2


def _cmd_table1(args) -> int:
    overrides = _overrides_from_args(args)
    reports = ext.reproduce_table1(overrides)
    _warn_unmatched(args, overrides, (s.normalized() for r in reports for s, _ in r.summands))
    cells = reference.diff_against_paper(reports)
    bad = reference.unannotated_mismatches(cells)
    payload = {
        "rows": [_ext_json(r, False) for r in reports],
        "diff": [
            {"lambda": c.lam, "column": c.column, "computed": c.computed,
             "printed": c.printed, "status": c.status}
            for c in cells
        ],
        "unannotated_mismatches": len(bad),
    }
    _print_ext(reports, args.fmt, payload, cells)
    return 0 if not bad else 1


def _cmd_chern(args) -> int:
    lam = parse_weight(args.lam, 4)
    ch = ring.ch_oracle(lam)
    delta = ring.discriminant(lam)
    report = ring.atomicity_report(lam)
    print(_dump({
        "lambda": lam,
        "canonical": report.canonical._asdict(),
        "rank": int(ch.one),
        "ch": {
            "0": _rational(ch.one),
            "2": {"h": _rational(ch.h)},
            "4": {"h2": _rational(ch.h2), "ch2": _rational(ch.ch2)},
            "6": {"ch3": _rational(ch.ch3)},
            "8": {"pt": _rational(ch.pt)},
        },
        "delta_as_multiple_of_c2": _rational(ring.c2x_multiple(delta)),
        "xi_integral": _rational(ring.xi_end_integral(lam)),
        "chi": report.chi,
        "atomic": _atomic_json(report),
    }))
    return 0


def _atomic_json(report: ring.AtomicityReport) -> dict:
    return {
        "lambda": report.lam,
        "rank": report.rank,
        "chi": report.chi,
        "ratio": _rational(report.ratio),
        "necessary_test": "pass" if report.necessary_pass else "fail",
        "sym_certificate": (
            "absent" if report.sym_certificate is None
            else "present" if report.sym_certificate else "failed"
        ),
        "atomic": report.atomic,
    }


def _cmd_atomic(args) -> int:
    lam = parse_weight(args.lam, 4)
    print(_dump(_atomic_json(ring.atomicity_report(lam))))
    return 0


# One declaration per subcommand: name -> (help, handler, flags in --help order).
_COMMANDS = {
    "lr": ("Littlewood-Richardson product", _cmd_lr,
           ("--lambda", "--mu", "--rank", "--format")),
    "pieri": ("Pieri rule (tensor by a symmetric power)", _cmd_pieri,
              ("--lambda", "--rank", "--format", "--boxes")),
    "bwb": ("cohomology of one homogeneous bundle", _cmd_bwb, ("--lambda", "--mu")),
    "koszul-table": ("factor table of the resolution", _cmd_koszul_table, ("--format",)),
    "cohomology": ("chase a single twisted summand", _cmd_cohomology,
                   ("--lambda", "--twist", "--overrides")),
    "ext": ("Ext groups of a Schur functor", _cmd_ext,
            ("--lambda", "--overrides", "--format", "--summands")),
    "table1": ("reproduce the published Ext table", _cmd_table1,
               ("--overrides", "--format")),
    "sym": ("Ext groups of a symmetric power", _cmd_sym, ("--m", "--overrides", "--format")),
    "chern": ("Chern data of a Schur functor", _cmd_chern, ("--lambda",)),
    "atomic": ("atomicity test of a Schur functor", _cmd_atomic, ("--lambda",)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, handler, _ = _COMMANDS[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe fails here or in print
    except ValueError as exc:  # koszul.OverrideError is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # koszul.alternating_sum's sign is a float
        print(f"error: {exc} (a page's Euler characteristic is a float)", file=sys.stderr)
        return 1
    except BrokenPipeError:  # quiet the flush at exit: the Python signal docs' recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
