"""Twisted Koszul complexes on Gr(6,10): first page, rank overrides, chase.

The structure sheaf of the fourfold is resolved by the exterior powers of the
third wedge of the tautological bundle.  Twisting by an irreducible bundle
and taking cohomology termwise gives a first page whose entry at (p, q) is
the degree-q cohomology of the p-th term; a potential differential at page r
connects (p, q) to (p-r, q-r+1) and raises the total degree q-p by one.  The
chase reads only the dimension of each entry, so the page holds just that;
``constituents`` lists the GL(10) pieces of one entry on demand.  K_X is
trivial, so phi(p, q) = (20 - p, 24 - q) maps a page onto its Serre
partner's, and a summand that is its own partner builds half its page.

When two nonzero entries sit in differential position the chase alone cannot
decide the rank of the connecting map; such positions are reported as
conflicts unless an externally justified override supplies the rank.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache

from .bwb import DIM_GR, bott
from .partitions import Weight, check_dominant, normalize, open_data
from .partitions import reflect, shifted_dual, weyl_product
from .plethysm import WEDGE_RANK, koszul_factor_table

Position = tuple[int, int]
MAX_DEGREE = 4


class RankOverride(namedtuple("RankOverride", "q_weight twist source target rank note")):
    """Externally asserted rank of one potential differential.

    ``q_weight`` and ``twist`` name the summand up to the determinant and
    are stored ``normalize``d (twist is the power of O(1), so a bundle
    twisted by O(-3) has twist -3); ``source`` and ``target`` are positions.
    It validates every field, so an override file's reader only looks them up.
    """

    __slots__ = ()

    def __new__(cls, q_weight: Weight, twist: int, source: Position, target: Position,
                rank: int, note: str = ""):
        if not isinstance(q_weight, (list, tuple)):
            raise ValueError(f"field 'q_weight' is not a list of integers: {q_weight!r}")
        if not isinstance(note, str):  # the chase cache hashes every override
            raise ValueError(f"field 'note' is not a string: {note!r}")
        (p, q), (pp, qq) = source, target
        for name, value in (("twist", twist), ("rank", rank), ("source.p", p),
                            ("source.q", q), ("target.p", pp), ("target.q", qq)):
            if type(value) is not int:  # bool is not
                raise ValueError(f"field {name!r} is not an integer: {value!r}")
        q_weight, twist = normalize(check_dominant(q_weight, 4), twist)
        if not (p > pp and (q - qq) == (p - pp) - 1):
            raise ValueError(f"illegal differential position {source} -> {target}")
        if rank < 0:
            raise ValueError("override rank must be nonnegative")
        return super().__new__(cls, q_weight, twist, source, target, rank, note)


class OverrideError(ValueError):
    """An override is inconsistent with the page it is applied to."""


def build_complex(lam: Weight, d: int) -> tuple[Weight, int]:
    """The page pair of Sigma_lam Q tensor O(-d): ``(lam, -d)``, for ``e1_page``.

    A sign flip that no package path calls.  Its one caller is
    ``bench/child.py``, which times it in traced runs under a span name that
    ``tests/test_bench_contract.py`` pins.  Two tests call it to pin it,
    ``test_build_complex_terms`` and ``test_build_complex_rejects_bad_q_weight``,
    and ``tests/test_layout.py`` refuses any other call in ``src/`` or
    ``tests/``, until ROADMAP item D deletes it.
    """
    return lam, -d


def alternating_sum(cells) -> int:
    """Sum of (-1)^(q-p) dim over ((p, q), dim); the sign is a float when q < p."""
    return sum((-1) ** (q - p) * dim for (p, q), dim in cells)


class E1Page(namedtuple("E1Page", "q_weight twist entries")):
    """The first page of Sigma_q_weight Q tensor O(twist), twist the power of
    O(1): the nonzero positions (p, q), sorted, with dimensions."""

    __slots__ = ()

    @property
    def euler(self) -> int:
        return alternating_sum(self.entries)


def e1_page(cx: tuple[Weight, int]) -> E1Page:
    """The first page of Sigma_q_weight Q tensor O(twist), for ``cx = (q_weight,
    twist)`` with twist the power of O(1).  O(1) is det Q, so the bundle is
    Sigma_(q_weight + twist) Q and term p is column p of ``koszul_factor_table()``.
    The one check that q_weight is dominant of length 4 and twist an ``int``
    (not ``bool``; a float would make float entries), whoever built the pair.
    Then the rule of ``bwb.bott`` without its memo, summed per position:
    ``partitions.reflect`` of ``(q_weight + twist) + mu`` gives q, or None
    (acyclic), and ``partitions.weyl_product`` the dimension, both as for
    ``q_weight + (mu - twist)``, since a uniform shift changes neither.
    A summand that is its own ``serre_partner`` walks columns 0..10 only and
    mirrors columns 0..9 by phi(p, q) = (20 - p, 24 - q) onto 11..20.
    """
    lam, t = check_dominant(cx[0], 4), cx[1]
    if type(t) is not int:
        raise ValueError(f"twist {t!r} is not an integer")
    up = tuple(x + t for x in lam)
    half = normalize(lam, t) == serre_partner(lam, t)
    last = WEDGE_RANK // 2 if half else WEDGE_RANK
    dims: dict[Position, int] = {}
    for p, column in enumerate(koszul_factor_table()[:last + 1]):
        for mu, mult in column.items():
            r = reflect(up + mu)
            if r is not None:
                pos = (p, r[0])
                dims[pos] = dims.get(pos, 0) + mult * weyl_product(r[1])
    if half:  # phi(p, q) = (20 - p, 24 - q) maps the page onto itself
        dims.update([((WEDGE_RANK - p, DIM_GR - q), dim)
                     for (p, q), dim in dims.items() if p < last])
    return E1Page(lam, t, tuple(sorted(dims.items())))


def constituents(page: E1Page, pos: Position) -> tuple[tuple[Weight, int], ...]:
    """The GL(10) pieces of the entry at ``pos`` with multiplicity: ``bwb.bott``
    of q_weight and each factor of ``koszul_factor_table()`` column p lowered by
    twist, the answers of degree q."""
    p, q = pos
    out = []
    for mu, mult in koszul_factor_table()[p].items():
        res = bott(page.q_weight, tuple(x - page.twist for x in mu))
        if res is not None and res.degree == q:
            out.append((res.gl10_weight, mult))
    return tuple(out)


Conflict = namedtuple("Conflict", "source target page cap")


class Cohomology(namedtuple("Cohomology", "values")):
    """Dimensions in degrees 0..4: ``values[n] = (lo, hi)``, a single value
    when lo == hi, else a sound interval.  Exact means every degree is a
    single value, whatever conflicts a page listed on the way."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return not self.bounded_degrees()

    def bounded_degrees(self) -> tuple[int, ...]:
        return tuple(n for n, (lo, hi) in enumerate(self.values) if lo != hi)

    def value(self, n: int):
        """The dimension in degree n, or its interval (lo, hi)."""
        lo, hi = self.values[n]
        return lo if lo == hi else (lo, hi)

    def dims(self) -> tuple[int, ...]:
        if not self.exact:
            raise ValueError(f"degrees {list(self.bounded_degrees())} are bounded, not exact")
        return tuple(lo for lo, _ in self.values)


class ChaseResult(namedtuple("ChaseResult", "values conflicts euler"), Cohomology):
    """The chase of one summand: each unresolved rank varies independently
    over [0, cap] of its conflict, which makes the intervals sound."""

    __slots__ = ()

    def serre_dual(self) -> ChaseResult:
        """The override-free chase of this summand's ``serre_partner``, exactly.

        Without overrides the chase lowers no upper endpoint, so each pair in
        differential position is a conflict with cap min(dim, dim) and each lower
        endpoint is max(0, dim - sum of its caps), in any order.  K_X is trivial,
        so phi(p, q) = (20 - p, 24 - q) maps the page, and its page-r pairs target
        first, onto the partner's; sorted by (page, source), as the chase emits.
        ``euler`` is this page's: chi(F) = chi(F^*), up to ``alternating_sum``'s rounding.
        """
        dual = sorted(  # (page, source) is unique, so no two tuples tie on it
            (r, (WEDGE_RANK - pp, DIM_GR - qq), (WEDGE_RANK - p, DIM_GR - q), cap)
            for (p, q), (pp, qq), r, cap in self.conflicts
        )
        conflicts = tuple(Conflict(source, target, r, cap) for r, source, target, cap in dual)
        return ChaseResult(tuple(reversed(self.values)), conflicts, self.euler)


def serre_partner(q_weight: Weight, twist: int) -> tuple[Weight, int]:
    """The summand whose H^(4-n) is H^n of this one, ``normalize``d whatever
    name this one is given: ``serre_partner((1,1,1,1), 0)`` is O(-1)."""
    return shifted_dual(q_weight), -twist - q_weight[0]


def chase(page: E1Page, overrides=()) -> ChaseResult:
    """Process differential pages in increasing order, applying overrides.

    Only pairs in differential position are visited: the positions are
    grouped by total degree q - p, a pair is a position and an entry of the
    next degree with a smaller p', on page r = p - p' (at most 20), and the
    pairs go in (page, source) order, as a scan of every page over every
    position meets them.  Between live entries a potential differential
    either has its rank set by an override, which lowers both upper ends
    ``hi``, or is a conflict whose cap is the largest rank they allow.  A
    running ``cut`` per position adds up override ranks and caps, and each
    lower end is max(0, dim - cut): the step-by-step clamp at 0, as every
    cut is >= 0.  Page order lets an early override kill later differentials
    from the same source.  Overrides match the page's ``normalize``d name.
    """
    name = normalize(page.q_weight, page.twist)
    pending = {
        (ov.source, ov.target): ov for ov in overrides if (ov.q_weight, ov.twist) == name
    }
    hi = dict(page.entries)
    cut = dict.fromkeys(hi, 0)
    by_degree: dict[int, list[int]] = {}  # total degree -> the p of its entries
    for p, q in hi:
        by_degree.setdefault(q - p, []).append(p)
    pairs = sorted(  # (r, source, target)
        (p - pp, (p, q), (pp, pp + q - p + 1))
        for p, q in hi for pp in by_degree.get(q - p + 1, ()) if 0 < p - pp <= WEDGE_RANK
    )
    matched, conflicts = [], []
    for r, pos, target in pairs:
        ov = pending.pop((pos, target), None)
        if ov is not None:
            matched.append((pos, target))
            if ov.rank > hi[pos] or ov.rank > hi[target]:
                raise OverrideError(
                    f"override rank {ov.rank} at {pos}->{target} exceeds "
                    f"entry dimensions {hi[pos]}, {hi[target]}"
                )
            step = ov.rank
            hi[pos] -= step
            hi[target] -= step
        else:
            step = min(hi[pos], hi[target])
            if step:
                conflicts.append(Conflict(pos, target, r, step))
        cut[pos] += step
        cut[target] += step

    for ov in pending.values():
        if ov.rank > 0:
            raise OverrideError(
                f"override at {ov.source}->{ov.target} does not match any "
                f"pair of entries on the page"
            )

    euler = page.euler
    if alternating_sum(hi.items()) != euler:
        raise ArithmeticError("chase broke the Euler characteristic")

    values = [[0, 0] for _ in range(MAX_DEGREE + 1)]
    stray = {}
    for (p, q), dim in page.entries:
        if 0 <= q - p <= MAX_DEGREE:
            values[q - p][0] += max(0, dim - cut[p, q])
            values[q - p][1] += hi[p, q]
        elif hi[p, q]:
            stray[p, q] = hi[p, q]
    if stray and not conflicts:
        msg = f"determinate chase left cohomology outside degrees 0..4: {stray}"
        if matched:  # then an override's rank is at fault, not the program
            raise OverrideError(f"{msg}, after overrides at {sorted(matched)}")
        raise ArithmeticError(msg)
    return ChaseResult(tuple(map(tuple, values)), tuple(conflicts), euler)


@cache
def chase_summand(q_weight: Weight, twist: int, overrides=()) -> ChaseResult:
    """Cohomology of Sigma_q_weight Q tensor O(twist) on the fourfold, the chase
    of ``e1_page((q_weight, twist))``; pass only this summand's own overrides,
    as a tuple, so that callers share cache keys."""
    return chase(e1_page((q_weight, twist)), overrides)


def _override_from_json(obj, index: int) -> RankOverride:
    """Entry ``index`` of an override list; a missing field, or one that
    ``RankOverride`` refuses, raises OverrideError naming the entry."""

    def field(*path):
        value = obj
        for depth, key in enumerate(path, 1):
            if not isinstance(value, dict) or key not in value:
                name = ".".join(path[:depth])
                raise OverrideError(f"override {index}: missing field {name!r}")
            value = value[key]
        return value

    weight, twist, rank = field("q_weight"), field("twist"), field("rank")
    source = (field("source", "p"), field("source", "q"))
    target = (field("target", "p"), field("target", "q"))
    try:
        return RankOverride(weight, twist, source, target, rank, obj.get("note", ""))
    except ValueError as exc:  # a field RankOverride refuses
        raise OverrideError(f"override {index}: {exc}") from None


PRESETS = {"paper-4.2": "overrides_paper42.json"}


def load_overrides(source: str) -> tuple[RankOverride, ...]:
    """Resolve a preset name or a JSON file path to an override tuple; a
    preset reads its data file where a path would be opened.

    A path that cannot be read raises ValueError with the OS reason and the
    preset names; a file that is not JSON raises OverrideError naming it.
    """
    try:
        preset = PRESETS.get(source)
        file = open_data(preset) if preset else open(source, encoding="utf-8")
        with file as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"unknown override preset or unreadable override file: {source!r} "
            f"({exc.strerror}; presets: {', '.join(sorted(PRESETS))})"
        ) from None
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise OverrideError(f"{source}: not valid JSON: {exc}") from None
    items = data.get("overrides") if isinstance(data, dict) else data
    if not isinstance(items, list):
        raise OverrideError(f"{source}: expected a list of overrides")
    out = tuple(_override_from_json(obj, i) for i, obj in enumerate(items))
    seen: dict[tuple, int] = {}  # chase keeps one override per differential
    for j, ov in enumerate(out):
        i = seen.setdefault((ov.q_weight, ov.twist, ov.source, ov.target), j)
        if i != j:
            raise OverrideError(f"override {j}: same differential as override {i}")
    return out
