"""Twisted Koszul complexes on Gr(6,10): first page, rank overrides, chase.

The structure sheaf of the fourfold is resolved by the exterior powers of the
third wedge of the tautological bundle.  Twisting by an irreducible bundle
and taking cohomology termwise gives a first page whose entry at (p, q) is
the degree-q cohomology of the p-th term; a potential differential at page r
connects (p, q) to (p-r, q-r+1) and raises the total degree q-p by one.  The
chase reads only the dimension of each entry, so the page holds just that;
``constituents`` lists the GL(10) pieces of one entry on demand.

When two nonzero entries sit in differential position the chase alone cannot
decide the rank of the connecting map; such positions are reported as
conflicts unless an externally justified override supplies the rank.
"""

from __future__ import annotations

import json
from functools import cache

from .bwb import DIM_GR, bott
from .partitions import Weight, check_dominant, is_dominant, normalize, open_data, record
from .partitions import reflect, shifted_dual, weyl_product
from .plethysm import WEDGE_RANK, koszul_factor_table

Position = tuple[int, int]
MAX_DEGREE = 4


@record
class RankOverride:
    """Externally asserted rank of one potential differential.

    ``q_weight`` and ``twist`` name the summand up to the determinant and
    are stored ``normalize``d (twist is the power of O(1), so a bundle
    twisted by O(-3) has twist -3).
    """

    q_weight: Weight
    twist: int
    source: Position
    target: Position
    rank: int
    note: str = ""

    def __post_init__(self):
        if len(self.q_weight) != 4 or not is_dominant(self.q_weight):  # no page has it
            raise ValueError(f"q_weight {self.q_weight} is not dominant of length 4")
        q_weight, twist = normalize(tuple(self.q_weight), self.twist)
        object.__setattr__(self, "q_weight", q_weight)  # frozen: set once, here
        object.__setattr__(self, "twist", twist)
        p, q = self.source
        pp, qq = self.target
        if not (p > pp and (q - qq) == (p - pp) - 1):
            raise ValueError(
                f"illegal differential position {self.source} -> {self.target}"
            )
        if self.rank < 0:
            raise ValueError("override rank must be nonnegative")


class OverrideError(ValueError):
    """An override is inconsistent with the page it is applied to."""


def build_complex(lam: Weight, d: int) -> tuple[Weight, int]:
    """Koszul resolution of Sigma_lam Q tensor O(-d) on the fourfold: the pair
    (lam validated, twist -d); term p is factor-table column p raised by d.

    ``d`` counts down twists, against every other twist in the package (the
    power of O(1), here ``-d``).  It stays while ``bench/child.py`` calls
    ``build_complex(q_weight, -twist)``; ROADMAP item D removes it.
    """
    return check_dominant(lam, 4), -d


@record
class E1Page:
    """The first page: the nonzero positions (p, q), sorted, with dimensions."""

    q_weight: Weight
    twist: int  # the power of O(1)
    entries: tuple[tuple[Position, int], ...]

    @property
    def euler(self) -> int:
        return sum((-1) ** (q - p) * dim for (p, q), dim in self.entries)


def e1_page(cx: tuple[Weight, int]) -> E1Page:
    """Apply Borel-Weil-Bott to every factor and sum the dimensions per position.

    The rule of ``bwb.bott`` without its validation or memo on the pair
    ``cx = (q_weight, twist)`` of ``build_complex``, which validated q_weight
    (factor weights are dominant by construction):
    ``partitions.reflect`` of ``q_weight + (mu - twist)`` gives the degree q,
    or None (acyclic), and ``partitions.weyl_product`` the dimension.
    """
    lam, t = cx
    dims: dict[Position, int] = {}
    for p, column in enumerate(koszul_factor_table()):
        for mu, mult in column.items():
            r = reflect(lam + tuple(x - t for x in mu))
            if r is not None:
                pos = (p, r[0])
                dims[pos] = dims.get(pos, 0) + mult * weyl_product(r[1])
    return E1Page(lam, t, tuple(sorted(dims.items())))


def constituents(page: E1Page, pos: Position) -> tuple[tuple[Weight, int], ...]:
    """The GL(10) pieces of the entry at ``pos`` with multiplicity: ``bwb.bott``
    on each factor of column p raised by -twist, the answers of degree q."""
    p, q = pos
    out = []
    for mu, mult in koszul_factor_table()[p].items():
        res = bott(page.q_weight, tuple(x - page.twist for x in mu))
        if res is not None and res.degree == q:
            out.append((res.gl10_weight, mult))
    return tuple(out)


@record
class Conflict:
    source: Position
    target: Position
    page: int
    cap: int


@record
class Cohomology:
    """Dimensions in degrees 0..4: ``values[n] = (lo, hi)``, a single value
    when lo == hi, else a sound interval.  Exact means every degree is a
    single value, whatever conflicts a page listed on the way."""

    values: tuple[tuple[int, int], ...]

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


@record
class ChaseResult(Cohomology):
    """The chase of one summand: each unresolved rank varies independently
    over [0, cap] of its conflict, which makes the intervals sound."""

    conflicts: tuple[Conflict, ...]
    euler: int

    def serre_dual(self) -> ChaseResult:
        """The override-free chase of this summand's ``serre_partner``, exactly.

        Without overrides the chase lowers no upper endpoint, so each pair in
        differential position is a conflict with cap min(dim, dim) and each lower
        endpoint is max(0, dim - sum of its caps), in any order.  K_X is trivial,
        so phi(p, q) = (20 - p, 24 - q) maps the page, and its page-r pairs target
        first, onto the partner's; sorted by (page, source), as the chase emits.
        ``euler`` is this page's: chi(F) = chi(F^*), up to E1Page.euler's rounding.
        """
        def phi(p, q):
            return WEDGE_RANK - p, DIM_GR - q
        dual = [Conflict(phi(*c.target), phi(*c.source), c.page, c.cap)
                for c in self.conflicts]
        dual.sort(key=lambda c: (c.page, c.source))
        return ChaseResult(tuple(reversed(self.values)), tuple(dual), self.euler)


def serre_partner(q_weight: Weight, twist: int) -> tuple[Weight, int]:
    """The summand (last weight entry 0) whose H^(4-n) is H^n of this one."""
    return shifted_dual(q_weight), -twist - q_weight[0]


def chase(page: E1Page, overrides=()) -> ChaseResult:
    """Process differential pages in increasing order, applying overrides.

    A potential differential between live entries either has its rank
    supplied by an override (both endpoints are reduced by it) or is recorded
    as a conflict, widening both endpoints' intervals by the maximal possible
    rank.  Processing in page order lets an early override kill later
    potential differentials from the same source.  Overrides match the
    page's ``normalize``d name.
    """
    name = normalize(page.q_weight, page.twist)
    by_pos = {
        (ov.source, ov.target): ov for ov in overrides if (ov.q_weight, ov.twist) == name
    }
    bounds = {pos: [dim, dim] for pos, dim in page.entries}
    euler = page.euler
    conflicts: list[Conflict] = []
    consumed = set()

    for r in range(1, WEDGE_RANK + 1):
        for pos in sorted(bounds):
            p, q = pos
            target = (p - r, q - r + 1)
            if target not in bounds:
                continue
            src = bounds[pos]
            tgt = bounds[target]
            ov = by_pos.get((pos, target))
            if ov is not None:
                consumed.add((pos, target))
                if ov.rank > src[1] or ov.rank > tgt[1]:
                    raise OverrideError(
                        f"override rank {ov.rank} at {pos}->{target} exceeds "
                        f"entry dimensions {src[1]}, {tgt[1]}"
                    )
                for entry in (src, tgt):
                    entry[0] = max(0, entry[0] - ov.rank)
                    entry[1] -= ov.rank
            elif src[1] == 0 or tgt[1] == 0:
                continue
            else:
                cap = min(src[1], tgt[1])
                conflicts.append(Conflict(pos, target, r, cap))
                src[0] = max(0, src[0] - cap)
                tgt[0] = max(0, tgt[0] - cap)

    for key, ov in by_pos.items():
        if key not in consumed and ov.rank > 0:
            raise OverrideError(
                f"override at {ov.source}->{ov.target} does not match any "
                f"pair of entries on the page"
            )

    check = sum((-1) ** (q - p) * hi for (p, q), (lo, hi) in bounds.items())
    if check != euler:
        raise ArithmeticError("chase broke the Euler characteristic")

    if not conflicts:
        stray = {pos: hi for pos, (lo, hi) in bounds.items()
                 if hi and not 0 <= pos[1] - pos[0] <= MAX_DEGREE}
        if stray:
            msg = f"determinate chase left cohomology outside degrees 0..4: {stray}"
            if consumed:  # then an override's rank is at fault, not the program
                raise OverrideError(f"{msg}, after overrides at {sorted(consumed)}")
            raise ArithmeticError(msg)

    values = []
    for n in range(MAX_DEGREE + 1):
        lo = sum(b[0] for (p, q), b in bounds.items() if q - p == n)
        hi = sum(b[1] for (p, q), b in bounds.items() if q - p == n)
        values.append((lo, hi))
    return ChaseResult(tuple(values), tuple(conflicts), euler)


@cache
def chase_summand(q_weight: Weight, twist: int, overrides=()) -> ChaseResult:
    """Cohomology of Sigma_q_weight Q tensor O(twist) on the fourfold."""
    page = e1_page(build_complex(q_weight, -twist))
    return chase(page, overrides)


def _override_from_json(obj, index: int) -> RankOverride:
    """Entry ``index`` of an override list; a missing or mistyped field
    raises OverrideError naming the entry and the field."""

    def field(*path):
        value = obj
        for depth, key in enumerate(path, 1):
            if not isinstance(value, dict) or key not in value:
                name = ".".join(path[:depth])
                raise OverrideError(f"override {index}: missing field {name!r}")
            value = value[key]
        return value

    def integer(*path):
        value = field(*path)
        if type(value) is not int:
            raise OverrideError(
                f"override {index}: field {'.'.join(path)!r} is not an integer: {value!r}"
            )
        return value

    weight = field("q_weight")
    if not isinstance(weight, list) or any(type(x) is not int for x in weight):
        raise OverrideError(
            f"override {index}: field 'q_weight' is not a list of integers: {weight!r}"
        )
    twist, rank = integer("twist"), integer("rank")
    source = (integer("source", "p"), integer("source", "q"))
    target = (integer("target", "p"), integer("target", "q"))
    note = obj.get("note", "")
    if not isinstance(note, str):  # the chase cache hashes every override
        raise OverrideError(f"override {index}: field 'note' is not a string: {note!r}")
    try:
        return RankOverride(tuple(weight), twist, source, target, rank, note)
    except ValueError as exc:  # bad q_weight, illegal differential position or rank
        raise OverrideError(f"override {index}: {exc}") from None


def _overrides_from_json(items) -> tuple[RankOverride, ...]:
    out = tuple(_override_from_json(obj, i) for i, obj in enumerate(items))
    seen: dict[tuple, int] = {}  # chase keeps one override per differential
    for j, ov in enumerate(out):
        i = seen.setdefault((ov.q_weight, ov.twist, ov.source, ov.target), j)
        if i != j:
            raise OverrideError(f"override {j}: same differential as override {i}")
    return out


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
    return _overrides_from_json(items)
