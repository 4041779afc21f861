"""Explicit cutting-and-stacking calculus: intervals, columns, gadgets.

Everything here is exact rational and geometric.  This layer is the
brute-force oracle for the symbolic layer and is capped at
MAX_EXPLICIT_COLUMNS columns; large constructions live in
:mod:`lzlab.symbolic`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction


MAX_EXPLICIT_COLUMNS = 4096


class GadgetError(ValueError):
    pass


class UnrelatedGadgets(GadgetError):
    """Raised when an intersection query is asked of gadgets that were not
    produced from one another by cutting and stacking."""


@dataclass(frozen=True)
class Interval:
    left: Fraction
    right: Fraction

    def __post_init__(self):
        if not (0 <= self.left < self.right <= 1):
            raise GadgetError(f"bad interval [{self.left}, {self.right})")

    @property
    def width(self) -> Fraction:
        return self.right - self.left

    def contains(self, other: "Interval") -> bool:
        return self.left <= other.left and other.right <= self.right

    def overlaps(self, other: "Interval") -> bool:
        return self.left < other.right and other.left < self.right

    def split(self, gamma) -> list["Interval"]:
        """Left-to-right split into parts proportional to gamma."""
        points = [self.left]
        for g in gamma:
            points.append(points[-1] + self.width * g)
        if points[-1] != self.right:
            raise GadgetError("split proportions do not sum to 1")
        return [Interval(a, b) for a, b in zip(points, points[1:])]


@dataclass(frozen=True)
class Partition:
    """Binary partition of [0,1): pi_1 is the marked set, pi_0 the rest."""

    ones: tuple[Interval, ...]

    def classify(self, iv: Interval) -> str:
        for one in self.ones:
            if one.contains(iv):
                return "1"
            if one.overlaps(iv):
                raise GadgetError("interval straddles the partition")
        return "0"


@dataclass(frozen=True)
class Column:
    levels: tuple[Interval, ...]
    name: str

    def __post_init__(self):
        if not self.levels:
            raise GadgetError("column needs at least one level")
        w = self.levels[0].width
        if any(lv.width != w for lv in self.levels):
            raise GadgetError("column levels must share one width")
        if len(self.name) != len(self.levels):
            raise GadgetError("name length must equal height")

    @property
    def width(self) -> Fraction:
        return self.levels[0].width

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def support_measure(self) -> Fraction:
        return self.width * self.height


class Gadget:
    """A finite collection of disjoint columns."""

    def __init__(self, columns, check: bool = True):
        columns = list(columns)
        if not columns:
            raise GadgetError("gadget needs at least one column")
        if len(columns) > MAX_EXPLICIT_COLUMNS:
            raise GadgetError(
                f"explicit gadget too large ({len(columns)} columns); use the symbolic layer"
            )
        self.columns = columns
        if check:
            self.check_disjoint()

    def check_disjoint(self) -> None:
        ivs = sorted(
            (iv for col in self.columns for iv in col.levels),
            key=lambda iv: iv.left,
        )
        for a, b in zip(ivs, ivs[1:]):
            if b.left < a.right:
                raise GadgetError("columns overlap")

    @property
    def width(self) -> Fraction:
        return sum((c.width for c in self.columns), Fraction(0))

    @property
    def support_measure(self) -> Fraction:
        return sum((c.support_measure for c in self.columns), Fraction(0))

    def distribution(self) -> list[Fraction]:
        w = self.width
        return [c.width / w for c in self.columns]

    @property
    def min_height(self) -> int:
        return min(c.height for c in self.columns)

    @property
    def max_height(self) -> int:
        return max(c.height for c in self.columns)


def column_from_interval(iv: Interval, parts: int, partition: Partition) -> Column:
    """Cut an interval into equal parts and stack them bottom-to-top,
    naming each level by the partition element containing it."""
    gamma = [Fraction(1, parts)] * parts
    levels = tuple(iv.split(gamma))
    name = "".join(partition.classify(lv) for lv in levels)
    return Column(levels, name)


def cut_into_copies(g: Gadget, gamma) -> list[Gadget]:
    """Cut a gadget into len(gamma) copies with width shares gamma.

    Copy m takes the m-th left-to-right slice of every interval; copies have
    the original's distribution and names, and their supports tile the
    original support exactly.
    """
    gamma = list(gamma)
    if any(x <= 0 for x in gamma) or sum(gamma) != 1:
        raise GadgetError("gamma must be positive and sum to 1")
    split_cols = [[lv.split(gamma) for lv in col.levels] for col in g.columns]
    pieces = []
    for m in range(len(gamma)):
        cols = [
            Column(tuple(splits[m] for splits in levels), col.name)
            for levels, col in zip(split_cols, g.columns)
        ]
        pieces.append(Gadget(cols, check=False))
    return pieces


def stack_columns(lower: Column, upper: Column) -> Column:
    """Stack one column onto another: heights add, names concatenate."""
    if lower.width != upper.width:
        raise GadgetError("stacked columns must share width")
    if any(a.overlaps(b) for a in lower.levels for b in upper.levels):
        raise GadgetError("stacked columns must have disjoint supports")
    return Column(lower.levels + upper.levels, lower.name + upper.name)


def stack_gadgets(lower: Gadget, upper: Gadget) -> Gadget:
    """Stack ``upper`` onto ``lower``.

    Upper is cut into copies matching the widths of lower's columns; each
    lower column is cut by upper's distribution and topped column-by-column.
    Column count multiplies and every name is lower-name ++ upper-name.
    """
    if lower.width != upper.width:
        raise GadgetError("stacked gadgets must share width")
    if len(lower.columns) * len(upper.columns) > MAX_EXPLICIT_COLUMNS:
        raise GadgetError("stack result exceeds the explicit-column cap")
    dist_u = upper.distribution()
    upper_copies = cut_into_copies(upper, lower.distribution())
    out = []
    for base, ucopy in zip(lower.columns, upper_copies):
        base_splits = [lv.split(dist_u) for lv in base.levels]
        for j, ucol in enumerate(ucopy.columns):
            levels = tuple(s[j] for s in base_splits) + ucol.levels
            out.append(Column(levels, base.name + ucol.name))
    return Gadget(out, check=False)


def mfold_explicit(g: Gadget, m: int) -> Gadget:
    """M-fold independent cutting and stacking, materialized."""
    if m < 1:
        raise GadgetError("fold count must be >= 1")
    if len(g.columns) ** m > MAX_EXPLICIT_COLUMNS:
        raise GadgetError("m-fold result exceeds the explicit-column cap")
    copies = cut_into_copies(g, [Fraction(1, m)] * m)
    acc = copies[0]
    for nxt in copies[1:]:
        acc = stack_gadgets(acc, nxt)
    return acc


def union_gadgets(*gadgets) -> Gadget:
    cols = [c for g in gadgets for c in g.columns]
    return Gadget(cols)


def count_occurrences(name: str, x: str) -> int:
    """Number of start positions of x inside name (overlaps count).
    The empty word occurs once per level."""
    if not x:
        return len(name)
    count = 0
    pos = name.find(x)
    while pos != -1:
        count += 1
        pos = name.find(x, pos + 1)
    return count


def name_measure_explicit(g: Gadget, x: str, restricted: bool = False) -> Fraction:
    """Total width of levels starting a trajectory whose name extends x.

    With ``restricted`` the occurrences ending exactly at a column top are
    excluded (starts at least len(x) below the top).
    """
    total = Fraction(0)
    for col in g.columns:
        c = count_occurrences(col.name, x)
        if restricted and x and col.name.endswith(x):
            c -= 1
        total += col.width * c
    return total


def trajectory_name(g: Gadget, column_index: int, level_index: int, steps: int) -> str:
    """Name along the trajectory from a level (1-indexed) upward.

    ``steps`` applications of the column map; the result has steps+1 symbols.
    The map is undefined from the top level, so level + steps must not
    exceed the height.
    """
    col = g.columns[column_index]
    if not (1 <= level_index <= col.height):
        raise GadgetError("level out of range")
    if level_index + steps > col.height:
        raise GadgetError("trajectory runs past the top of the column")
    return col.name[level_index - 1 : level_index + steps]


def intersection_measure(upper_col: Column, lower_col: Column) -> Fraction:
    """lambda of the intersection of supports, computed geometrically.

    Every level of the upper column must lie inside or outside the lower
    column's support as a whole; partial overlap means the gadgets are not
    related by cutting and stacking.
    """
    total = Fraction(0)
    for lv in upper_col.levels:
        inside = False
        for dlv in lower_col.levels:
            if dlv.contains(lv):
                inside = True
                break
            if dlv.overlaps(lv):
                raise UnrelatedGadgets("upper level straddles a lower level")
        if inside:
            total += lv.width
    return total


def well_distributedness_explicit(lower: Gadget, upper: Gadget) -> Fraction:
    """Exact double sum of |lambda(E^ ∩ D^) - lambda(E^) lambda(D^)|."""
    total = Fraction(0)
    for dcol in lower.columns:
        ld = dcol.support_measure
        for ecol in upper.columns:
            inter = intersection_measure(ecol, dcol)
            total += abs(inter - ecol.support_measure * ld)
    return total


@dataclass
class CompletenessReport:
    stages: int
    violations: list[str] = field(default_factory=list)
    widths: list[Fraction] = field(default_factory=list)
    supports: list[Fraction] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _column_maps(g: Gadget):
    """The gadget transformation as translations: (domain interval, shift)."""
    for col in g.columns:
        for lo, hi in zip(col.levels, col.levels[1:]):
            yield lo, hi.left - lo.left


def transformation_extends(small: Gadget, big: Gadget) -> bool:
    """True when big's level-to-level map agrees with small's wherever the
    latter is defined, and covers all of it.  Big's domains are disjoint, so
    sorted by left end they are sorted by right end too: each domain of
    small bisects to its first overlap and sweeps the overlaps after it."""
    big_maps = sorted(_column_maps(big), key=lambda t: t[0].left)
    rights = [bdom.right for bdom, _ in big_maps]
    for dom, shift in _column_maps(small):
        covered = Fraction(0)
        i = bisect_right(rights, dom.left)
        while i < len(big_maps) and big_maps[i][0].left < dom.right:
            bdom, bshift = big_maps[i]
            if bshift != shift:
                return False
            covered += min(dom.right, bdom.right) - max(dom.left, bdom.left)
            i += 1
        if covered != dom.width:
            return False
    return True


def completeness_check(stages: list[Gadget]) -> CompletenessReport:
    """Check the finite prefix of a gadget sequence: widths strictly
    decreasing, supports non-decreasing, transformations extending."""
    report = CompletenessReport(stages=len(stages))
    report.widths = [g.width for g in stages]
    report.supports = [g.support_measure for g in stages]
    for i, (a, b) in enumerate(zip(stages, stages[1:])):
        if not b.width < a.width:
            report.violations.append(f"stage {i + 1}: width did not decrease")
        if b.support_measure < a.support_measure:
            report.violations.append(f"stage {i + 1}: support shrank")
        if not transformation_extends(a, b):
            report.violations.append(f"stage {i + 1}: transformation does not extend stage {i}")
    return report
