"""The explicit cutting-and-stacking calculus: the brute-force oracle that
the symbolic layer is checked against.

Every operation here materializes its result as intervals, so it is capped at
MAX_EXPLICIT_COLUMNS columns.  ``materialize`` turns a symbolic tree into the
gadget its cuts, unions, stacks and m-folds describe.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from lzlab.intervals import (
    MAX_EXPLICIT_COLUMNS,
    Column,
    Gadget,
    GadgetError,
    Interval,
    count_occurrences,
)
from lzlab.symbolic import BaseNode, CutNode, MFoldNode, StackNode, UnionNode


class UnrelatedGadgets(GadgetError):
    """Raised when an intersection query is asked of gadgets that were not
    produced from one another by cutting and stacking."""


def contains(outer: Interval, inner: Interval) -> bool:
    return outer.left <= inner.left and inner.right <= outer.right


def overlaps(a: Interval, b: Interval) -> bool:
    return a.left < b.right and b.left < a.right


def distribution(g: Gadget) -> list[Fraction]:
    w = g.width
    return [c.width / w for c in g.columns]


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
        pieces.append(Gadget(cols))
    return pieces


def stack_columns(lower: Column, upper: Column) -> Column:
    """Stack one column onto another: heights add, names concatenate."""
    if lower.width != upper.width:
        raise GadgetError("stacked columns must share width")
    if any(overlaps(a, b) for a in lower.levels for b in upper.levels):
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
    dist_u = distribution(upper)
    upper_copies = cut_into_copies(upper, distribution(lower))
    out = []
    for base, ucopy in zip(lower.columns, upper_copies):
        base_splits = [lv.split(dist_u) for lv in base.levels]
        for j, ucol in enumerate(ucopy.columns):
            levels = tuple(s[j] for s in base_splits) + ucol.levels
            out.append(Column(levels, base.name + ucol.name))
    return Gadget(out)


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
            if contains(dlv, lv):
                inside = True
                break
            if overlaps(dlv, lv):
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


def materialize(node) -> Gadget:
    """The explicit gadget a symbolic node describes."""
    if isinstance(node, BaseNode):
        return node.gadget
    if isinstance(node, CutNode):
        return cut_into_copies(materialize(node.child), list(node.gamma))[node.index]
    if isinstance(node, UnionNode):
        return union_gadgets(*(materialize(c) for c in node.children))
    if isinstance(node, StackNode):
        return stack_gadgets(materialize(node.lower), materialize(node.upper))
    if isinstance(node, MFoldNode):
        return mfold_explicit(materialize(node.child), node.m)
    raise TypeError(f"unknown node kind {node.kind}")
