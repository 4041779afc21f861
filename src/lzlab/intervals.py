"""Geometric types that base gadgets are built from: intervals, columns and
gadgets.

Everything here is exact rational.  A gadget is capped at
MAX_EXPLICIT_COLUMNS columns; cutting and stacking happen in
:mod:`lzlab.symbolic`, which never materializes its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


MAX_EXPLICIT_COLUMNS = 4096


class GadgetError(ValueError):
    pass


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

    def split(self, gamma) -> list["Interval"]:
        """Left-to-right split into parts proportional to gamma."""
        points = [self.left]
        for g in gamma:
            points.append(points[-1] + self.width * g)
        if points[-1] != self.right:
            raise GadgetError("split proportions do not sum to 1")
        return [Interval(a, b) for a, b in zip(points, points[1:])]


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

    def __init__(self, columns):
        columns = list(columns)
        if not columns:
            raise GadgetError("gadget needs at least one column")
        if len(columns) > MAX_EXPLICIT_COLUMNS:
            raise GadgetError(
                f"explicit gadget too large ({len(columns)} columns); use the symbolic layer"
            )
        self.columns = columns
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

    @property
    def min_height(self) -> int:
        return min(c.height for c in self.columns)

    @property
    def max_height(self) -> int:
        return max(c.height for c in self.columns)


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
