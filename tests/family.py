"""Shared randomized-instance builders for the oracle-equivalence and
selection-procedure suites, and a verbatim test-double coder."""

from fractions import Fraction

from lzlab.bitio import MalformedInput
from lzlab.intervals import Column, Gadget, Interval
from lzlab.deficiency import Supermartingale, selection_threshold

F = Fraction


def random_gadget(rng, max_cols=3, max_height=3):
    ncols = rng.randrange(1, max_cols + 1)
    cols = []
    cursor = F(0)
    for _ in range(ncols):
        h = rng.randrange(1, max_height + 1)
        w = F(1, rng.choice([16, 24, 32, 48]))
        name = "".join(rng.choice("01") for _ in range(h))
        levels = []
        for _ in range(h):
            levels.append(Interval(cursor, cursor + w))
            cursor += w + F(1, 256)
        cols.append(Column(tuple(levels), name))
    return Gadget(cols)


class DictMeasure:
    """Finite exact measure on the binary tree."""

    def __init__(self, table):
        self.table = table

    def query(self, x, eps=F(0)):
        return self.table.get(x, F(0))


def random_measure(rng, depth):
    table = {"": F(1)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            p = table[w]
            theta = F(rng.randrange(0, 9), 8)
            table[w + "0"] = p * theta
            table[w + "1"] = p * (1 - theta)
            nxt.extend([w + "0", w + "1"])
        frontier = nxt
    return DictMeasure(table)


def random_supermartingale(rng, measure, depth):
    values = {"": F(rng.randrange(1, 9), 8)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            m = values[w]
            p0 = measure.query(w + "0")
            p1 = measure.query(w + "1")
            pw = measure.query(w)
            keep = F(rng.randrange(0, 9), 8)
            share = F(rng.randrange(0, 9), 8)
            budget = keep * m * pw
            values[w + "0"] = budget * share / p0 if p0 else F(rng.randrange(0, 5))
            values[w + "1"] = budget * (1 - share) / p1 if p1 else F(rng.randrange(0, 5))
            nxt.extend([w + "0", w + "1"])
        frontier = nxt
    return Supermartingale(lambda x: values[x], measure), values


def brute_force_selection(A, x, measure, mart, mu):
    """Independent definitional scan of the selection procedure."""
    thr = selection_threshold(x, measure, mart, A, mu)
    bad = [y for y in A if any(mart.value(y[:j]) > thr for j in range(len(x), len(y) + 1))]
    return [y for y in A if not any(y.startswith(z) for z in bad)], thr


class VerbatimCoder:
    """Test double: 64-bit length header followed by the word itself."""

    name = "verbatim"

    def encode(self, x: str) -> str:
        return format(len(x), "064b") + x

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        if pos + 64 > len(bits):
            raise MalformedInput("truncated header")
        n = int(bits[pos : pos + 64], 2)
        if pos + 64 + n > len(bits):
            raise MalformedInput("truncated payload")
        return bits[pos + 64 : pos + 64 + n], 64 + n

    def prefix_bits(self, x: str, positions: list[int]) -> list[int]:
        return [64 + min(n, len(x)) for n in positions]
