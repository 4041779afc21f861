"""Shared randomized-instance builders for the oracle-equivalence and
selection-procedure suites, a verbatim test-double coder, and the reference
mixture predictor."""

from fractions import Fraction

from lzlab.arith import PROB_BITS
from lzlab.bitio import MalformedInput
from lzlab.intervals import Column, Gadget, Interval
from lzlab.deficiency import Supermartingale, selection_threshold
from lzlab.ktmix import WEIGHT_BITS, mixture_weights

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


class ReferenceMixturePredictor:
    """The quantized mixture predictor as first written, kept as the oracle
    that ``QuantizedMixturePredictor`` must match value for value.

    Weights live in WEIGHT_BITS-bit registers, probabilities are emitted at
    PROB_BITS precision; every operation is integer, so encoder and
    decoder trajectories match bit for bit.
    """

    def __init__(self, kmax: int):
        self.kmax = kmax
        weights = mixture_weights(kmax)
        scale = 1 << WEIGHT_BITS
        self.w = [max(1, int(wt * scale)) for wt in weights]
        self.counts: list[dict[int, list[int]]] = [dict() for _ in range(kmax + 1)]
        self.ctx = [0] * (kmax + 1)
        self.t = 0
        # per-order (num0, den) of the next prediction; every context starts unseen
        self.terms = [(1, 2)] * (kmax + 1)

    def prob0_scaled(self) -> int:
        """Quantized P(next=0) in [1, 2**PROB_BITS - 1]."""
        terms = self.terms
        dens = 1
        for _, d in terms:
            dens *= d
        num = 0
        den = 0
        for w, (n0, d) in zip(self.w, terms):
            if not w:
                continue
            share = dens // d
            num += w * n0 * share
            den += w * dens
        c = (num << PROB_BITS) // den
        return min(max(c, 1), (1 << PROB_BITS) - 1)

    def update(self, bit: int) -> None:
        """Fold the coded bit into the weights and counts, and form the terms
        of the next prediction: (count0 + 1/2) / (total + 1) per order, in
        halves.  Order k's counts stay empty until k symbols are seen, so its
        first k predictions are 1/2."""
        terms = []
        top = 0
        for k, (n0, d) in enumerate(self.terms):
            w = self.w[k] * (n0 if bit == 0 else d - n0) // d
            self.w[k] = w
            if w > top:
                top = w
            counts = self.counts[k]
            if self.t >= k:
                counts.setdefault(self.ctx[k], [0, 0])[bit] += 1
            ctx = ((self.ctx[k] << 1) | bit) & ((1 << k) - 1)
            self.ctx[k] = ctx
            c = counts.get(ctx)
            terms.append((1, 2) if c is None else (2 * c[0] + 1, 2 * (c[0] + c[1]) + 2))
        self.terms = terms
        shift = WEIGHT_BITS - top.bit_length()
        if shift > 0:
            self.w = [w << shift for w in self.w]
        self.t += 1
