"""Shared randomized-instance builders for the oracle-equivalence and
selection-procedure suites, a verbatim test-double coder, and reference
versions of the mixture predictor, the name-measure DP and
``transformation_extends``."""

from fractions import Fraction

from lzlab.arith import PROB_BITS
from lzlab.bitio import MalformedInput
from lzlab.intervals import Column, Gadget, Interval, _column_maps
from lzlab.deficiency import Supermartingale, selection_threshold
from lzlab.ktmix import WEIGHT_BITS, mixture_weights
from lzlab.symbolic import BaseNode, CutNode, MFoldNode, StackNode, UnionNode

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


class _RefF:
    """Name-measure functionals of one node as reduced Fractions."""

    __slots__ = ("occ", "pre", "suf", "exa", "top")

    def __init__(self, occ=F(0), pre=None, suf=None, exa=None, top=F(0)):
        self.occ = occ
        self.pre = pre if pre is not None else {}
        self.suf = suf if suf is not None else {}
        self.exa = exa if exa is not None else {}
        self.top = top


def _ref_combine(A, B, m):
    occ = A.occ + B.occ
    for k, sv in A.suf.items():
        pv = B.pre.get(k)
        if pv is not None:
            occ += sv * pv
    pre = dict(A.pre)
    for (a, c), ev in A.exa.items():
        if c < m:
            pv = B.pre.get(c)
            if pv is not None:
                pre[a] = pre.get(a, F(0)) + ev * pv
    suf = dict(B.suf)
    top = B.top
    by_start = {}
    for (c, b), ev in B.exa.items():
        by_start.setdefault(c, []).append((b, ev))
        sv = A.suf.get(c)
        if sv is not None:
            if b == m:
                top += sv * ev
            else:
                suf[b] = suf.get(b, F(0)) + sv * ev
    exa = {}
    for (a, c), ev in A.exa.items():
        for b, ev2 in by_start.get(c, ()):
            exa[a, b] = exa.get((a, b), F(0)) + ev * ev2
    return _RefF(occ, pre, suf, exa, top)


def _ref_uniform(h, x):
    m = len(x)
    f = _RefF()
    if h >= m:
        f.occ = F(h - m + 1, 1 << m)
        f.top = F(1, 1 << m)
    for j in range(max(1, m - h), m):
        f.pre[j] = F(1, 1 << (m - j))
    for k in range(1, min(m - 1, h) + 1):
        f.suf[k] = F(1, 1 << k)
    if h < m:
        for a in range(1, m - h + 1):
            f.exa[a, a + h] = F(1, 1 << h)
    return f


def _ref_base(node, x):
    m = len(x)
    f = _RefF()
    for col in node.gadget.columns:
        g = col.width / node.width
        name = col.name
        ln = len(name)
        pos = name.find(x)
        while pos != -1:
            f.occ += g
            pos = name.find(x, pos + 1)
        if ln >= m and name.endswith(x):
            f.top += g
        for j in range(max(1, m - ln), m):
            if name.startswith(x[j:]):
                f.pre[j] = f.pre.get(j, F(0)) + g
        for k in range(1, min(m - 1, ln) + 1):
            if name.endswith(x[:k]):
                f.suf[k] = f.suf.get(k, F(0)) + g
        if ln < m:
            pos = x.find(name, 1)
            while pos != -1 and pos + ln <= m:
                key = (pos, pos + ln)
                f.exa[key] = f.exa.get(key, F(0)) + g
                pos = x.find(name, pos + 1)
    return f


def reference_name_measure(node, x, force_generic=False):
    """(plain, restricted) name measure of x by the Fraction DP that
    ``symbolic.name_measure`` must match exactly."""
    if x == "":
        return node.support, node.support
    m = len(x)
    cache = {}

    def power(f, k):
        result = None
        while k:
            if k & 1:
                result = f if result is None else _ref_combine(result, f, m)
            k >>= 1
            if k:
                f = _ref_combine(f, f, m)
        return result

    def functionals(n):
        got = cache.get(id(n))
        if got is not None:
            return got
        if n.uniform_height is not None and not force_generic:
            f = _ref_uniform(n.uniform_height, x)
        elif isinstance(n, BaseNode):
            f = _ref_base(n, x)
        elif isinstance(n, CutNode):
            f = functionals(n.child)
        elif isinstance(n, UnionNode):
            f = _RefF()
            for c in n.children:
                u = c.width / n.width
                g = functionals(c)
                f.occ += g.occ * u
                f.top += g.top * u
                for acc, part in ((f.pre, g.pre), (f.suf, g.suf), (f.exa, g.exa)):
                    for k, v in part.items():
                        acc[k] = acc.get(k, F(0)) + v * u
        elif isinstance(n, StackNode):
            f = _ref_combine(functionals(n.lower), functionals(n.upper), m)
        elif isinstance(n, MFoldNode):
            f = power(functionals(n.child), n.m)
        else:
            raise TypeError(f"unknown node kind {n.kind}")
        cache[id(n)] = f
        return f

    f = functionals(node)
    return node.width * f.occ, node.width * (f.occ - f.top)


def transformation_extends_pairwise(small, big):
    """``transformation_extends`` as first written: every domain of small
    against every domain of big."""
    big_maps = list(_column_maps(big))
    for dom, shift in _column_maps(small):
        covered = F(0)
        for bdom, bshift in big_maps:
            lo = max(dom.left, bdom.left)
            hi = min(dom.right, bdom.right)
            if lo >= hi:
                continue
            if bshift != shift:
                return False
            covered += hi - lo
        if covered != dom.width:
            return False
    return True
