"""Shared randomized-instance builders for the oracle-equivalence and
selection-procedure suites, a seeded alpha trace prefix, a verbatim
test-double coder, and reference versions of the mixture predictor, the
name-measure DP, the well-distributedness moments, column sampling,
``transformation_extends`` (the sweep version is in explicit.py), the suffix
automaton, the window-LZ coder and the dict-of-strings LZ78 parse.

It also holds the oracles that only the tests run: supermartingales and the
bounded-increase selection procedure (acceptance criterion 3), the exact KT
mixture that ``QuantizedMixturePredictor`` quantizes, the separating-property
check over concatenated codewords, and the Kraft sum."""

import bisect
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from explicit import _column_maps
from lzlab._util import log2_fraction
from lzlab.bitio import MalformedInput, self_delimited_len
from lzlab.construction import Construction, ConstructionParams, FragmentSpec, build_alpha
from lzlab.experiments import OSCILLATION_DEFAULTS
from lzlab.intervals import Column, Gadget, Interval
from lzlab.ktmix import DEFAULT_KMAX, PROB_BITS, WEIGHT_BITS, mixture_weights
from lzlab.lz import LZWindowCoder
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


def alpha_prefix(n):
    """The first n symbols of a small seeded oscillation trace (h0 = 16, the
    default fold and fragment schedules): 2^15 symbols or more."""
    cfg = OSCILLATION_DEFAULTS
    params = ConstructionParams(r=F(1, 256), h0=16, fold_schedule=tuple(cfg["fold_schedule"]))
    specs = [FragmentSpec(s["kind"], int(s["stage"]), int(s.get("parts", 1))) for s in cfg["schedule"]]
    return build_alpha(Construction(params), specs, initial_length=24, seed=7).bits[:n]


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


class Supermartingale:
    """Nonnegative function with M(x) >= M(x0) P(0|x) + M(x1) P(1|x)."""

    def __init__(self, evaluator, measure):
        self.evaluator = evaluator
        self.measure = measure

    def value(self, x: str) -> Fraction:
        return self.evaluator(x)

    def check_inequality(self, x: str) -> bool:
        p_x = self.measure.query(x, F(0))
        if p_x == 0:
            return True
        m = self.value(x)
        total = F(0)
        for b in "01":
            p_b = self.measure.query(x + b, F(0))
            if p_b:
                total += self.value(x + b) * p_b
        return m * p_x >= total


class CodeMartingale(Supermartingale):
    """M(x) = Q(x)/P(x) with Q the code's weight mass over a finite horizon.

    Q(x) sums 2^-l(code(y)) over coded words y comparable beyond x (x <= y)
    up to the horizon depth; the code must be prefix-free, which is checked
    on the enumerated codebook.
    """

    def __init__(self, coder, measure, horizon: int):
        self.coder = coder
        self.horizon = horizon
        self.q: dict[str, Fraction] = {}
        words_by_depth = [[""]]
        for _ in range(horizon):
            words_by_depth.append([w + b for w in words_by_depth[-1] for b in "01"])
        codes = []
        weights: dict[str, Fraction] = {}
        for layer in words_by_depth:
            for w in layer:
                cw = coder.encode(w)
                codes.append(cw)
                weights[w] = F(1, 2 ** len(cw))
        codes.sort()
        for a, b in zip(codes, codes[1:]):
            if b.startswith(a):
                raise ValueError("code is not prefix-free on the horizon")
        for layer in reversed(words_by_depth):
            for w in layer:
                q = weights[w]
                if len(w) < horizon:
                    q = q + self.q[w + "0"] + self.q[w + "1"]
                self.q[w] = q

        def evaluator(x: str) -> Fraction:
            if len(x) > horizon:
                raise ValueError("beyond the martingale horizon")
            p = measure.query(x, F(0))
            if p == 0:
                return F(0)
            return self.q[x] / p

        super().__init__(evaluator, measure)


def cylinder_mass(measure, words) -> Fraction:
    """P of the union of cylinders: sum over prefix-minimal elements."""
    minimal: list[str] = []
    for w in sorted(set(words), key=len):
        if not any(w.startswith(z) for z in minimal):
            minimal.append(w)
    return sum((measure.query(w, F(0)) for w in minimal), F(0))


def selection_threshold(x: str, measure, martingale, A, mu: Fraction) -> Fraction:
    """M(x) P(x) / ((1-mu) P(A~)): the largest martingale value a selected
    prefix may take."""
    p_x = measure.query(x, F(0))
    return martingale.value(x) * p_x / ((1 - F(mu)) * cylinder_mass(measure, A))


def select_subset(A, x: str, measure, martingale: Supermartingale, mu: Fraction):
    """Bounded-increase selection.

    Removes every extension with an intermediate martingale value above
    M(x) / ((1-mu) P(A~|x)); the surviving set keeps mass > mu P(A~) and all
    its prefixes obey the log-threshold.
    """
    mu = F(mu)
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    A = list(A)
    if any(not y.startswith(x) for y in A):
        raise ValueError("every candidate must extend x")
    if measure.query(x, F(0)) == 0:
        raise ValueError("P(x) must be positive")
    if cylinder_mass(measure, A) == 0:
        raise ValueError("P(A~) must be positive")
    threshold = selection_threshold(x, measure, martingale, A, mu)
    removed_roots = []
    for y in A:
        for j in range(len(x), len(y) + 1):
            if martingale.value(y[:j]) > threshold:
                removed_roots.append(y)
                break
    survivors = [
        y for y in A if not any(y.startswith(z) for z in removed_roots)
    ]
    return survivors


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


def kt_prob(x: str, k: int) -> Fraction:
    """Exact KT probability of x under the order-k sequential estimator.

    The first k symbols are predicted with probability 1/2 each; afterwards
    the add-half rule (count + 1/2)/(total + 1) applies per context.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    num = 1
    den = 1
    counts: dict[int, list[int]] = {}
    ctx = 0
    mask = (1 << k) - 1
    for t, ch in enumerate(x):
        b = 1 if ch == "1" else 0
        if t < k:
            den <<= 1
        else:
            c = counts.get(ctx)
            if c is None:
                c = [0, 0]
                counts[ctx] = c
            num *= 2 * c[b] + 1
            den *= 2 * (c[0] + c[1]) + 2
            c[b] += 1
        ctx = ((ctx << 1) | b) & mask
    return Fraction(num, den)


def neg_log2_ceil(fr: Fraction) -> int:
    """Exact ceil(-log2(fr)) for a Fraction in (0, 1]."""
    if fr <= 0:
        raise ValueError("value must be positive")
    num, den = fr.numerator, fr.denominator
    # smallest L with fr >= 2^-L, i.e. num * 2^L >= den
    low = max(0, den.bit_length() - num.bit_length() - 1)
    L = low
    while (num << L) < den:
        L += 1
    return L


class MixtureMeasure:
    """Weighted mixture of KT estimators over orders 0..kmax (exact): the
    measure that ``QuantizedMixturePredictor`` quantizes."""

    def __init__(self, kmax: int = DEFAULT_KMAX):
        if kmax < 0:
            raise ValueError("kmax must be >= 0")
        self.kmax = kmax
        self.weights = mixture_weights(kmax)
        self.name = f"mixture(kmax={kmax})"

    def prob(self, x: str) -> Fraction:
        return sum((w * kt_prob(x, k) for k, w in enumerate(self.weights)), Fraction(0))

    def pred(self, x: str, sym: str) -> Fraction:
        """Conditional probability of the next symbol."""
        if sym not in ("0", "1"):
            raise ValueError("symbol must be '0' or '1'")
        return self.prob(x + sym) / self.prob(x)

    def query(self, x: str, eps: Fraction = Fraction(0)) -> Fraction:
        """MeasureOracle interface; the value is exact, eps is ignored."""
        return self.prob(x)

    def ideal_code_len(self, x: str) -> int:
        """ceil(-log2 rho(x)) + 1."""
        return neg_log2_ceil(self.prob(x)) + 1


def forecast_error(x: str, mu, rho: MixtureMeasure | None = None) -> float:
    """Per-symbol average log-ratio (1/t) log2(mu(x)/rho(x)).

    ``mu`` is any MeasureOracle with exact .query; zero-probability prefixes
    under mu are rejected.
    """
    if not x:
        return 0.0
    rho = rho if rho is not None else MixtureMeasure()
    t = len(x)
    mu_x = mu.query(x, Fraction(0))
    if mu_x <= 0:
        raise ValueError("mu assigns zero probability to the word")
    rho_x = rho.prob(x)
    return (log2_fraction(mu_x) - log2_fraction(rho_x)) / t


@dataclass
class DecodabilityReport:
    coder: str
    pairs_checked: int
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def decodability_check(coder, pairs: int = 1000, seed: int = 0, max_len: int = 64) -> DecodabilityReport:
    """Separating property: encode(x)++encode(y) must decode to x then y."""
    rng = random.Random(seed)
    report = DecodabilityReport(coder=getattr(coder, "name", "coder"), pairs_checked=0)

    def check(x: str, y: str) -> None:
        report.pairs_checked += 1
        stream = coder.encode(x) + coder.encode(y) + "1011"
        try:
            got_x, used_x = coder.decode(stream)
            got_y, used_y = coder.decode(stream, used_x)
        except MalformedInput as exc:
            report.failures.append((x, y, f"decode error: {exc}"))
            return
        if got_x != x or got_y != y:
            report.failures.append((x, y, "mismatch"))

    for _ in range(pairs):
        nx = rng.randrange(0, max_len + 1)
        ny = rng.randrange(0, max_len + 1)
        x = "".join(rng.choice("01") for _ in range(nx))
        y = "".join(rng.choice("01") for _ in range(ny))
        check(x, y)
    word = "".join(rng.choice("01") for _ in range(max_len))
    check(word, word[: max_len // 2])
    check("", word)
    return report


def kraft_sum(lengths) -> Fraction:
    total = Fraction(0)
    for ln in lengths:
        total += Fraction(1, 2**ln)
    return total


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


def _ref_stack_moments(a, b):
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
    )


def reference_moments(node, p, cache=None):
    """T(p, q) = sum_D gamma_D^p h_D^q for q = 0, 1, 2 by the Fraction
    recursion that ``SymbolicGadget._moments_of`` must match exactly.  ``cache``
    (a dict) shares results between calls on one tree."""
    if cache is None:
        cache = {}
    got = cache.get((id(node), p))
    if got is not None:
        return got
    if isinstance(node, BaseNode):
        t0 = t1 = t2 = F(0)
        for c in node.gadget.columns:
            gp = (c.width / node.width) ** p
            t0 += gp
            t1 += gp * c.height
            t2 += gp * c.height**2
        got = (t0, t1, t2)
    elif isinstance(node, CutNode):
        got = reference_moments(node.child, p, cache)
    elif isinstance(node, UnionNode):
        t0 = t1 = t2 = F(0)
        for c in node.children:
            u = (c.width / node.width) ** p
            s0, s1, s2 = reference_moments(c, p, cache)
            t0 += u * s0
            t1 += u * s1
            t2 += u * s2
        got = (t0, t1, t2)
    elif isinstance(node, StackNode):
        got = _ref_stack_moments(reference_moments(node.lower, p, cache),
                                 reference_moments(node.upper, p, cache))
    elif isinstance(node, MFoldNode):
        got = (F(1), F(0), F(0))
        acc = reference_moments(node.child, p, cache)
        m = node.m
        while m:
            if m & 1:
                got = _ref_stack_moments(got, acc)
            m >>= 1
            if m:
                acc = _ref_stack_moments(acc, acc)
    else:
        raise TypeError(f"unknown node kind {node.kind}")
    cache[id(node), p] = got
    return got


def reference_wd_closed(node, M, cache=None):
    """``symbolic._wd_closed`` on the reference moments."""
    W = node.width
    eta = reference_moments(node, 1, cache)[1]
    lam = node.support
    A = F(0)
    B = F(0)
    for j in range(M):
        sign = -1 if j & 1 else 1
        cmj = math.comb(M - 1, j)
        A += sign * cmj * reference_moments(node, j + 1, cache)[1]
        B += sign * cmj * reference_moments(node, j + 2, cache)[2]
    return lam * (1 - lam) + 2 * W**2 * (eta * A - B)


def reference_wd_enum(classes, W, M):
    """Well-distributedness from a class table {(g, h): n} by enumeration:
    the expectation over the class count-vectors of the M draws (built by a
    recursive closure) and the binomial split within a class.  It is the
    oracle that ``symbolic._wd_dp`` must equal."""
    K = len(classes)
    shares = [g * n for (g, _), n in classes.items()]
    heights = [h for _, h in classes]
    counts = list(classes.values())
    compositions = []

    def rec(idx, left, prob, vec):
        if idx == K - 1:
            compositions.append((tuple(vec + [left]), prob * shares[idx] ** left))
            return
        for take in range(left + 1):
            rec(idx + 1, left - take, prob * shares[idx] ** take * math.comb(left, take), vec + [take])

    rec(0, M, F(1), [])
    total = F(0)
    for k in range(K):
        n_k = counts[k]
        w_k = W * shares[k] / n_k
        exp_abs = F(0)
        for vec, p in compositions:
            H = sum(c * h for c, h in zip(vec, heights))
            q = F(1, n_k)
            for c in range(vec[k] + 1):
                pc = math.comb(vec[k], c) * q**c * (1 - q) ** (vec[k] - c)
                exp_abs += p * pc * abs(c - w_k * H)
        total += n_k * heights[k] * exp_abs
    return total * W / M


def reference_sample_column(node, rng):
    """``SymbolicGadget.sample_column`` as first written: a base or union
    node scales a 64-bit Fraction draw by its width and walks the
    cumulative widths of its columns or children."""
    if isinstance(node, (BaseNode, UnionNode)):
        parts = node.gadget.columns if isinstance(node, BaseNode) else node.children
        u = F(rng.getrandbits(64), 1 << 64) * node.width
        acc = F(0)
        for part in parts:
            acc += part.width
            if u < acc:
                break
        return part.name if isinstance(node, BaseNode) else reference_sample_column(part, rng)
    if isinstance(node, CutNode):
        return reference_sample_column(node.child, rng)
    if isinstance(node, StackNode):
        return reference_sample_column(node.lower, rng) + reference_sample_column(node.upper, rng)
    if node.uniform_height is not None:
        h = node.uniform_height
        return format(rng.getrandbits(h), f"0{h}b") if h else ""
    return "".join(reference_sample_column(node.child, rng) for _ in range(node.m))


class ReferenceSuffixAutomaton:
    """The suffix automaton as first written: five 64-bit arrays, one
    ``_extend`` call per symbol, suffix links and lengths kept."""

    def __init__(self, text):
        cap = 2 * max(1, len(text)) + 4
        self.t0 = array("l", [-1]) * cap
        self.t1 = array("l", [-1]) * cap
        self.link = array("l", [-1]) * cap
        self.length = array("l", [0]) * cap
        self.first_end = array("l", [-1]) * cap
        self.size = 1
        self.last = 0
        for i, ch in enumerate(text):
            self._extend(1 if ch == "1" else 0, i)

    def _new_state(self, length, first_end):
        idx = self.size
        self.size += 1
        self.length[idx] = length
        self.first_end[idx] = first_end
        return idx

    def _extend(self, c, pos):
        trans = self.t1 if c else self.t0
        link = self.link
        length = self.length
        cur = self._new_state(pos + 1, pos)
        p = self.last
        while p != -1 and trans[p] == -1:
            trans[p] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = self._new_state(length[p] + 1, self.first_end[q])
                self.t0[clone] = self.t0[q]
                self.t1[clone] = self.t1[q]
                link[clone] = link[q]
                link[q] = clone
                link[cur] = clone
                while p != -1 and trans[p] == q:
                    trans[p] = clone
                    p = link[p]
        self.last = cur

    def longest_match_before(self, text, i, limit):
        state = 0
        L = 0
        while L < limit:
            nxt = self.t1[state] if text[i + L] == "1" else self.t0[state]
            if nxt == -1 or self.first_end[nxt] > i + L - 1:
                break
            state = nxt
            L += 1
        return L


class ReferenceLZWindowCoder(LZWindowCoder):
    """``LZWindowCoder`` as first written: the source is a reverse ``rfind``
    after the automaton walk, and a windowed match gallops and then
    binary-searches on ``rfind``."""

    def _longest_match(self, x, i, limit, sam):
        if self.window is None:
            L = sam.longest_match_before(x, i, limit)
            if L == 0:
                return 0, -1
            return L, x.rfind(x[i : i + L], 0, i + L - 1)
        lo = max(0, i - self.window)
        ok = 0
        step = 1
        while ok + step <= limit and x.rfind(x[i : i + ok + step], lo, i + ok + step - 1) != -1:
            ok += step
            step *= 2
        lo_L, hi_L = ok, min(limit, ok + step)
        while lo_L < hi_L:
            mid = (lo_L + hi_L + 1) // 2
            if x.rfind(x[i : i + mid], lo, i + mid - 1) != -1:
                lo_L = mid
            else:
                hi_L = mid - 1
        L = lo_L
        if L == 0:
            return 0, -1
        return L, x.rfind(x[i : i + L], lo, i + L - 1)

    def _parse(self, x):
        n = len(x)
        sam = ReferenceSuffixAutomaton(x) if self.window is None else None
        phrases = []
        i = 0
        while i < n:
            L, src = self._longest_match(x, i, n - i, sam)
            has_sym = i + L < n
            phrases.append((i, L, src, has_sym))
            i += L + (1 if has_sym else 0)
        return phrases

    def prefix_bits(self, x, positions):
        phrases = self._parse(x)
        cum = [0]
        for i, L, src, has_sym in phrases:
            cum.append(cum[-1] + len(self._triple_bits(i, L, src, "0" if has_sym else None)))
        starts = [ph[0] for ph in phrases]
        results = []
        for n in positions:
            pl = 0
            if n:
                j = bisect.bisect_right(starts, n - 1) - 1
                i, L, src, has_sym = phrases[j]
                pl = cum[j]
                if n >= i + L + (1 if has_sym else 0):
                    pl = cum[j + 1]
                elif n > i:
                    lo = 0 if self.window is None else max(0, i - self.window)
                    srcp = x.rfind(x[i:n], lo, n - 1)
                    pl += len(self._triple_bits(i, n - i, srcp, None))
            results.append(self_delimited_len(pl))
        return results


def reference_lz78_phrases(x):
    """The LZ78 incremental parse as first written, by a dict of phrase
    strings: (ref_index, ref_len, sym) per phrase, sym None for an
    incomplete final phrase."""
    index_of = {"": 0}
    current = ""
    cur_idx = 0
    for ch in x:
        candidate = current + ch
        idx = index_of.get(candidate)
        if idx is not None:
            current = candidate
            cur_idx = idx
            continue
        yield cur_idx, len(current), ch
        index_of[candidate] = len(index_of)
        current = ""
        cur_idx = 0
    if current:
        yield cur_idx, len(current), None
