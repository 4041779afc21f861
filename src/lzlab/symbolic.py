"""Symbolic cutting-and-stacking gadgets and exact queries on them.

M-fold independent cutting and stacking of an n-column gadget has n**M
columns, so realistic constructions are never materialized.  A symbolic
gadget is a composition tree over explicit base gadgets with nodes
cut / stack / m-fold / union; queries (name measures, well-distributedness,
sampling) run by dynamic programming over the tree and return the same
exact rationals the explicit operations would.

Name-measure DP: for a query word x of length m, each node carries
  occ      expected occurrences of x inside one column name (width-weighted)
  pre[j]   mass of names starting with x[j:]           (1 <= j < m)
  suf[k]   mass of names ending with x[:k]             (1 <= k < m)
  exa[a,b] mass of names equal to x[a:b] exactly       (1 <= a < b <= m)
  top      mass of names ending with all of x
under the column width distribution; concatenation (stack, m-fold) combines
these by the crossing/tiling identities dictated by the product structure.
Towers whose names are uniform over {0,1}**h short-circuit to closed forms.

The well-distributedness closed form reads the moments
T(p, q) = sum_D gamma_D^p h_D^q (q = 0, 1, 2) over the columns D; a union
sums its children's weighted by share**p, a stack convolves them and an
m-fold is a repeated stack.

Name-measure tables and moments share one exact representation.  Every
value is n / (Q * 2**e): an entry holds an integer n and a binary exponent
e, and a node (per query word, or per moment order p) holds one odd
denominator Q.  Products multiply numerators and add exponents, sums shift
the term with the smaller exponent, and a union lifts each child to a
common Q and moves the power of two of its width share into the exponents.
Once per node Q and the numerators are divided by their gcd; a Fraction is
built only where a result leaves the module.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial

from .intervals import (
    Gadget,
    GadgetError,
    count_occurrences,
    cut_into_copies,
    mfold_explicit,
    stack_gadgets,
    union_gadgets,
)

CLASS_TABLE_CAP = 4096
WD_ENUM_CAP = 200_000


class InfeasibleExact(GadgetError):
    """Raised when no exact strategy fits the requested computation."""


class SymbolicGadget:
    """Common node interface; concrete nodes fill the aggregate fields."""

    kind = "abstract"

    def __init__(self):
        self.width: Fraction = Fraction(0)
        self.support: Fraction = Fraction(0)
        self.min_height: int = 0
        self.max_height: int = 0
        self.ncols: int = 0
        self.max_gamma: Fraction = Fraction(0)
        self.uniform_height: int | None = None
        self._classes = -1  # lazy; -1 = not computed, None = over cap
        self._moments: dict[int, tuple[int, tuple]] = {}

    # -- column classes: (width share, height, count) of interchangeable columns
    def classes(self):
        if self._classes == -1:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        raise NotImplementedError

    # -- moments T(p, q) = sum_D gamma_D^p h_D^q for q = 0, 1, 2
    def moments(self, p: int) -> tuple[Fraction, Fraction, Fraction]:
        q, t = self._moments_of(p)
        return tuple(_fraction(n, q, e) for n, e in t)

    def _moments_of(self, p: int):
        """(Q, ((n0, e0), (n1, e1), (n2, e2))) with T(p, q) = n_q / (Q * 2**e_q)."""
        got = self._moments.get(p)
        if got is None:
            got = self._moments[p] = self._compute_moments(p)
        return got

    def _compute_moments(self, p: int):
        raise NotImplementedError

    def to_explicit(self) -> Gadget:
        raise NotImplementedError

    def sample_column(self, rng) -> str:
        """Draw a column name by the width distribution (seeded rng)."""
        raise NotImplementedError


def _cuts(widths, total: Fraction) -> list[int]:
    """A 64-bit draw r picks the first part whose cumulative width exceeds
    r / 2**64 * total, that is, the first with r < ceil(cumulative * 2**64 / total)."""
    cuts, acc = [], Fraction(0)
    for w in widths:
        acc += w
        cuts.append(math.ceil(acc * (1 << 64) / total))
    return cuts


class BaseNode(SymbolicGadget):
    kind = "base"

    def __init__(self, gadget: Gadget):
        super().__init__()
        self.gadget = gadget
        self.width = gadget.width
        self.support = gadget.support_measure
        self.min_height = gadget.min_height
        self.max_height = gadget.max_height
        self.ncols = len(gadget.columns)
        self.max_gamma = max(c.width / self.width for c in gadget.columns)
        self.uniform_height = self._detect_uniform()
        self._cuts = None

    def _detect_uniform(self):
        cols = self.gadget.columns
        h = cols[0].height
        w = cols[0].width
        if any(c.height != h or c.width != w for c in cols):
            return None
        if len(cols) != 2**h:
            return None
        if sorted(c.name for c in cols) != [format(v, f"0{h}b") for v in range(2**h)]:
            return None
        return h

    def _compute_classes(self):
        groups: dict[tuple[Fraction, int], int] = {}
        for c in self.gadget.columns:
            key = (c.width, c.height)
            groups[key] = groups.get(key, 0) + 1
        return [(w * n / self.width, h, n) for (w, h), n in groups.items()]

    def _compute_moments(self, p):
        """The union of its columns; one column alone has T(p, q) = h**q."""
        return _union_moments(
            [((1, ((1, 0), (c.height, 0), (c.height**2, 0))), c.width / self.width)
             for c in self.gadget.columns], p)

    def to_explicit(self) -> Gadget:
        return self.gadget

    def sample_column(self, rng) -> str:
        cols = self.gadget.columns
        if self._cuts is None:
            self._cuts = _cuts([c.width for c in cols], self.width)
        return cols[bisect_right(self._cuts, rng.getrandbits(64))].name


class CutNode(SymbolicGadget):
    """One copy from cutting the child into width shares gamma."""

    kind = "cut"

    def __init__(self, child: SymbolicGadget, gamma: tuple[Fraction, ...], index: int):
        super().__init__()
        if any(g <= 0 for g in gamma) or sum(gamma) != 1:
            raise GadgetError("gamma must be positive and sum to 1")
        self.child = child
        self.gamma = tuple(gamma)
        self.index = index
        share = gamma[index]
        self.width = child.width * share
        self.support = child.support * share
        self.min_height = child.min_height
        self.max_height = child.max_height
        self.ncols = child.ncols
        self.max_gamma = child.max_gamma
        self.uniform_height = child.uniform_height

    def _compute_classes(self):
        return self.child.classes()

    def _compute_moments(self, p):
        return self.child._moments_of(p)

    def to_explicit(self) -> Gadget:
        return cut_into_copies(self.child.to_explicit(), list(self.gamma))[self.index]

    def sample_column(self, rng) -> str:
        return self.child.sample_column(rng)


def cut_symbolic(child: SymbolicGadget, gamma) -> list[CutNode]:
    gamma = tuple(gamma)
    return [CutNode(child, gamma, i) for i in range(len(gamma))]


class UnionNode(SymbolicGadget):
    kind = "union"

    def __init__(self, children: list[SymbolicGadget]):
        super().__init__()
        if not children:
            raise GadgetError("union needs at least one child")
        self.children = list(children)
        self.width = sum((c.width for c in children), Fraction(0))
        self.support = sum((c.support for c in children), Fraction(0))
        self.min_height = min(c.min_height for c in children)
        self.max_height = max(c.max_height for c in children)
        self.ncols = sum(c.ncols for c in children)
        self.max_gamma = max(c.max_gamma * c.width / self.width for c in children)
        if len(children) == 1:
            self.uniform_height = children[0].uniform_height
        self._cuts = None

    def _compute_classes(self):
        out = []
        for c in self.children:
            sub = c.classes()
            if sub is None:
                return None
            share = c.width / self.width
            out.extend((share * s, h, n) for s, h, n in sub)
            if len(out) > CLASS_TABLE_CAP:
                return None
        return out

    def _compute_moments(self, p):
        return _union_moments([(c._moments_of(p), c.width / self.width) for c in self.children], p)

    def to_explicit(self) -> Gadget:
        return union_gadgets(*(c.to_explicit() for c in self.children))

    def sample_column(self, rng) -> str:
        if self._cuts is None:
            self._cuts = _cuts([c.width for c in self.children], self.width)
        return self.children[bisect_right(self._cuts, rng.getrandbits(64))].sample_column(rng)


class StackNode(SymbolicGadget):
    """upper stacked onto lower; names are lower-name ++ upper-name."""

    kind = "stack"

    def __init__(self, lower: SymbolicGadget, upper: SymbolicGadget):
        super().__init__()
        if lower.width != upper.width:
            raise GadgetError("stacked gadgets must share width")
        self.lower = lower
        self.upper = upper
        self.width = lower.width
        self.support = lower.support + upper.support
        self.min_height = lower.min_height + upper.min_height
        self.max_height = lower.max_height + upper.max_height
        self.ncols = lower.ncols * upper.ncols
        self.max_gamma = lower.max_gamma * upper.max_gamma

    def _compute_classes(self):
        cl = self.lower.classes()
        cu = self.upper.classes()
        if cl is None or cu is None or len(cl) * len(cu) > CLASS_TABLE_CAP:
            return None
        return [
            (sl * su, hl + hu, nl * nu)
            for sl, hl, nl in cl
            for su, hu, nu in cu
        ]

    def _compute_moments(self, p):
        return _stack_moments(self.lower._moments_of(p), self.upper._moments_of(p))

    def to_explicit(self) -> Gadget:
        return stack_gadgets(self.lower.to_explicit(), self.upper.to_explicit())

    def sample_column(self, rng) -> str:
        return self.lower.sample_column(rng) + self.upper.sample_column(rng)


class MFoldNode(SymbolicGadget):
    """M-fold independent cutting and stacking of the child."""

    kind = "mfold"

    def __init__(self, child: SymbolicGadget, m: int):
        super().__init__()
        if m < 1:
            raise GadgetError("fold count must be >= 1")
        self.child = child
        self.m = m
        self.width = child.width / m
        self.support = child.support
        self.min_height = child.min_height * m
        self.max_height = child.max_height * m
        self.ncols = child.ncols**m
        self.max_gamma = child.max_gamma**m
        if child.uniform_height is not None:
            self.uniform_height = child.uniform_height * m

    def _compute_classes(self):
        sub = self.child.classes()
        if sub is None:
            return None
        k = len(sub)
        if math.comb(self.m + k - 1, k - 1) > CLASS_TABLE_CAP:
            return None
        out = []
        for vec, ways in _compositions(self.m, k):
            share, height, count = Fraction(ways), 0, ways
            for (s, h, n), c in zip(sub, vec):
                share *= s**c
                height += h * c
                count *= n**c
            out.append((share, height, count))
        return out

    def _compute_moments(self, p):
        return _power(self.child._moments_of(p), self.m, _stack_moments)

    def to_explicit(self) -> Gadget:
        return mfold_explicit(self.child.to_explicit(), self.m)

    def sample_column(self, rng) -> str:
        if self.uniform_height is not None:
            h = self.uniform_height
            return format(rng.getrandbits(h), f"0{h}b") if h else ""
        return "".join(self.child.sample_column(rng) for _ in range(self.m))


def _compositions(m: int, k: int):
    """(counts, multinomial coefficient) for every way m ordered draws fall
    into k classes; counts ascend lexicographically."""
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        vec = [b - a - 1 for a, b in zip((-1, *bars), (*bars, m + k - 1))]
        yield vec, math.factorial(m) // math.prod(math.factorial(c) for c in vec)


def base_node(gadget: Gadget) -> BaseNode:
    return BaseNode(gadget)


def mfold(node: SymbolicGadget, m: int) -> MFoldNode:
    return MFoldNode(node, m)


def stack(lower: SymbolicGadget, upper: SymbolicGadget) -> StackNode:
    return StackNode(lower, upper)


def union(*nodes: SymbolicGadget) -> UnionNode:
    return UnionNode(list(nodes))


# ---------------------------------------------------------------------------
# exact values n / (Q * 2**e)


def _fraction(n: int, q: int, e: int) -> Fraction:
    return Fraction(n, q << e) if e >= 0 else Fraction(n << -e, q)


def _add(s, t):
    """Sum of two entries over one q: the one with the smaller exponent shifts."""
    d = s[1] - t[1]
    if d >= 0:
        return (s[0] + (t[0] << d), s[1])
    return ((s[0] << -d) + t[0], t[1])


def _mul(s, t):
    return (s[0] * t[0], s[1] + t[1])


def _reduce(q: int, tables) -> int:
    """Divide q and every numerator in tables (dicts of entries) by their
    gcd, and move each numerator's factors of two into its exponent; returns
    the new q."""
    g = math.gcd(q, *(n for t in tables for n, _ in t.values())) if q > 1 else 1
    for t in tables:
        for k, (n, e) in t.items():
            z = 0 if n & 1 or not n else (n & -n).bit_length() - 1
            if z or g > 1:
                t[k] = (n // g >> z, e - z)
    return q // g


def _union_lifts(parts, p: int = 1):
    """Children (q, u) weighted by u**p, u = a / (q' * 2**k) with q' odd:
    the lcm L of every q * q'**p, and per child the numerator factor
    a**p * L / (q * q'**p) and the exponent k * p."""
    split = []
    for q, u in parts:
        den = u.denominator
        k = (den & -den).bit_length() - 1
        split.append((u.numerator**p, q * (den >> k) ** p, k * p))
    L = math.lcm(*(s[1] for s in split))
    return L, [(a * (L // q), k) for a, q, k in split]


def _power(f, k: int, combine):
    """f combined with itself k >= 1 times, by repeated squaring."""
    result = None
    while k:
        if k & 1:
            result = f if result is None else combine(result, f)
        k >>= 1
        if k:
            f = combine(f, f)
    return result


# ---------------------------------------------------------------------------
# moments: (Q, (T0, T1, T2)) with entries (n, e)


def _reduced_moments(q: int, t: dict):
    q = _reduce(q, (t,))
    return q, (t[0], t[1], t[2])


def _union_moments(parts, p: int):
    """Sum of child moments weighted by width shares u**p."""
    L, lifts = _union_lifts([(m[0], u) for m, u in parts], p)
    acc = {0: (0, 0), 1: (0, 0), 2: (0, 0)}
    for ((_, t), _), (lift, k) in zip(parts, lifts):
        for i, (n, e) in enumerate(t):
            acc[i] = _add(acc[i], (n * lift, e + k))
    return _reduced_moments(L, acc)


def _stack_moments(a, b):
    """Moments of a stack: shares multiply and heights add, so T(p, 2)
    expands binomially."""
    (qa, (a0, a1, a2)), (qb, (b0, b1, b2)) = a, b
    cross = (a1[0] * b1[0], a1[1] + b1[1] - 1)  # 2 * T_a(1) * T_b(1)
    return _reduced_moments(qa * qb, {
        0: _mul(a0, b0),
        1: _add(_mul(a1, b0), _mul(a0, b1)),
        2: _add(_add(_mul(a2, b0), _mul(a0, b2)), cross),
    })


# ---------------------------------------------------------------------------
# name-measure dynamic programming


class _F:
    __slots__ = ("q", "occ", "pre", "suf", "exa", "top")  # entries (n, e) are n / (q * 2**e)

    def __init__(self, q=1, occ=(0, 0), pre=None, suf=None, exa=None, top=(0, 0)):
        self.q, self.occ, self.top = q, occ, top
        self.pre, self.suf, self.exa = pre or {}, suf or {}, exa or {}


def _reduce_f(f: _F) -> _F:
    ends = {0: f.occ, 1: f.top}
    f.q = _reduce(f.q, (ends, f.pre, f.suf, f.exa))
    f.occ, f.top = ends[0], ends[1]
    return f


def _combine(A: _F, B: _F, m: int) -> _F:
    """Functionals of the concatenation (A below, B above, independent),
    over q = A.q * B.q; a term of one side alone is lifted by the other q."""
    qa, qb = A.q, B.q
    occ = _add((A.occ[0] * qb, A.occ[1]), (B.occ[0] * qa, B.occ[1]))
    for k, (n, e) in A.suf.items():
        pv = B.pre.get(k)
        if pv is not None:
            occ = _add(occ, (n * pv[0], e + pv[1]))
    pre = {j: (n * qb, e) for j, (n, e) in A.pre.items()}
    for (a, c), (n, e) in A.exa.items():
        pv = B.pre.get(c) if c < m else None
        if pv is not None:
            pre[a] = _add(pre.get(a, (0, 0)), (n * pv[0], e + pv[1]))
    suf = {k: (n * qa, e) for k, (n, e) in B.suf.items()}
    top = (B.top[0] * qa, B.top[1])
    by_start: dict[int, list] = {}
    for (c, b), (n, e) in B.exa.items():
        by_start.setdefault(c, []).append((b, n, e))
        sv = A.suf.get(c)
        if sv is not None:
            t = (sv[0] * n, sv[1] + e)
            if b == m:
                top = _add(top, t)
            else:
                suf[b] = _add(suf.get(b, (0, 0)), t)
    exa: dict[tuple[int, int], tuple[int, int]] = {}
    for (a, c), (n, e) in A.exa.items():
        for b, n2, e2 in by_start.get(c, ()):
            exa[a, b] = _add(exa.get((a, b), (0, 0)), (n * n2, e + e2))
    return _reduce_f(_F(qa * qb, occ, pre, suf, exa, top))


def _uniform_functionals(h: int, x: str) -> _F:
    """Closed forms for a tower whose names are uniform over {0,1}**h."""
    m = len(x)
    occ, top = ((h - m + 1, m), (1, m)) if h >= m else ((0, 0), (0, 0))
    pre = {j: (1, m - j) for j in range(max(1, m - h), m)}
    suf = {k: (1, k) for k in range(1, min(m - 1, h) + 1)}
    return _F(1, occ, pre, suf, {(a, a + h): (1, h) for a in range(1, m - h + 1)}, top)


def _union_functionals(parts) -> _F:
    """Sum of child functionals f weighted by width shares u."""
    L, lifts = _union_lifts([(f.q, u) for f, u in parts])
    acc = _F(L)
    for (f, _), (lift, k) in zip(parts, lifts):
        acc.occ = _add(acc.occ, (f.occ[0] * lift, f.occ[1] + k))
        acc.top = _add(acc.top, (f.top[0] * lift, f.top[1] + k))
        for d_acc, d_f in ((acc.pre, f.pre), (acc.suf, f.suf), (acc.exa, f.exa)):
            for key, (n, e) in d_f.items():
                d_acc[key] = _add(d_acc.get(key, (0, 0)), (n * lift, e + k))
    return _reduce_f(acc)


def _base_functionals(node: BaseNode, x: str) -> _F:
    """A base gadget as the union of its columns, each one name."""
    m = len(x)
    parts = []
    for col in node.gadget.columns:
        name, ln = col.name, len(col.name)
        f = _F(occ=(count_occurrences(name, x), 0), top=(int(ln >= m and name.endswith(x)), 0))
        f.pre = {j: (1, 0) for j in range(max(1, m - ln), m) if name.startswith(x[j:])}
        f.suf = {k: (1, 0) for k in range(1, min(m - 1, ln) + 1) if name.endswith(x[:k])}
        pos = x.find(name, 1) if ln < m else -1
        while pos != -1 and pos + ln <= m:
            f.exa[pos, pos + ln] = (1, 0)
            pos = x.find(name, pos + 1)
        parts.append((f, col.width / node.width))
    return _union_functionals(parts)


class _NameQuery:
    """Functionals for one query word.  Only a cut node's child keeps its
    tables, since every copy cut from it shares them; any other node's go
    as soon as its parent has combined them."""

    def __init__(self, x: str, force_generic: bool):
        self.x, self.force_generic = x, force_generic
        self._cut_children: dict[int, _F] = {}

    def functionals(self, node: SymbolicGadget) -> _F:
        x, m = self.x, len(self.x)
        if node.uniform_height is not None and not self.force_generic:
            return _uniform_functionals(node.uniform_height, x)
        if isinstance(node, BaseNode):
            return _base_functionals(node, x)
        if isinstance(node, CutNode):
            f = self._cut_children.get(id(node.child))
            if f is None:
                f = self._cut_children[id(node.child)] = self.functionals(node.child)
            return f
        if isinstance(node, UnionNode):
            return _union_functionals([(self.functionals(c), c.width / node.width) for c in node.children])
        if isinstance(node, StackNode):
            return _combine(self.functionals(node.lower), self.functionals(node.upper), m)
        if isinstance(node, MFoldNode):
            return _power(self.functionals(node.child), node.m, partial(_combine, m=m))
        raise GadgetError(f"unknown node kind {node.kind}")


def name_measure(node: SymbolicGadget, x: str, restricted: bool = False,
                 force_generic: bool = False) -> Fraction:
    """Total width of levels starting a trajectory whose name extends x.

    ``restricted`` drops starts whose occurrence ends exactly at a column
    top (starts at least len(x) below the top).  ``force_generic`` skips
    the closed form of uniform towers.
    """
    if x == "":
        return node.support
    f = _NameQuery(x, force_generic).functionals(node)
    n, e = _add(f.occ, (-f.top[0], f.top[1])) if restricted else f.occ
    return _fraction(n * node.width.numerator, f.q * node.width.denominator, e)


# ---------------------------------------------------------------------------
# well-distributedness


def _wd_enum(classes, W: Fraction, M: int) -> Fraction:
    """Exact expectation over class count-vectors (multinomial) and the
    within-class binomial split."""
    K = len(classes)
    shares = [c[0] for c in classes]
    heights = [c[1] for c in classes]
    counts = [c[2] for c in classes]
    total = Fraction(0)
    compositions = [
        (vec, ways * math.prod(s**c for s, c in zip(shares, vec)))
        for vec, ways in _compositions(M, K)
    ]
    for k in range(K):
        n_k = counts[k]
        w_k = W * shares[k] / n_k
        h_k = heights[k]
        exp_abs = Fraction(0)
        for vec, p in compositions:
            H = sum(c * h for c, h in zip(vec, heights))
            ck = vec[k]
            q = Fraction(1, n_k)
            for c in range(ck + 1):
                pc = math.comb(ck, c) * q**c * (1 - q) ** (ck - c)
                exp_abs += p * pc * abs(c - w_k * H)
        total += n_k * h_k * exp_abs
    return total * W / M


def _alternating(node: SymbolicGadget, M: int, k: int):
    """sum_{j < M} (-1)**j C(M - 1, j) T(j + k, k) as (Q, (n, e))."""
    terms = [node._moments_of(j + k) for j in range(M)]
    q = math.lcm(*(qj for qj, _ in terms))
    acc = (0, 0)
    for j, (qj, t) in enumerate(terms):
        n, e = t[k]
        c = math.comb(M - 1, j) * (q // qj)
        acc = _add(acc, (-c * n if j & 1 else c * n, e))
    return q, acc


def _wd_closed(node: SymbolicGadget, M: int) -> Fraction:
    """Closed form, valid when every |c_D - w_D * H| resolves by sign:
    requires max column width * M * max height < 1.  It is
    lam (1 - lam) + 2 W**2 (eta A - B) with eta the mean height and A, B the
    alternating sums of T(j + 1, 1) and T(j + 2, 2)."""
    W, lam = node.width, node.support
    qe, (_, eta, _) = node._moments_of(1)
    qa, a = _alternating(node, M, 1)
    qb, b = _alternating(node, M, 2)
    q = math.lcm(qe * qa, qb)
    n, e = _add((eta[0] * a[0] * (q // (qe * qa)), eta[1] + a[1]), (-b[0] * (q // qb), b[1]))
    return lam * (1 - lam) + _fraction(2 * W.numerator**2 * n, q * W.denominator**2, e)


def well_distributedness_mfold(node: SymbolicGadget, M: int) -> Fraction:
    """Exact double-sum distance of node vs its M-fold cut-and-stack."""
    classes = node.classes()
    if classes is not None:
        K = len(classes)
        if math.comb(M + K - 1, K - 1) * K <= WD_ENUM_CAP:
            return _wd_enum(classes, node.width, M)
    if node.width * node.max_gamma * M * node.max_height < 1:
        return _wd_closed(node, M)
    raise InfeasibleExact(
        "no exact well-distributedness strategy applies (too many column "
        "classes and columns too wide for the closed form)"
    )


def gadget_to_json(node: SymbolicGadget) -> dict:
    """Dump a symbolic composition tree; shared nodes appear once.

    Rationals are "num/den" strings; base gadgets carry full interval tables.
    """

    def fmt(fr: Fraction) -> str:
        return f"{fr.numerator}/{fr.denominator}"

    nodes: dict[str, dict] = {}

    def visit(n: SymbolicGadget) -> str:
        nid = f"n{id(n):x}"
        if nid in nodes:
            return nid
        entry = {
            "kind": n.kind,
            "width": fmt(n.width),
            "support": fmt(n.support),
            "min_height": n.min_height,
            "max_height": n.max_height,
            "columns": str(n.ncols),
            "uniform_height": n.uniform_height,
        }
        nodes[nid] = entry
        if isinstance(n, BaseNode):
            entry["base_columns"] = [
                {
                    "name": c.name,
                    "width": fmt(c.width),
                    "levels": [[fmt(iv.left), fmt(iv.right)] for iv in c.levels],
                }
                for c in n.gadget.columns
            ]
        elif isinstance(n, CutNode):
            entry["gamma"] = [fmt(g) for g in n.gamma]
            entry["index"] = n.index
            entry["child"] = visit(n.child)
        elif isinstance(n, UnionNode):
            entry["children"] = [visit(c) for c in n.children]
        elif isinstance(n, StackNode):
            entry["lower"] = visit(n.lower)
            entry["upper"] = visit(n.upper)
        elif isinstance(n, MFoldNode):
            entry["m"] = n.m
            entry["child"] = visit(n.child)
        return nid

    root = visit(node)
    return {"root": root, "nodes": nodes}


class RsSearch:
    def __init__(self, found: bool, m: int | None, value: Fraction | None,
                 best_m: int | None, best_value: Fraction | None):
        self.found = found
        self.m = m
        self.value = value
        self.best_m = best_m
        self.best_value = best_value


def find_rs(node: SymbolicGadget, eps: Fraction, m_cap: int, m_min: int = 1) -> RsSearch:
    """Smallest M in [m_min, m_cap] with wd(node, node^(M)) < eps."""
    if eps <= 0:
        raise GadgetError("eps must be positive")
    best_m = None
    best_value = None
    for m in range(m_min, m_cap + 1):
        value = well_distributedness_mfold(node, m)
        if best_value is None or value < best_value:
            best_m, best_value = m, value
        if value < eps:
            return RsSearch(True, m, value, best_m, best_value)
    return RsSearch(False, None, None, best_m, best_value)
