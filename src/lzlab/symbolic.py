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
Every value is n / (Q * 2**e): an entry holds an integer n and a binary
exponent e, and a node holds one odd denominator Q.  Products multiply
numerators and add exponents, sums shift the term with the smaller
exponent, and a union lifts each child to a common Q and moves the power of
two of its width share into the exponents.  Once per node Q and the
numerators are divided by their gcd; one Fraction is built at the root.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intervals import (
    Gadget,
    GadgetError,
    UnrelatedGadgets,
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
        self._moments: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    # -- column classes: (width share, height, count) of interchangeable columns
    def classes(self):
        if self._classes == -1:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        raise NotImplementedError

    # -- moments T(p, q) = sum_D gamma_D^p h_D^q for q = 0, 1, 2
    def moments(self, p: int) -> tuple[Fraction, Fraction, Fraction]:
        got = self._moments.get(p)
        if got is None:
            got = self._compute_moments(p)
            self._moments[p] = got
        return got

    def _compute_moments(self, p: int):
        raise NotImplementedError

    def mean_height(self) -> Fraction:
        return self.moments(1)[1]

    def to_explicit(self) -> Gadget:
        raise NotImplementedError

    def sample_column(self, rng) -> str:
        """Draw a column name by the width distribution (seeded rng)."""
        raise NotImplementedError


def _rand_fraction(rng) -> Fraction:
    return Fraction(rng.getrandbits(64), 1 << 64)


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
        t0 = t1 = t2 = Fraction(0)
        for c in self.gadget.columns:
            g = c.width / self.width
            gp = g**p
            t0 += gp
            t1 += gp * c.height
            t2 += gp * c.height**2
        return (t0, t1, t2)

    def to_explicit(self) -> Gadget:
        return self.gadget

    def sample_column(self, rng) -> str:
        u = _rand_fraction(rng) * self.width
        acc = Fraction(0)
        for c in self.gadget.columns:
            acc += c.width
            if u < acc:
                return c.name
        return self.gadget.columns[-1].name


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
        return self.child.moments(p)

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
        t0 = t1 = t2 = Fraction(0)
        for c in self.children:
            u = (c.width / self.width) ** p
            s0, s1, s2 = c.moments(p)
            t0 += u * s0
            t1 += u * s1
            t2 += u * s2
        return (t0, t1, t2)

    def to_explicit(self) -> Gadget:
        return union_gadgets(*(c.to_explicit() for c in self.children))

    def sample_column(self, rng) -> str:
        u = _rand_fraction(rng) * self.width
        acc = Fraction(0)
        for c in self.children:
            acc += c.width
            if u < acc:
                return c.sample_column(rng)
        return self.children[-1].sample_column(rng)


def _stack_moments(a, b):
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
    )


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
        return _stack_moments(self.lower.moments(p), self.upper.moments(p))

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

        def rec(idx, left, share, height, count):
            if idx == k - 1:
                s, h, n = sub[idx]
                out.append((share * s**left, height + h * left, count * n**left))
                return
            s, h, n = sub[idx]
            for take in range(left + 1):
                ways = math.comb(left, take)
                rec(
                    idx + 1,
                    left - take,
                    share * s**take * ways,
                    height + h * take,
                    count * n**take * ways,
                )

        rec(0, self.m, Fraction(1), 0, 1)
        return out

    def _compute_moments(self, p):
        base = self.child.moments(p)
        result = (Fraction(1), Fraction(0), Fraction(0))
        acc = base
        m = self.m
        while m:
            if m & 1:
                result = _stack_moments(result, acc)
            m >>= 1
            if m:
                acc = _stack_moments(acc, acc)
        return result

    def to_explicit(self) -> Gadget:
        return mfold_explicit(self.child.to_explicit(), self.m)

    def sample_column(self, rng) -> str:
        if self.uniform_height is not None:
            h = self.uniform_height
            return format(rng.getrandbits(h), f"0{h}b") if h else ""
        return "".join(self.child.sample_column(rng) for _ in range(self.m))


def base_node(gadget: Gadget) -> BaseNode:
    return BaseNode(gadget)


def mfold(node: SymbolicGadget, m: int) -> MFoldNode:
    return MFoldNode(node, m)


def stack(lower: SymbolicGadget, upper: SymbolicGadget) -> StackNode:
    return StackNode(lower, upper)


def union(*nodes: SymbolicGadget) -> UnionNode:
    return UnionNode(list(nodes))


# ---------------------------------------------------------------------------
# name-measure dynamic programming


class _F:
    __slots__ = ("q", "occ", "pre", "suf", "exa", "top")  # entries (n, e) are n / (q * 2**e)

    def __init__(self, q=1, occ=(0, 0), pre=None, suf=None, exa=None, top=(0, 0)):
        self.q, self.occ, self.top = q, occ, top
        self.pre, self.suf, self.exa = pre or {}, suf or {}, exa or {}


def _add(s, t):
    """Sum of two entries over one q: the one with the smaller exponent shifts."""
    d = s[1] - t[1]
    if d >= 0:
        return (s[0] + (t[0] << d), s[1])
    return ((s[0] << -d) + t[0], t[1])


def _reduce(f: _F) -> _F:
    """Divide q and every numerator by their gcd, and move each numerator's
    factors of two into its exponent."""
    ends = {0: f.occ, 1: f.top}
    tables = (ends, f.pre, f.suf, f.exa)
    g = math.gcd(f.q, *(n for t in tables for n, _ in t.values())) if f.q > 1 else 1
    f.q //= g
    for t in tables:
        for k, (n, e) in t.items():
            z = 0 if n & 1 or not n else (n & -n).bit_length() - 1
            if z or g > 1:
                t[k] = (n // g >> z, e - z)
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
    return _reduce(_F(qa * qb, occ, pre, suf, exa, top))


def _power(f: _F, k: int, m: int) -> _F:
    result = None
    while k:
        if k & 1:
            result = f if result is None else _combine(result, f, m)
        k >>= 1
        if k:
            f = _combine(f, f, m)
    return result


def _uniform_functionals(h: int, x: str) -> _F:
    """Closed forms for a tower whose names are uniform over {0,1}**h."""
    m = len(x)
    occ, top = ((h - m + 1, m), (1, m)) if h >= m else ((0, 0), (0, 0))
    pre = {j: (1, m - j) for j in range(max(1, m - h), m)}
    suf = {k: (1, k) for k in range(1, min(m - 1, h) + 1)}
    return _F(1, occ, pre, suf, {(a, a + h): (1, h) for a in range(1, m - h + 1)}, top)


def _union_functionals(parts) -> _F:
    """Sum of child functionals f weighted by width shares u = p / (q' * 2**k),
    q' odd, over the lcm of every child's q * q'."""
    split = []
    for f, u in parts:
        den = u.denominator
        k = (den & -den).bit_length() - 1
        split.append((f, u.numerator, f.q * (den >> k), k))
    acc = _F(math.lcm(*(s[2] for s in split)))
    for f, p, q, k in split:
        lift = p * (acc.q // q)
        acc.occ = _add(acc.occ, (f.occ[0] * lift, f.occ[1] + k))
        acc.top = _add(acc.top, (f.top[0] * lift, f.top[1] + k))
        for d_acc, d_f in ((acc.pre, f.pre), (acc.suf, f.suf), (acc.exa, f.exa)):
            for key, (n, e) in d_f.items():
                d_acc[key] = _add(d_acc.get(key, (0, 0)), (n * lift, e + k))
    return _reduce(acc)


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
            return _power(self.functionals(node.child), node.m, m)
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
    num, den = n * node.width.numerator, f.q * node.width.denominator
    return Fraction(num, den << e) if e >= 0 else Fraction(num << -e, den)


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

    compositions: list[tuple[tuple[int, ...], Fraction]] = []

    def rec(idx, left, prob, vec):
        if idx == K - 1:
            compositions.append((tuple(vec + [left]), prob * shares[idx] ** left))
            return
        for take in range(left + 1):
            rec(idx + 1, left - take, prob * shares[idx] ** take * math.comb(left, take), vec + [take])

    # multinomial coefficient accumulates via the comb(left, take) factors
    rec(0, M, Fraction(1), [])

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


def _wd_closed(node: SymbolicGadget, M: int) -> Fraction:
    """Closed form, valid when every |c_D - w_D * H| resolves by sign:
    requires max column width * M * max height < 1."""
    W = node.width
    eta = node.mean_height()
    lam = node.support
    A = Fraction(0)
    B = Fraction(0)
    for j in range(M):
        sign = -1 if j & 1 else 1
        cmj = math.comb(M - 1, j)
        A += sign * cmj * node.moments(j + 1)[1]
        B += sign * cmj * node.moments(j + 2)[2]
    return lam * (1 - lam) + 2 * W**2 * (eta * A - B)


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


def well_distributedness(lower, upper) -> Fraction:
    """Dispatch: explicit pair geometrically; MFold(node) pairs by formula."""
    from .intervals import well_distributedness_explicit

    if isinstance(lower, Gadget) and isinstance(upper, Gadget):
        return well_distributedness_explicit(lower, upper)
    if isinstance(upper, MFoldNode) and upper.child is lower:
        return well_distributedness_mfold(lower, upper.m)
    if isinstance(lower, SymbolicGadget) and isinstance(upper, SymbolicGadget):
        return well_distributedness_explicit(lower.to_explicit(), upper.to_explicit())
    raise UnrelatedGadgets("gadgets are not related by cutting and stacking")


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
