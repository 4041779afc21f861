"""Symbolic cutting-and-stacking gadgets and exact queries on them.

M-fold independent cutting and stacking of an n-column gadget has n**M
columns, so realistic constructions are never materialized.  A symbolic
gadget is a composition tree over explicit base gadgets with nodes
cut / stack / m-fold / union; queries (name measures, well-distributedness,
sampling) run by dynamic programming over the tree and return the same
exact rationals the explicit operations would.  Building a node computes
only its width, support and heights; the column count (read when a dump
prints it) and the widest column's share (read by the closed form of
well-distributedness) are computed from the children on first use, since
at late stages they are numbers of hundreds of thousands of bits.

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
denominator Q beside its tables, dicts of entries.  Products multiply
numerators and add exponents, and sums shift the term with the smaller
exponent.  Every sum of values over different Q -- a union of children, a
base gadget's columns, the closed form of well-distributedness -- is one
weighted sum (``_weighted_sum``): it lifts each part to a common Q, moves
the power of two of the part's weight into the exponents, and adds.  Once
per node Q and the numerators are divided by their gcd.  The column-class
tables and the well-distributedness DP over them work on Fractions;
everything else builds a Fraction only where a result leaves the module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

from ._util import cut_points, format_rational
from .intervals import Gadget, GadgetError, count_occurrences

CLASS_TABLE_CAP = 4096


class InfeasibleExact(GadgetError):
    """Raised when no exact strategy fits the requested computation."""


class SymbolicGadget:
    """Common node interface; concrete nodes fill the aggregate fields and
    define ``ncols`` (column count) and ``max_gamma`` (widest column's share
    of the width) as cached properties, read from the children on first use."""

    kind = "abstract"

    def __init__(self):
        self.width: Fraction = Fraction(0)
        self.support: Fraction = Fraction(0)
        self.min_height: int = 0
        self.max_height: int = 0
        self.uniform_height: int | None = None
        self._classes = -1  # lazy; -1 = not computed, None = over cap
        self._moments: dict[int, tuple[int, dict]] = {}

    # -- column classes: {(per-column width share, height): column count}
    def classes(self):
        if self._classes == -1:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        raise NotImplementedError

    # -- moments T(p, q) = sum_D gamma_D^p h_D^q for q = 0, 1, 2
    def _moments_of(self, p: int):
        """(Q, {q: (n_q, e_q)}) with T(p, q) = n_q / (Q * 2**e_q), q = 0, 1, 2."""
        got = self._moments.get(p)
        if got is None:
            got = self._moments[p] = self._compute_moments(p)
        return got

    def _compute_moments(self, p: int):
        raise NotImplementedError

    def sample_column(self, rng) -> str:
        """Draw a column name by the width distribution (seeded rng)."""
        raise NotImplementedError


class BaseNode(SymbolicGadget):
    kind = "base"

    def __init__(self, gadget: Gadget):
        super().__init__()
        self.gadget = gadget
        self.width = gadget.width
        self.support = gadget.support_measure
        self.min_height = gadget.min_height
        self.max_height = gadget.max_height
        self.uniform_height = self._detect_uniform()
        self._cuts = None

    @cached_property
    def ncols(self) -> int:
        return len(self.gadget.columns)

    @cached_property
    def max_gamma(self) -> Fraction:
        return max(c.width / self.width for c in self.gadget.columns)

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
        return _merged((c.width / self.width, c.height, 1) for c in self.gadget.columns)

    def _compute_moments(self, p):
        """The union of its columns; one column alone has T(p, q) = h**q."""
        return _weighted_sum(
            [((1, {0: (1, 0), 1: (c.height, 0), 2: (c.height**2, 0)}), c.width / self.width)
             for c in self.gadget.columns], p)

    def sample_column(self, rng) -> str:
        cols = self.gadget.columns
        if self._cuts is None:
            self._cuts = cut_points([c.width for c in cols], self.width)
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
        self.uniform_height = child.uniform_height

    @cached_property
    def ncols(self) -> int:
        return self.child.ncols

    @cached_property
    def max_gamma(self) -> Fraction:
        return self.child.max_gamma

    def _compute_classes(self):
        return self.child.classes()

    def _compute_moments(self, p):
        return self.child._moments_of(p)

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
        if len(children) == 1:
            self.uniform_height = children[0].uniform_height
        self._cuts = None

    @cached_property
    def ncols(self) -> int:
        return sum(c.ncols for c in self.children)

    @cached_property
    def max_gamma(self) -> Fraction:
        return max(c.max_gamma * c.width / self.width for c in self.children)

    def _compute_classes(self):
        subs = [c.classes() for c in self.children]
        if any(sub is None for sub in subs):
            return None
        shares = [c.width / self.width for c in self.children]
        return _merged((share * g, h, n) for share, sub in zip(shares, subs) for (g, h), n in sub.items())

    def _compute_moments(self, p):
        return _weighted_sum([(c._moments_of(p), c.width / self.width) for c in self.children], p)

    def sample_column(self, rng) -> str:
        if self._cuts is None:
            self._cuts = cut_points([c.width for c in self.children], self.width)
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

    @cached_property
    def ncols(self) -> int:
        return self.lower.ncols * self.upper.ncols

    @cached_property
    def max_gamma(self) -> Fraction:
        return self.lower.max_gamma * self.upper.max_gamma

    def _compute_classes(self):
        return _stack_classes(self.lower.classes(), self.upper.classes())

    def _compute_moments(self, p):
        return _stack_moments(self.lower._moments_of(p), self.upper._moments_of(p))

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
        if child.uniform_height is not None:
            self.uniform_height = child.uniform_height * m

    @cached_property
    def ncols(self) -> int:
        return self.child.ncols**self.m

    @cached_property
    def max_gamma(self) -> Fraction:
        return self.child.max_gamma**self.m

    def _compute_classes(self):
        """A class of the m-fold is a multiset of m child classes, so a
        child with k classes gives at most C(m + k - 1, m); a power whose
        bound passes the cap is refused before any pair is walked."""
        sub = self.child.classes()
        if sub is None or math.comb(self.m + len(sub) - 1, self.m) > CLASS_TABLE_CAP:
            return None
        return _power(sub, self.m, _stack_classes)

    def _compute_moments(self, p):
        return _power(self.child._moments_of(p), self.m, _stack_moments)

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
# exact values n / (Q * 2**e)


def _fraction(n: int, e: int, q: int) -> Fraction:
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


def _weighted_sum(parts, p: int = 1):
    """Sum of values (q, *tables) weighted by u**p, over parts (value, u), as
    one reduced value (Q, *tables).  With u = a / (q' * 2**k) and q' odd, a
    part's numerators are lifted by a**p * Q / (q * q'**p) to Q, the lcm of
    every q * q'**p, and its exponents rise by k * p."""
    lifts = []
    for (q, *tables), u in parts:
        den = u.denominator
        k = (den & -den).bit_length() - 1
        lifts.append((u.numerator**p, q * (den >> k) ** p, k * p, tables))
    big_q = math.lcm(*(d for _, d, _, _ in lifts))
    acc = [{} for _ in lifts[0][3]]
    for a, d, k, tables in lifts:
        lift = a * (big_q // d)
        for out, t in zip(acc, tables):
            for key, (n, e) in t.items():
                out[key] = _add(out.get(key, (0, 0)), (n * lift, e + k))
    return (_reduce(big_q, acc), *acc)


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
# column classes: {(g, h): n}, n columns of per-column share g and height h


def _merged(columns):
    """The class table of (g, h, n) triples, equal keys merged; None once it
    has more than CLASS_TABLE_CAP classes."""
    out: dict[tuple[Fraction, int], int] = {}
    for g, h, n in columns:
        out[g, h] = out.get((g, h), 0) + n
        if len(out) > CLASS_TABLE_CAP:
            return None
    return out


def _stack_classes(lower, upper):
    """Classes of a stack: shares multiply, heights add and counts multiply."""
    if lower is None or upper is None:
        return None
    return _merged((gl * gu, hl + hu, nl * nu)
                   for (gl, hl), nl in lower.items() for (gu, hu), nu in upper.items())


# ---------------------------------------------------------------------------
# moments: (Q, {0: T0, 1: T1, 2: T2}) with entries (n, e)


def _stack_moments(lower, upper):
    """Moments of a stack: shares multiply and heights add, so T(p, 2)
    expands binomially."""
    (qa, a), (qb, b) = lower, upper
    cross = (a[1][0] * b[1][0], a[1][1] + b[1][1] - 1)  # 2 * T_a(1) * T_b(1)
    t = {
        0: _mul(a[0], b[0]),
        1: _add(_mul(a[1], b[0]), _mul(a[0], b[1])),
        2: _add(_add(_mul(a[2], b[0]), _mul(a[0], b[2])), cross),
    }
    return _reduce(qa * qb, (t,)), t


# ---------------------------------------------------------------------------
# name-measure dynamic programming


class _F(NamedTuple):
    """Functionals of one node for one query word; entries (n, e) are
    n / (q * 2**e), and ends holds {0: occ, 1: top}."""

    q: int
    ends: dict
    pre: dict
    suf: dict
    exa: dict


def _combine(A: _F, B: _F, m: int) -> _F:
    """Functionals of the concatenation (A below, B above, independent),
    over q = A.q * B.q; a term of one side alone is lifted by the other q."""
    qa, qb = A.q, B.q
    (na, ea), (nb, eb) = A.ends[0], B.ends[0]
    occ = _add((na * qb, ea), (nb * qa, eb))
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
    top = (B.ends[1][0] * qa, B.ends[1][1])
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
    tables = ({0: occ, 1: top}, pre, suf, exa)
    return _F(_reduce(qa * qb, tables), *tables)


def _uniform_functionals(h: int, x: str) -> _F:
    """Closed forms for a tower whose names are uniform over {0,1}**h."""
    m = len(x)
    occ, top = ((h - m + 1, m), (1, m)) if h >= m else ((0, 0), (0, 0))
    pre = {j: (1, m - j) for j in range(max(1, m - h), m)}
    suf = {k: (1, k) for k in range(1, min(m - 1, h) + 1)}
    return _F(1, {0: occ, 1: top}, pre, suf, {(a, a + h): (1, h) for a in range(1, m - h + 1)})


def _base_functionals(node: BaseNode, x: str) -> _F:
    """A base gadget as the union of its columns, each one name."""
    m = len(x)
    parts = []
    for col in node.gadget.columns:
        name, ln = col.name, len(col.name)
        ends = {0: (count_occurrences(name, x), 0), 1: (int(ln >= m and name.endswith(x)), 0)}
        pre = {j: (1, 0) for j in range(max(1, m - ln), m) if name.startswith(x[j:])}
        suf = {k: (1, 0) for k in range(1, min(m - 1, ln) + 1) if name.endswith(x[:k])}
        exa = {}
        pos = x.find(name, 1) if ln < m else -1
        while pos != -1 and pos + ln <= m:
            exa[pos, pos + ln] = (1, 0)
            pos = x.find(name, pos + 1)
        parts.append((_F(1, ends, pre, suf, exa), col.width / node.width))
    return _F(*_weighted_sum(parts))


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
            return _F(*_weighted_sum([(self.functionals(c), c.width / node.width) for c in node.children]))
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
    occ, top = f.ends[0], f.ends[1]
    n, e = _add(occ, (-top[0], top[1])) if restricted else occ
    return _fraction(n * node.width.numerator, e, f.q * node.width.denominator)


# ---------------------------------------------------------------------------
# well-distributedness


def _wd_dp(classes, W: Fraction, M: int) -> Fraction:
    """Exact expectation from the class table.  Of the M draws, c hit a
    given column (share g, height h) with probability C(M, c) g**c, and the
    other M - c have total height H' with law P_{M-c}, the height law less
    g at h convolved M - c times; the column's n copies and h levels each
    add |c - W g (c h + H')|."""
    law: dict[int, Fraction] = {}
    for (g, h), n in classes.items():
        law[h] = law.get(h, 0) + g * n
    total = Fraction(0)
    for (g, h), n in classes.items():
        miss = dict(law)
        miss[h] -= g
        if not miss[h]:
            del miss[h]
        laws = [{0: Fraction(1)}]
        for _ in range(M):
            nxt: dict[int, Fraction] = {}
            for a, p in laws[-1].items():
                for b, q in miss.items():
                    nxt[a + b] = nxt.get(a + b, 0) + p * q
            laws.append(nxt)
        wg = W * g
        exp_abs = sum(
            math.comb(M, c) * g**c * sum(p * abs(c - wg * (c * h + H)) for H, p in rest.items())
            for c, rest in enumerate(reversed(laws)))
        total += n * h * exp_abs
    return total * W / M


def _wd_closed(node: SymbolicGadget, M: int) -> Fraction:
    """Closed form, valid when every |c_D - w_D * H| resolves by sign:
    requires max column width * M * max height < 1.  It is
    lam (1 - lam) + 2 W**2 (eta A - B) with eta the mean height and A, B the
    alternating sums over j < M of (-1)**j C(M - 1, j) T(j + 1, 1) and
    T(j + 2, 2), summed as one weighted sum."""
    W, lam = node.width, node.support
    qe, t = node._moments_of(1)
    parts = [((1, {0: (1, 0)}), lam * (1 - lam))]
    for j in range(M):
        u = (-1) ** j * math.comb(M - 1, j) * 2 * W**2
        (qa, a), (qb, b) = node._moments_of(j + 1), node._moments_of(j + 2)
        parts += [((qe * qa, {0: _mul(t[1], a[1])}), u), ((qb, {0: b[2]}), -u)]
    q, total = _weighted_sum(parts)
    return _fraction(*total[0], q)


def well_distributedness_mfold(node: SymbolicGadget, M: int) -> Fraction:
    """Exact double-sum distance of node vs its M-fold cut-and-stack: the
    closed form where its columns are narrow enough, else the class DP."""
    if node.width * node.max_gamma * M * node.max_height < 1:
        return _wd_closed(node, M)
    classes = node.classes()
    if classes is not None:
        return _wd_dp(classes, node.width, M)
    raise InfeasibleExact(
        "no exact well-distributedness strategy applies (too many column "
        "classes and columns too wide for the closed form)"
    )


def gadget_to_json(node: SymbolicGadget) -> dict:
    """Dump a symbolic composition tree; shared nodes appear once.

    Rationals are "num/den" strings; base gadgets carry full interval tables.
    """

    nodes: dict[str, dict] = {}

    def visit(n: SymbolicGadget) -> str:
        nid = f"n{id(n):x}"
        if nid in nodes:
            return nid
        entry = {
            "kind": n.kind,
            "width": format_rational(n.width),
            "support": format_rational(n.support),
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
                    "width": format_rational(c.width),
                    "levels": [[format_rational(iv.left), format_rational(iv.right)] for iv in c.levels],
                }
                for c in n.gadget.columns
            ]
        elif isinstance(n, CutNode):
            entry["gamma"] = [format_rational(g) for g in n.gamma]
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


class RsSearch(NamedTuple):
    found: bool
    m: int | None
    value: Fraction | None
    best_m: int | None
    best_value: Fraction | None


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
