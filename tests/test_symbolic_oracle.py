"""The symbolic layer against its oracles.

A strategy draws small random trees of cut, union, stack and m-fold nodes
over explicit base gadgets, the way construction stages compose them (a
union of pieces, a cut copy, then an m-fold), and every symbolic query must
equal the brute-force answer of ``explicit.py`` on the materialized gadget
exactly.  At the deficiency runner's default scale, where nothing can be
materialized, the name-measure DP must equal the reference Fraction DP, and
at the stages the runners and the codec benchmark build, the moments,
well-distributedness and column draws must equal their Fraction references.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explicit import (
    materialize,
    mfold_explicit,
    name_measure_explicit,
    well_distributedness_explicit,
)
from family import (
    reference_moments,
    reference_name_measure,
    reference_sample_column,
    reference_wd_closed,
    reference_wd_enum,
)
from lzlab._util import parse_rational, stream_seed
from lzlab.construction import WD_STAGE_CAP, Construction, ConstructionParams
from lzlab.experiments import DEFICIENCY_DEFAULTS, OSCILLATION_DEFAULTS, _alpha_trace
from lzlab.intervals import Column, Gadget, Interval
from lzlab.sources import bernoulli
from lzlab.symbolic import (
    InfeasibleExact,
    _fraction,
    _wd_closed,
    _wd_dp,
    base_node,
    cut_symbolic,
    mfold,
    name_measure,
    stack,
    union,
    well_distributedness_mfold,
)

F = Fraction

TREE_COLUMN_CAP = 16  # explicit columns of a drawn tree
WD_COLUMN_CAP = 64  # explicit columns of the M-fold in a wd comparison
REFERENCE_WD_TERMS = 200_000  # count-vector terms reference_wd_enum may sum

weights = st.integers(1, 3)


@st.composite
def tree_specs(draw, depth=3, cap=TREE_COLUMN_CAP):
    """(spec, ncols): a tree as nested tuples and its explicit column count.

    Widths are left relative: a base holds per-column weights, a cut its
    gamma, a union its children's weights; ``build`` turns them into
    intervals once the whole tree is known.
    """
    kind = draw(st.sampled_from(["base", "cut", "union", "stack", "mfold"] if depth else ["base"]))
    if kind == "base":
        if cap >= 2 and draw(st.booleans()):
            return ("base", ((1, "0"), (1, "1"))), 2  # uniform over {0,1}
        n = draw(st.integers(1, min(3, cap)))
        cols = tuple(
            (draw(weights), draw(st.text("01", min_size=1, max_size=3))) for _ in range(n)
        )
        return ("base", cols), n
    if kind == "cut":
        gamma = draw(st.lists(weights, min_size=1, max_size=3))
        index = draw(st.integers(0, len(gamma) - 1))
        child, n = draw(tree_specs(depth - 1, cap))
        return ("cut", tuple(F(g, sum(gamma)) for g in gamma), index, child), n
    if kind == "union":
        children = []
        used = 0
        for _ in range(draw(st.integers(1, 3))):
            if used == cap:
                break
            child, n = draw(tree_specs(depth - 1, cap - used))
            children.append((draw(weights), child))
            used += n
        return ("union", tuple(children)), used
    if kind == "stack":
        lower, nl = draw(tree_specs(depth - 1, cap))
        upper, nu = draw(tree_specs(depth - 1, cap // nl))
        return ("stack", lower, upper), nl * nu
    child, n = draw(tree_specs(depth - 1, cap))
    m_max = max(m for m in (1, 2, 3) if n**m <= cap)
    m = draw(st.integers(1, m_max))
    return ("mfold", m, child), n**m


def _support(spec) -> Fraction:
    """Total level measure of the base gadgets of a root of width 1."""
    kind = spec[0]
    if kind == "base":
        total = sum(w for w, _ in spec[1])
        return sum((F(w, total) * len(name) for w, name in spec[1]), F(0))
    if kind == "cut":
        return _support(spec[3]) / spec[1][spec[2]]
    if kind == "union":
        total = sum(w for w, _ in spec[1])
        return sum((F(w, total) * _support(c) for w, c in spec[1]), F(0))
    if kind == "stack":
        return _support(spec[1]) + _support(spec[2])
    return spec[1] * _support(spec[2])


def build(spec):
    """The symbolic tree of ``spec``, its base gadgets laid out side by side
    in [0, 1) under a root width of 1/2^k."""
    width = F(1)
    while width * _support(spec) > 1:
        width /= 2
    cursor = [F(0)]

    def rec(spec, width):
        kind = spec[0]
        if kind == "base":
            total = sum(w for w, _ in spec[1])
            cols = []
            for w, name in spec[1]:
                cw = width * F(w, total)
                levels = []
                for _ in name:
                    levels.append(Interval(cursor[0], cursor[0] + cw))
                    cursor[0] += cw
                cols.append(Column(tuple(levels), name))
            return base_node(Gadget(cols))
        if kind == "cut":
            _, gamma, index, child = spec
            return cut_symbolic(rec(child, width / gamma[index]), gamma)[index]
        if kind == "union":
            total = sum(w for w, _ in spec[1])
            return union(*(rec(c, width * F(w, total)) for w, c in spec[1]))
        if kind == "stack":
            return stack(rec(spec[1], width), rec(spec[2], width))
        _, m, child = spec
        return mfold(rec(child, width * m), m)

    return rec(spec, width)


words = st.lists(st.text("01", max_size=6), min_size=1, max_size=4)


@settings(max_examples=150)
@given(tree_specs(), words)
def test_name_measure_equals_explicit(drawn, xs):
    spec, ncols = drawn
    node = build(spec)
    explicit = materialize(node)
    assert len(explicit.columns) == ncols
    for x in xs:
        for restricted in (False, True):
            want = name_measure_explicit(explicit, x, restricted=restricted)
            assert name_measure(node, x, restricted=restricted) == want
            assert name_measure(node, x, restricted=restricted, force_generic=True) == want


def _moments(node, p):
    """T(p, q) for q = 0, 1, 2 as Fractions, from the node's exact entries."""
    q, t = node._moments_of(p)
    return tuple(_fraction(*t[i], q) for i in range(3))


def _explicit_classes(g: Gadget):
    w = g.width
    return Counter((c.width / w, c.height) for c in g.columns)


@settings(max_examples=150)
@given(tree_specs())
def test_classes_and_moments_equal_explicit(drawn):
    node = build(drawn[0])
    explicit = materialize(node)
    classes = node.classes()
    # one entry per (per-column share, height) key, with its column count
    assert classes == _explicit_classes(explicit)
    w = explicit.width
    for p in range(6):  # _wd_closed reads p <= M + 1, and M = 4 in the fold schedules
        want = [
            sum((F(c.width / w) ** p * c.height**q for c in explicit.columns), F(0))
            for q in range(3)
        ]
        assert list(_moments(node, p)) == want


@settings(max_examples=150)
@given(tree_specs())
def test_aggregates_equal_explicit(drawn):
    node = build(drawn[0])
    explicit = materialize(node)
    assert node.ncols == len(explicit.columns)
    assert node.max_gamma == max(c.width for c in explicit.columns) / explicit.width


@settings(max_examples=100)
@given(tree_specs(), st.integers(1, 3))
def test_wd_mfold_equals_explicit(drawn, M):
    spec, ncols = drawn
    if ncols**M > WD_COLUMN_CAP:
        M = max(m for m in range(1, M + 1) if ncols**m <= WD_COLUMN_CAP)
    node = build(spec)
    explicit = materialize(node)
    want = well_distributedness_explicit(explicit, mfold_explicit(explicit, M))
    try:
        assert well_distributedness_mfold(node, M) == want
    except InfeasibleExact:
        pass
    if node.width * node.max_gamma * M * node.max_height < 1:
        assert _wd_closed(node, M) == want
    classes = node.classes()
    if classes is not None:
        assert _wd_dp(classes, node.width, M) == want


@pytest.fixture(scope="module")
def deficiency_words():
    """The default deficiency construction, and its alpha trace and fair-coin
    control word as ``run_deficiency`` draws them."""
    cfg = DEFICIENCY_DEFAULTS
    construction, trace = _alpha_trace(cfg, "deficiency-alpha")
    alpha = trace.bits
    control = bernoulli(F(1, 2)).sample(stream_seed(cfg["seed"], "deficiency-control"), cfg["control_n"])
    return construction, {"alpha": alpha, "control": control}


def _estimate_node(construction, m):
    """The stage ``Construction.prob_estimate`` queries for a word of length m."""
    s = 0
    while True:
        phi = construction.stage(s).phi
        if phi.min_height >= 8 * m and phi.min_height > m + 1:
            return phi
        s += 1


@pytest.mark.parametrize("word,n", [
    ("alpha", 768), ("alpha", 1024), ("alpha", 2048),
    ("control", 750), ("control", 1000), ("control", 2500),
])
def test_name_measure_equals_reference_dp_default_scale(deficiency_words, word, n):
    construction, words = deficiency_words
    x = words[word][:n]
    node = _estimate_node(construction, n)
    plain, restricted = reference_name_measure(node, x)
    assert name_measure(node, x) == plain
    assert name_measure(node, x, restricted=True) == restricted
    assert restricted > 0


def test_generic_name_measure_equals_reference_dp_default_scale(deficiency_words):
    construction, words = deficiency_words
    x = words["control"][:750]
    node = _estimate_node(construction, len(x))
    plain, restricted = reference_name_measure(node, x, force_generic=True)
    assert name_measure(node, x, force_generic=True) == plain
    assert name_measure(node, x, restricted=True, force_generic=True) == restricted


# (r, h0, fold schedule): the codec benchmark's alpha set-up, the deficiency
# runner's defaults and the runners benchmark's oscillation config
STAGE_CONFIGS = {
    "codec": (F(1, 256), 64, OSCILLATION_DEFAULTS["fold_schedule"]),
    "deficiency": (parse_rational(DEFICIENCY_DEFAULTS["r"]), DEFICIENCY_DEFAULTS["h0"],
                   DEFICIENCY_DEFAULTS["fold_schedule"]),
    "oscillation-h0-16": (parse_rational(OSCILLATION_DEFAULTS["r"]), 16,
                          OSCILLATION_DEFAULTS["fold_schedule"]),
}


def _construction(name):
    r, h0, schedule = STAGE_CONFIGS[name]
    return Construction(ConstructionParams(r=r, h0=h0, fold_schedule=tuple(schedule)))


def _certified_stages(construction):
    """Stages 1.. whose well-distributedness the construction reports exactly."""
    return [construction.stage(s) for s in range(1, WD_STAGE_CAP + 1)]


def _reference_terms(classes, M):
    """Count-vector terms reference_wd_enum sums over a class table."""
    k = len(classes)
    return math.comb(M + k - 1, k - 1) * k


@pytest.mark.parametrize("name", sorted(STAGE_CONFIGS))
def test_moments_and_wd_equal_reference_at_stage_scale(name):
    construction = _construction(name)
    for stage in _certified_stages(construction):
        node, M = stage.fold_base, stage.r_used
        cache = {}
        for p in range(M + 2):
            assert _moments(node, p) == reference_moments(node, p, cache), (stage.s, p)
        closed = node.width * node.max_gamma * M * node.max_height < 1
        if closed:
            assert _wd_closed(node, M) == reference_wd_closed(node, M, cache), stage.s
        classes = node.classes()
        if classes is not None and _reference_terms(classes, M) <= REFERENCE_WD_TERMS:
            want = reference_wd_enum(classes, node.width, M)
            assert _wd_dp(classes, node.width, M) == want, stage.s
        else:
            assert closed
            want = reference_wd_closed(node, M, cache)
        assert construction.wd(stage.s) == (want, "exact"), stage.s


@pytest.fixture(scope="module")
def oscillation_construction():
    """The oscillation runner's default construction (h0 = 256)."""
    cfg = OSCILLATION_DEFAULTS
    return Construction(ConstructionParams(r=parse_rational(cfg["r"]), h0=cfg["h0"],
                                           fold_schedule=tuple(cfg["fold_schedule"])))


@pytest.mark.parametrize("s,M,approx", [(1, 8, None), (1, 16, "0.20552"), (2, 8, "1.23509")])
def test_wd_dp_equals_reference_past_the_fold_schedule(oscillation_construction, s, M, approx):
    """Fold counts above the schedule's 4, as a faithful search tries them."""
    node = oscillation_construction.stage(s).fold_base
    classes = node.classes()
    want = reference_wd_enum(classes, node.width, M)
    assert _wd_dp(classes, node.width, M) == want
    assert well_distributedness_mfold(node, M) == want
    if approx is not None:
        assert f"{float(want):.5f}" == approx


def test_sample_column_equals_reference_on_codec_fold_bases():
    for stage in _certified_stages(_construction("codec")):
        seed = stream_seed(20260810, f"fold-base-{stage.s}")
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(8):
            assert stage.fold_base.sample_column(rng) == reference_sample_column(stage.fold_base, ref)
        assert rng.getstate() == ref.getstate()


class _Draws:
    """A stand-in rng whose 64-bit draws are given."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, k):
        assert k == 64
        return next(self.values)


def _boundary_draws(shares):
    """64-bit draws at and next to r = cumulative share * 2**64."""
    out, acc = [], F(0)
    for share in shares[:-1]:
        acc += share
        x = acc * 2**64
        out += [math.floor(x) - 1, math.floor(x), math.ceil(x), math.ceil(x) + 1]
    return out


def test_sample_column_boundary_draws_equal_reference():
    """Random draws land next to a cut point with chance about 2**-64, so
    the draws on either side of every cut are given: shares 1/3 and 2/3 in
    a base, 3/5 and 2/5 in a union over it."""
    lower = base_node(Gadget([Column((Interval(F(0), F(1, 7)),), "0"),
                              Column((Interval(F(1, 7), F(3, 7)),), "1")]))
    upper = base_node(Gadget([Column((Interval(F(4, 7), F(6, 7)),), "1")]))
    node = union(lower, upper)
    for tree, draws in ((lower, [[r] for r in _boundary_draws([F(1, 3), F(2, 3)])]),
                        (node, [[u, r] for u in _boundary_draws([F(3, 5), F(2, 5)])
                                for r in _boundary_draws([F(1, 3), F(2, 3)])])):
        for d in draws:
            assert tree.sample_column(_Draws(d)) == reference_sample_column(tree, _Draws(d)), d


@settings(max_examples=100)
@given(tree_specs(), st.integers(0, 2**32))
def test_sample_column_equals_reference(drawn, seed):
    node = build(drawn[0])
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert node.sample_column(rng) == reference_sample_column(node, ref)
