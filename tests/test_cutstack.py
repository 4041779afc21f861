import gc
import random
from fractions import Fraction

import pytest

from explicit import (
    completeness_check,
    cut_into_copies,
    distribution,
    mfold_explicit,
    name_measure_explicit,
    stack_columns,
    stack_gadgets,
    trajectory_name,
    union_gadgets,
    well_distributedness_explicit,
)
from lzlab.intervals import Column, Gadget, GadgetError, Interval
from lzlab.symbolic import (
    base_node,
    cut_symbolic,
    find_rs,
    mfold,
    name_measure,
    stack,
    union,
    well_distributedness_mfold,
    _wd_closed,
    _wd_dp,
)

F = Fraction


def make_column(left, width, name):
    left = F(left)
    width = F(width)
    levels = tuple(
        Interval(left + i * width, left + (i + 1) * width) for i in range(len(name))
    )
    return Column(levels, name)


def simple_gadget():
    # two columns, heights 1, names 0 and 1, widths 1/8 each
    c0 = make_column(F(0), F(1, 8), "0")
    c1 = make_column(F(1, 4), F(1, 8), "1")
    return Gadget([c0, c1])


from family import random_gadget


def test_gadget_rejects_overlapping_columns():
    # the second column's only level starts inside the first's
    c0 = make_column(F(0), F(1, 8), "01")
    c1 = make_column(F(1, 16), F(1, 8), "1")
    with pytest.raises(GadgetError, match="columns overlap"):
        Gadget([c0, c1])


def test_cut_identity_and_halves():
    g = simple_gadget()
    only = cut_into_copies(g, [F(1)])[0]
    assert [c.levels for c in only.columns] == [c.levels for c in g.columns]
    halves = cut_into_copies(g, [F(1, 2), F(1, 2)])
    assert all(len(h.columns) == 2 for h in halves)
    assert all(c.width == F(1, 16) for h in halves for c in h.columns)
    assert sum(h.support_measure for h in halves) == g.support_measure


def test_cut_measure_preserved_random_gamma():
    rng = random.Random(2)
    g = random_gadget(rng)
    gamma = [F(1, 3), F(1, 6), F(1, 2)]
    copies = cut_into_copies(g, gamma)
    assert sum(c.support_measure for c in copies) == g.support_measure
    for copy in copies:
        assert [c.name for c in copy.columns] == [c.name for c in g.columns]
        assert distribution(copy) == distribution(g)
    with pytest.raises(GadgetError):
        cut_into_copies(g, [F(1, 2), F(1, 3)])


def test_stack_columns_heights_names():
    a = make_column(0, F(1, 10), "01")
    b = make_column(F(1, 2), F(1, 10), "110")
    ab = stack_columns(a, b)
    assert ab.height == 5
    assert ab.name == "01110"
    assert ab.width == a.width
    with pytest.raises(GadgetError):
        stack_columns(a, make_column(F(1, 2), F(1, 9), "1"))


def test_stack_columns_associative():
    a = make_column(0, F(1, 10), "0")
    b = make_column(F(1, 4), F(1, 10), "10")
    c = make_column(F(1, 2), F(1, 10), "111")
    left = stack_columns(stack_columns(a, b), c)
    right = stack_columns(a, stack_columns(b, c))
    assert left.levels == right.levels and left.name == right.name


def test_stack_gadgets_product_structure():
    lower = Gadget([make_column(0, F(1, 8), "0"), make_column(F(1, 4), F(1, 16), "11")])
    upper_cols = [
        make_column(F(1, 2), F(1, 16), "1"),
        make_column(F(5, 8), F(1, 16), "00"),
        make_column(F(3, 4), F(1, 16), "010"),
    ]
    upper = Gadget(upper_cols)
    assert lower.width == upper.width == F(3, 16)
    out = stack_gadgets(lower, upper)
    assert len(out.columns) == 6
    names = sorted(c.name for c in out.columns)
    assert names == sorted(
        lc.name + uc.name for lc in lower.columns for uc in upper_cols
    )
    # product widths
    for col in out.columns:
        pass
    got = sorted(c.width for c in out.columns)
    want = sorted(
        lc.width * uc.width / upper.width for lc in lower.columns for uc in upper_cols
    )
    assert got == want
    assert out.support_measure == lower.support_measure + upper.support_measure


def test_single_column_stack():
    lower = Gadget([make_column(0, F(1, 8), "0")])
    upper = Gadget([make_column(F(1, 2), F(1, 8), "1")])
    out = stack_gadgets(lower, upper)
    assert len(out.columns) == 1
    assert out.columns[0].name == "01"


def test_mfold_identity_and_remark_uniformity():
    g = simple_gadget()
    assert [c.name for c in mfold_explicit(g, 1).columns] == ["0", "1"]
    cube = mfold_explicit(g, 3)
    assert sorted(c.name for c in cube.columns) == [format(v, "03b") for v in range(8)]
    lam = cube.support_measure
    for col in cube.columns:
        assert col.support_measure == lam / 8
    # uniform-name gadget: P(x) = 2^-l(x) * lambda for l(x) <= height
    for x in ("0", "1", "01", "110"):
        assert name_measure_explicit(cube, x) >= 0
    node = mfold(base_node(g), 3)
    assert node.uniform_height == 3
    for x in ("0", "11", "010"):
        assert name_measure(node, x) == name_measure_explicit(cube, x)


def test_name_measure_single_column_example():
    col = make_column(0, F(1, 5), "010")
    g = Gadget([col])
    assert name_measure_explicit(g, "0") == F(1, 5) * 2
    assert name_measure_explicit(g, "") == g.support_measure
    assert name_measure_explicit(g, "0", restricted=True) == F(1, 5)


def test_name_measure_additivity_with_boundary():
    rng = random.Random(9)
    for _ in range(100):
        g = random_gadget(rng)
        for ln in (1, 2):
            x = "".join(rng.choice("01") for _ in range(ln))
            boundary = sum(
                (c.width for c in g.columns if c.name.endswith(x) and c.height >= ln),
                F(0),
            )
            assert name_measure_explicit(g, x) == (
                name_measure_explicit(g, x + "0") + name_measure_explicit(g, x + "1") + boundary
            )


def test_trajectory_name_contract():
    col = make_column(0, F(1, 7), "0110")
    g = Gadget([col])
    assert trajectory_name(g, 0, 1, 3) == "0110"
    assert trajectory_name(g, 0, 2, 1) == "11"
    assert trajectory_name(g, 0, 4, 0) == "0"
    with pytest.raises(GadgetError):
        trajectory_name(g, 0, 4, 1)


def test_wd_single_column_self():
    m = F(3, 10)
    col = make_column(0, F(1, 10), "010")
    g = Gadget([col])
    assert well_distributedness_explicit(g, g) == m * (1 - m)


def test_wd_bounds_and_monotone_m():
    g = simple_gadget()
    node = base_node(g)
    values = [well_distributedness_mfold(node, m) for m in (2, 4, 8)]
    for v in values:
        assert 0 <= v <= 2
    assert values[0] > values[1] > values[2]


def test_find_rs_contract():
    node = base_node(simple_gadget())
    res = find_rs(node, F(2), 4)
    assert res.found and res.m == 1
    res = find_rs(node, F(1, 1000), 3)
    assert not res.found
    assert res.best_value is not None


def test_symbolic_equals_explicit_oracle_200_instances():
    """name measures and wd agree exactly with brute-force materialization."""
    rng = random.Random(1001)
    checked = 0
    while checked < 200:
        g = random_gadget(rng)
        M = rng.randrange(1, 4)
        if len(g.columns) ** M > 128:
            continue
        node = mfold(base_node(g), M)
        explicit = mfold_explicit(g, M)
        x = "".join(rng.choice("01") for _ in range(rng.randrange(1, 7)))
        assert name_measure(node, x) == name_measure_explicit(explicit, x)
        assert name_measure(node, x, restricted=True) == name_measure_explicit(
            explicit, x, restricted=True
        )
        assert well_distributedness_mfold(base_node(g), M) == well_distributedness_explicit(
            g, explicit
        )
        checked += 1


def test_wd_closed_form_agrees_with_class_dp():
    # narrow columns so the closed form's validity condition holds
    cols = []
    cursor = F(0)
    rng = random.Random(7)
    for h, name in ((1, "0"), (2, "10"), (3, "011")):
        w = F(1, 100)
        levels = []
        for _ in range(h):
            levels.append(Interval(cursor, cursor + w))
            cursor += w + F(1, 64)
        cols.append(Column(tuple(levels), name))
    node = base_node(Gadget(cols))
    for M in (2, 3, 5):
        assert node.width * node.max_gamma * M * node.max_height < 1
        closed = _wd_closed(node, M)
        assert _wd_dp(node.classes(), node.width, M) == closed
        assert well_distributedness_mfold(node, M) == closed


def test_symbolic_stack_union_cut_match_explicit():
    rng = random.Random(31)
    for _ in range(60):
        g1 = random_gadget(rng, max_cols=2)
        g2 = random_gadget(rng, max_cols=2)
        # place g2 after g1 in [0,1): rebuild with shifted intervals
        shift = F(1, 2)
        cols2 = []
        for c in g2.columns:
            if any(iv.right > F(1, 2) for iv in c.levels):
                break
            cols2.append(
                Column(tuple(Interval(iv.left + shift, iv.right + shift) for iv in c.levels), c.name)
            )
        else:
            g2 = Gadget(cols2)
            n1, n2 = base_node(g1), base_node(g2)
            x = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
            u = union(n1, n2)
            assert name_measure(u, x) == name_measure_explicit(union_gadgets(g1, g2), x)
            if g1.width == g2.width:
                st = stack(n1, n2)
                assert name_measure(st, x) == name_measure_explicit(stack_gadgets(g1, g2), x)
            pieces = cut_symbolic(n1, (F(1, 3), F(2, 3)))
            expl = cut_into_copies(g1, [F(1, 3), F(2, 3)])
            for piece, eg in zip(pieces, expl):
                assert name_measure(piece, x) == name_measure_explicit(eg, x)


def test_generic_dp_matches_uniform_shortcut():
    g = simple_gadget()
    node = mfold(base_node(g), 4)
    for x in ("0", "0101", "11", "000011"):
        fast = name_measure(node, x)
        slow = name_measure(node, x, force_generic=True)
        assert fast == slow


def test_completeness_checks():
    g0 = simple_gadget()
    g1 = mfold_explicit(g0, 2)
    g2 = mfold_explicit(g1, 2)
    report = completeness_check([g0, g1, g2])
    assert report.ok, report.violations
    const = completeness_check([g0, g0])
    assert any("width" in v for v in const.violations)
    # shrinking support: drop a column
    small = Gadget([g0.columns[0]])
    rep = completeness_check([g0, small])
    assert any("support" in v for v in rep.violations)


def test_union_disjointness_enforced():
    g = simple_gadget()
    with pytest.raises(GadgetError):
        union_gadgets(g, g)


def test_classes_and_wd_dp_leave_no_reference_cycles():
    """Class tables and the well-distributedness DP free everything they
    allocate by reference counting; nothing waits for the collector."""
    base = base_node(Gadget([make_column(0, F(1, 8), "0"), make_column(F(1, 2), F(1, 4), "11")]))
    node = mfold(base, 3)
    gc.collect()
    gc.disable()
    try:
        classes = node.classes()
        assert len(classes) == 4
        _wd_dp(classes, node.width, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
