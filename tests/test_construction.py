import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from lzlab import construction
from lzlab.construction import (
    WD_STAGE_CAP,
    Construction,
    ConstructionParams,
    FragmentSpec,
    SigmaExhausted,
    StageFailure,
    build_alpha,
    entropy_upper_bound,
    heights_schedule,
    sample_sparse_column,
    stage_height,
)
from lzlab.experiments import OSCILLATION_DEFAULTS, _alpha_trace, merge_config
from lzlab.intervals import Gadget
from lzlab.symbolic import RsSearch, name_measure

from explicit import completeness_check, materialize, transformation_extends
from family import transformation_extends_pairwise

F = Fraction


def tiny_construction(stages=5, folds=2, h0=2, r=F(1, 256)):
    p = ConstructionParams(r=r, h0=h0, fold_schedule=(folds,) * 12)
    c = Construction(p)
    c.stage(stages)
    return c


def test_entropy_upper_bound_values():
    assert entropy_upper_bound(F(1, 256)) == pytest.approx(3 * 8 / 256)
    with pytest.raises(ValueError):
        entropy_upper_bound(F(1, 2))
    # monotone increasing on (0, 1/e)
    vals = [entropy_upper_bound(F(1, d)) for d in (256, 64, 16)]
    assert vals[0] < vals[1] < vals[2]


def test_heights_schedule_spec_examples():
    assert heights_schedule(lambda n: n, F(1, 256), 3) == [1, 23, 46, 70]
    sched = heights_schedule(lambda n: n, F(1, 2), 3)
    assert sched[0] == 1
    gaps = [b - a for a, b in zip(sched, sched[1:])]
    assert gaps == [15, 16, 17]  # minimal integers with gap > 14 + i
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_heights_schedule_table_and_errors():
    table = list(range(60))
    assert heights_schedule(table, F(1, 2), 2) == [1, 16, 32]
    with pytest.raises(SigmaExhausted):
        heights_schedule(list(range(20)), F(1, 2), 3)
    with pytest.raises(StageFailure, match="sigma must be nondecreasing"):
        heights_schedule(lambda n: -n, F(1, 2), 1)


def test_initial_gadget_masses_and_names():
    c = tiny_construction(stages=0, h0=3)
    st = c.stage(0)
    r = c.params.r
    assert st.delta.support == 2 * r
    assert st.pi.support == 1 - 2 * r
    assert st.delta.uniform_height == 3
    # the main gadget's names carry no ones
    explicit = materialize(st.pi)
    assert all(set(col.name) == {"0"} for col in explicit.columns)
    assert all(col.height == 6 for col in explicit.columns)


def test_val_masses_exact_stages_up_to_4():
    c = tiny_construction(stages=4)
    r = c.params.r
    for s in range(5):
        st = c.stage(s)
        assert st.delta.support == F(2, 2**s) * r
        assert st.pi.support == 1 - F(2, 2**s) * r
        assert st.phi.support == 1


def test_gamma_diagnostics():
    c = tiny_construction(stages=3)
    r = c.params.r
    for s in (1, 2, 3):
        diag = c.stage(s).diagnostics
        expected_gamma = (F(2, 2**s) * r) / (1 - F(4, 2**s) * r)
        assert diag["gamma"] == expected_gamma
        assert diag["routing_fraction"] == expected_gamma / (1 + expected_gamma)
    # the printed alternative denominator is negative/zero for s <= 2
    assert c.stage(1).diagnostics["gamma_alt_denominator"] is None
    assert c.stage(3).diagnostics["gamma_alt_denominator"] is not None


def test_remark_uniformity_generic_dp_stages_up_to_3():
    """Auxiliary towers assign every name mass 2^-l(x) * support, verified
    with the generic DP (the uniform shortcut disabled)."""
    c = tiny_construction(stages=3)
    for s in range(4):
        delta = c.stage(s).delta
        lam = delta.support
        h = delta.uniform_height
        for ln in range(1, h // 2 + 1):
            for v in range(2**ln):
                x = format(v, f"0{ln}b")
                got = name_measure(delta, x, force_generic=True)
                assert got == F(h - ln + 1, 2**ln) * lam / h
        # start-restricted form equals the Remark value exactly
        for x in ("0", "1", "01"):
            if len(x) <= h:
                got = name_measure(delta, x, restricted=True)
                want = F(h - len(x), 2 ** len(x)) * lam / h
                assert got == want


def test_wd_recorded_every_stage_and_faithful_enforced():
    c = tiny_construction(stages=4)
    for s in range(1, 5):
        value, method = c.wd(s)
        assert method == "exact"
        assert 0 <= value <= 2
    assert c.wd(0) == (None, "none")
    assert c.wd(WD_STAGE_CAP + 1) == (None, "skipped")
    # faithful mode: stage 1 certifies wd < 1/1 with the growth schedule
    p = ConstructionParams(r=F(1, 128), epsilon=F(6, 25), h0=2, mode="faithful", sigma=lambda n: n)
    c2 = Construction(p)
    st1 = c2.stage(1)
    assert c2.wd(1)[0] < 1
    assert st1.pi.min_height >= 2 * heights_schedule(lambda n: n, F(1, 128), 3)[3]


def test_faithful_stage_without_a_certifying_fold_count_fails(monkeypatch):
    # the best value of a failed search is a rational past the int-to-str
    # digit limit, or None when the search range is empty
    huge = F(10**5000 + 1, 3 * 10**5000)
    for best_m, best_value, why in ((7, huge, "best 0.333333 at 7"), (None, None, "none tried")):
        monkeypatch.setattr(
            construction, "find_rs", lambda *args, **kw: RsSearch(False, None, None, best_m, best_value)
        )
        p = ConstructionParams(r=F(1, 128), epsilon=F(6, 25), h0=2, mode="faithful", sigma=lambda n: n)
        with pytest.raises(StageFailure, match=f"^stage 1: no fold count .*{why}"):
            Construction(p).stage(1)


def test_building_computes_no_well_distributedness(monkeypatch):
    def refuse(node, M):
        raise AssertionError("well-distributedness computed while building")

    monkeypatch.setattr(construction, "well_distributedness_mfold", refuse)
    # the codec benchmark's stages, and the runners benchmark's oscillation trace
    schedule = tuple(OSCILLATION_DEFAULTS["fold_schedule"])
    Construction(ConstructionParams(r=F(1, 256), h0=64, fold_schedule=schedule)).stage(6)
    cfg = merge_config(OSCILLATION_DEFAULTS, {"h0": 16, "initial_length": 24, "min_length": 1 << 17})
    _, trace = _alpha_trace(cfg, "alpha")
    assert trace.bits


def _tree_nodes(root):
    """Every node of a composition tree, shared nodes once."""
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo += [getattr(node, a) for a in ("child", "lower", "upper") if hasattr(node, a)]
            todo += getattr(node, "children", [])
    return seen.values()


def test_building_computes_no_aggregate():
    # the codec benchmark's stages 1-9, and the runners benchmark's oscillation trace
    schedule = tuple(OSCILLATION_DEFAULTS["fold_schedule"])
    codec = Construction(ConstructionParams(r=F(1, 256), h0=64, fold_schedule=schedule))
    codec.stage(9)
    cfg = merge_config(OSCILLATION_DEFAULTS, {"h0": 16, "initial_length": 24, "min_length": 1 << 17})
    runners, trace = _alpha_trace(cfg, "alpha")
    assert trace.bits
    for c in (codec, runners):
        for st in c.stages:
            for node in _tree_nodes(st.phi):
                assert "ncols" not in vars(node) and "max_gamma" not in vars(node)


@pytest.fixture(scope="module")
def early_stage_gadgets():
    """pi_0, then the fold base and pi of stages 1 and 2, materialized."""
    c = tiny_construction(stages=2)
    seq = [materialize(c.stage(0).pi)]
    # the extension chain is pi_{s-1} ∪ delta'' -> its fold
    for s in (1, 2):
        seq.append(materialize(c.stage(s).fold_base))
        seq.append(materialize(c.stage(s).pi))
    return seq


def test_completeness_of_early_stages_explicit(early_stage_gadgets):
    seq = early_stage_gadgets
    report = completeness_check([seq[0], seq[2], seq[4]])
    # widths decrease and supports grow along the pi chain
    assert report.widths[0] > report.widths[1] > report.widths[2]
    assert report.supports[0] <= report.supports[1] <= report.supports[2]
    # each fold extends the gadget it folds
    inner = completeness_check([seq[1], seq[2]])
    assert not any("transformation" in v for v in inner.violations), inner.violations
    inner = completeness_check([seq[3], seq[4]])
    assert not any("transformation" in v for v in inner.violations), inner.violations


def test_transformation_extends_matches_pairwise(early_stage_gadgets):
    seq = early_stage_gadgets
    for a, b in ((0, 2), (1, 2), (2, 4), (3, 4)):
        small, big = seq[a], seq[b]
        if b == 4:
            # the pairwise reference is O(levels^2): against stage 2's
            # 23,920 domains, check two columns of the smaller gadget
            small = Gadget([small.columns[0], small.columns[-1]])
        assert transformation_extends(small, big) is True
        assert transformation_extends_pairwise(small, big) is True
    # failing pairs: a fold does not extend back, and a fold missing one
    # column leaves part of its base uncovered
    partial = Gadget(seq[2].columns[1:])
    for small, big in ((seq[2], seq[1]), (seq[1], partial)):
        assert transformation_extends(small, big) is False
        assert transformation_extends_pairwise(small, big) is False


def test_measure_query_examples():
    c = tiny_construction(stages=0)
    eps = F(1, 64)
    assert c.query("", eps) == 1
    p1 = c.query("1", eps)
    assert abs(p1 - c.params.r) <= eps
    p0 = c.query("0", eps)
    assert abs(1 - p0 - p1) <= 2 * eps


def test_measure_query_additivity():
    c = tiny_construction()
    eps = F(1, 128)
    rng = random.Random(6)
    for _ in range(8):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        gap = abs(
            c.query(x, eps)
            - c.query(x + "0", eps)
            - c.query(x + "1", eps)
        )
        assert gap <= 3 * eps


def test_prob_estimate_stable_across_stages():
    c = tiny_construction()
    x = c.sample_sequence(3, 30)
    est = c.prob_estimate(x)
    deeper = name_measure(c.stage(len(c.stages) - 1 + 2).phi, x, restricted=True)
    assert est > 0
    assert abs(est - deeper) <= deeper / 4


def test_sample_sequence_contracts():
    c = tiny_construction()
    assert c.sample_sequence(9, 64) == c.sample_sequence(9, 64)
    n = 2000
    ones = 0
    samples = 40
    for i in range(samples):
        ones += c.sample_sequence(123 + i, n).count("1")
    freq = ones / (n * samples)
    # P(one) = r under the stationary measure; allow 4 binomial SEs
    r = float(c.params.r)
    assert abs(freq - r) <= 4 * math.sqrt(r * (1 - r) / (n * samples)) + 2 / n


def test_sample_matches_measure_monte_carlo():
    c = tiny_construction()
    word = "001"
    q = float(c.query(word, F(1, 512)))
    hits = sum(c.sample_sequence(2000 + i, 3) == word for i in range(1500))
    se = math.sqrt(q * (1 - q) / 1500)
    assert abs(hits / 1500 - q) <= 4 * se + 0.002


def test_sampled_sequences_meet_entropy_cap():
    """Mixture code length per symbol on sampled trajectories stays within
    the partition entropy bound plus 0.05."""
    from lzlab.ktmix import MixtureCoder

    p = ConstructionParams(r=F(1, 256), h0=64, fold_schedule=(4, 4, 4, 4, 2, 2, 2, 2))
    c = Construction(p)
    n = 100_000
    x = c.sample_sequence(31, n)
    rate = MixtureCoder(kmax=4).payload_code_len(x) / n
    assert rate <= entropy_upper_bound(c.params.r) + 0.05


def test_sparse_column_walker():
    c = tiny_construction(stages=2)
    name = sample_sparse_column(c.stage(2).fold_base)
    assert set(name) == {"0"}


def test_alpha_builder_invariants():
    p = ConstructionParams(r=F(1, 256), h0=16, fold_schedule=(4, 4, 4, 4, 2, 2))
    c = Construction(p)
    sched = [
        FragmentSpec("sparse", 1, parts=8),
        FragmentSpec("incompressible", 2),
        FragmentSpec("sparse", 3, parts=3),
        FragmentSpec("incompressible", 4),
        FragmentSpec("sparse", 4, parts=2),
    ]
    trace = build_alpha(c, sched, initial_length=24, seed=5)
    assert trace.bits.count("1") >= 0
    # fragments strictly extend and respect the stage-height induction
    prev_end = 0
    for frag in trace.fragments:
        assert frag.end > prev_end or frag.index == 0
        prev_end = frag.end
        assert frag.end >= stage_height(c, frag.stage)
    # sparse fragments have ones frequency <= 2r
    for frag in trace.fragments:
        if frag.kind == "sparse":
            assert frag.ones_frequency <= 2 * float(c.params.r) + 1e-12
    # incompressible fragments carry the whole random block as segment
    inc = [f for f in trace.fragments if f.kind == "incompressible"]
    assert len(inc) == 2
    for f in inc:
        a, b = f.segment
        assert b - a == c.stage(f.stage).delta_second.uniform_height
        assert b == f.end
    # determinism
    trace2 = build_alpha(c, sched, initial_length=24, seed=5)
    assert trace2.bits == trace.bits


def test_alpha_is_positive_mass_trajectory():
    """The built word has positive measure under the construction."""
    p = ConstructionParams(r=F(1, 256), h0=8, fold_schedule=(2, 2, 2, 2, 2, 2))
    c = Construction(p)
    sched = [FragmentSpec("sparse", 1, parts=4), FragmentSpec("incompressible", 2)]
    trace = build_alpha(c, sched, initial_length=12, seed=1)
    prefix = trace.bits[: trace.fragments[-1].end]
    assert c.prob_estimate(prefix[:64]) > 0


def test_builder_rejects_short_fragments():
    p = ConstructionParams(r=F(1, 256), h0=16, fold_schedule=(4, 4))
    c = Construction(p)
    with pytest.raises(StageFailure):
        # one tiny sparse fragment cannot reach stage 2's height
        build_alpha(c, [FragmentSpec("sparse", 2, parts=1)], initial_length=1)


# the sparse-only trace of test_sparse_fallback_pinned, bits and to_json()
SPARSE_FALLBACK_BITS_SHA256 = "415f08b2668b2f077a413d7baba5d132abd35efd646aafb0e1d17be5838fab6c"
SPARSE_FALLBACK_TRACE_SHA256 = "f384c74bb722bf1f8bff36afaaaa41e6c490b8b88cee89d9b5578b516c7f408d"


def _alpha_construction():
    return Construction(ConstructionParams(r=F(1, 256), h0=16, fold_schedule=(4, 4, 4, 4, 2, 2)))


def test_sparse_fallback_pinned(monkeypatch):
    # with no draws allowed, every sparse part is the all-main-branch column
    monkeypatch.setattr(construction, "FREQ_RETRIES", 0)
    sched = [FragmentSpec("sparse", 1, parts=8), FragmentSpec("sparse", 3, parts=3), FragmentSpec("sparse", 4, parts=2)]
    trace = build_alpha(_alpha_construction(), sched, initial_length=24, seed=5)
    assert "1" not in trace.bits
    assert [(f.start, f.end) for f in trace.fragments] == [(0, 24), (24, 280), (280, 2040), (2040, 6136)]
    assert hashlib.sha256(trace.bits.encode()).hexdigest() == SPARSE_FALLBACK_BITS_SHA256
    text = json.dumps(trace.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPARSE_FALLBACK_TRACE_SHA256


def test_builder_rejects_bad_schedules(monkeypatch):
    c = _alpha_construction()
    for length in (0, 2 * 16 + 1):
        with pytest.raises(ValueError, match="^initial fragment must fit one stage-0 column$"):
            build_alpha(c, [], initial_length=length)
    with pytest.raises(ValueError, match="^unknown fragment kind dense$"):
        build_alpha(c, [FragmentSpec("sparse", 1, parts=8), FragmentSpec("dense", 2)], initial_length=24)
    monkeypatch.setattr(construction, "INCOMPRESSIBILITY_THRESHOLD", F(100))
    with pytest.raises(StageFailure, match="^could not draw an incompressible block$"):
        build_alpha(c, [FragmentSpec("sparse", 1, parts=8), FragmentSpec("incompressible", 2)], initial_length=24)


def test_fold_schedule_exhaustion_raises():
    c = tiny_construction(stages=0, folds=2)
    c.params = ConstructionParams(r=F(1, 256), h0=2, fold_schedule=(2,))
    c.stage(1)
    with pytest.raises(StageFailure):
        c.stage(2)
