"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7b asks that the block realization's ratio approach the entropy
rate H of the flip chain as the block length N grows.  The paper proves the
limit but gives no rate.  The robustness summary also reports the stated
check |ratio(N=2^14) - H| <= 0.1, which this LZ78 coder cannot meet:
phrase k costs ceil(log2 k) index bits plus one symbol bit, so a block of c
phrases costs at least log2(c!) + (c - 1) bits, and on the default sample
that is at least 0.604 N per 2^14-bit block against the (H + 0.1) N =
0.569 N the tolerance allows.  The redundancy of LZ78 incremental parsing on
a Markov source falls as 1/log N (Savari, "Redundancy of the Lempel-Ziv
incremental parsing rule", IEEE Trans. IT 1997), which puts 0.1 near
N = 2^27.  So 7b is asserted at that rate (see ``block_convergence``) and
the stated check stays in the summary, unloosened and red.
"""

import math
import random
from fractions import Fraction

import pytest

from explicit import mfold_explicit, name_measure_explicit, well_distributedness_explicit
from family import (
    VerbatimCoder,
    brute_force_selection,
    cylinder_mass,
    decodability_check,
    kraft_sum,
    random_gadget,
    random_measure,
    random_supermartingale,
    select_subset,
)
from lzlab.bitio import encode_int
from lzlab.construction import Construction, ConstructionParams
from lzlab.ktmix import MixtureCoder
from lzlab.lz import BlockCoder, LZ78Coder, LZWindowCoder
from lzlab.experiments import run_deficiency, run_oscillation, run_robustness
from lzlab.sources import flip_chain, robustness_experiment
from lzlab.symbolic import base_node, mfold, name_measure, well_distributedness_mfold

F = Fraction


def report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")


# -- criterion 1: exact identities ------------------------------------------


def test_criterion_1_exact_identities():
    r = F(1, 256)
    c = Construction(ConstructionParams(r=r, h0=2, fold_schedule=(2, 2, 2, 2)))
    ok = True
    for s in range(5):
        st = c.stage(s)
        ok = ok and st.delta.support == F(2, 2**s) * r
        ok = ok and st.pi.support == 1 - F(2, 2**s) * r
    assert ok, "auxiliary/main masses must match 2^(1-s) r exactly"
    for s in range(4):
        delta = c.stage(s).delta
        lam = delta.support
        h = delta.uniform_height
        for ln in range(1, h // 2 + 1):
            for v in range(2**ln):
                x = format(v, f"0{ln}b")
                got = name_measure(delta, x, force_generic=True)
                assert got == F(h - ln + 1, 2**ln) * lam / h, (s, x)
    report("1 (exact identities)", True, "masses and uniform-tower name measures exact")


# -- criterion 2: symbolic vs explicit oracle --------------------------------


def test_criterion_2_oracle_equivalence():
    rng = random.Random(20260102)
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
    report("2 (oracle equivalence)", True, f"{checked} randomized instances, exact equality")


# -- criterion 3: bounded-increase selection ---------------------------------


def test_criterion_3_selection_postconditions():
    rng = random.Random(30303)
    checked = 0
    while checked < 1000:
        depth = rng.randrange(3, 11)
        measure = random_measure(rng, depth)
        mart, _ = random_supermartingale(rng, measure, depth)
        x = ""
        for _ in range(rng.randrange(0, max(1, depth - 2))):
            nxt = x + rng.choice("01")
            if measure.query(nxt) > 0:
                x = nxt
        if measure.query(x) == 0:
            continue
        pool = [
            x + "".join(rng.choice("01") for _ in range(rng.randrange(1, depth - len(x) + 1)))
            for _ in range(rng.randrange(1, 8))
        ]
        pool = [y for y in pool if len(y) <= depth]
        if not pool or cylinder_mass(measure, pool) == 0:
            continue
        mu = F(rng.randrange(1, 8), 8)
        got = select_subset(pool, x, measure, mart, mu)
        want, thr = brute_force_selection(pool, x, measure, mart, mu)
        assert got == want
        assert cylinder_mass(measure, got) > mu * cylinder_mass(measure, pool)
        for y in got:
            for j in range(len(x), len(y) + 1):
                assert mart.value(y[:j]) <= thr
        checked += 1
    report("3 (selection procedure)", True, f"{checked} instances, both postconditions exact")


# -- criterion 4: universality ------------------------------------------------


def test_criterion_4_universality():
    from lzlab.sources import bernoulli, flip_chain

    mixture = MixtureCoder(kmax=8)
    lz = LZ78Coder()
    lines = []
    for source in (bernoulli(F(1, 5)), flip_chain(F(1, 10))):
        H = source.entropy_rate()
        x = source.sample(41, 100_000)
        rate = mixture.payload_code_len(x) / 100_000
        assert abs(rate - H) <= 0.02, (source.name, rate, H)
        xl = source.sample(42, 1 << 20)
        ratio = lz.prefix_bits(xl, [1 << 20])[0] / (1 << 20)
        assert H - 0.02 <= ratio <= H + 0.15, (source.name, ratio, H)
        lines.append(f"{source.name}: mixture {rate:.4f} lz78 {ratio:.4f} H {H:.4f}")
    report("4 (universality)", True, "; ".join(lines))


# -- criteria 5 and 6: the headline experiments -------------------------------


def test_criterion_5_oscillation():
    summary = run_oscillation()
    for check in summary["checks"]:
        assert check["passed"], (check["name"], check["values"])
    report(
        "5 (oscillation)",
        summary["passed"],
        f"alpha length {summary['alpha_length']}, all coder checks passed",
    )


def test_criterion_6_deficiency_tracking():
    summary = run_deficiency()
    for check in summary["checks"]:
        assert check["passed"], (check["name"], check["values"])
    control = summary["control_curve"][-1]["dhat"]
    report(
        "6 (deficiency tracking)",
        summary["passed"],
        f"control dhat {control:.2f} > bound {summary['control_bound']:.4f}",
    )


# -- criterion 7: block realization -------------------------------------------


@pytest.fixture(scope="module")
def robustness_summary():
    return run_robustness()


def test_criterion_7_block_ratios_decrease(robustness_summary):
    check = next(
        c for c in robustness_summary["checks"] if "block ratios decrease" in c["name"]
    )
    report("7a (block ratios decrease)", check["passed"], str(check["values"]))
    assert check["passed"], check["values"]


def block_convergence(H: float, block_final: dict) -> tuple[bool, bool, dict[int, float]]:
    """Criterion 7b's rule for block ratios on a ladder of block lengths N.

    Returns (a) whether every block ratio is at least H, the converse coding
    bound for a prefix code on the chain; (b) whether gap(N) * log2 N, with
    gap(N) = ratio(N) - H, strictly decreases from each rung to the next,
    i.e. the gap closes at least as fast as the 1/log N redundancy that
    LZ78 incremental parsing promises on a Markov source; and the scaled
    gaps by N.
    """
    ratios = {int(N): float(v) for N, v in block_final.items()}
    ladder = sorted(ratios)
    scaled = {N: (ratios[N] - H) * math.log2(N) for N in ladder}
    above = all(ratios[N] >= H for N in ladder)
    falling = all(scaled[a] > scaled[b] for a, b in zip(ladder, ladder[1:]))
    return above, falling, scaled


def test_criterion_7_block_limit_near_entropy(robustness_summary):
    """Block-N LZ78 ratios on the flip chain approach H at the 1/log N rate.

    Along the ladder 64 < 1024 < 16384, every block ratio is at least H and
    gap(N) * log2 N strictly decreases (measured 5.07 > 3.44 > 2.70 on the
    default sample; seeds 1, 2 and 3 agree within 0.02).  The stated check
    ``block N=16384 ratio within 0.1 of H`` is looked up and its values
    printed; it stays red, since a block of c phrases costs at least
    log2(c!) + (c - 1) bits, which is above (H + 0.1) N on every 2^14-bit
    block of the sample.
    """
    stated = next(
        c for c in robustness_summary["checks"] if "within 0.1 of H" in c["name"]
    )
    flip = robustness_summary["sources"]["flip(1/10)"]
    above, falling, scaled = block_convergence(flip["entropy"], flip["block_final"])
    rates = ", ".join(f"{N}:{v:.2f}" for N, v in scaled.items())
    report(
        "7b (block limit approaches entropy)",
        above and falling,
        f"gap*log2N {rates}; stated 0.1 check passed={stated['passed']} {stated['values']}",
    )
    assert above, (flip["entropy"], flip["block_final"])
    assert falling, scaled


def test_criterion_7_block_rule_rejects_verbatim():
    """Negative control: a coder that does not converge fails rule (b).

    Verbatim blocks cost N + 64 bits, so the gap tends to 1 - H and
    gap(N) * log2 N grows again at the top of the ladder.
    """
    source = flip_chain(F(1, 10))
    _, block_curves = robustness_experiment(source, VerbatimCoder(), 1 << 16, [64, 1024, 16384])
    block_final = {N: points[-1][2] for N, points in block_curves.items()}
    above, falling, scaled = block_convergence(source.entropy_rate(), block_final)
    assert above, scaled
    assert not falling, scaled


def test_criterion_7_flip_chain_full_ratio(robustness_summary):
    check = next(
        c for c in robustness_summary["checks"] if "final ratio within [" in c["name"]
    )
    assert check["passed"], check["values"]


# -- criterion 8: coder hygiene ------------------------------------------------


def test_criterion_8_coder_hygiene():
    rng = random.Random(808)
    coders = [
        LZ78Coder(),
        LZWindowCoder(),
        LZWindowCoder(window=256),
        BlockCoder(64, LZ78Coder()),
        MixtureCoder(kmax=2),
    ]
    for coder in coders:
        for _ in range(10_000):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 48)))
            word, used = coder.decode(coder.encode(x) + "01")
            assert word == x, coder.name
        sep = decodability_check(coder, pairs=1000, seed=990)
        assert sep.ok, (coder.name, sep.failures[:2])
    codes = [encode_int(k) for k in range(1, (1 << 16) + 1)]
    codes_sorted = sorted(codes)
    for a, b in zip(codes_sorted, codes_sorted[1:]):
        assert not b.startswith(a)
    assert kraft_sum(len(c) for c in codes) <= 1
    report("8 (coder hygiene)", True, "round-trips, separation, Kraft and prefix-freeness")
