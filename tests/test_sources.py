import math
import random
from fractions import Fraction

import pytest

from lzlab._util import binary_entropy
from lzlab.sources import MarkovSource, bernoulli, bernoulli_prob, flip_chain, robustness_experiment

F = Fraction


def test_bernoulli_half_is_uniform():
    src = bernoulli(F(1, 2))
    for x in ("", "0", "01", "1101"):
        assert src.prob(x) == F(1, 2 ** len(x))


def test_bernoulli_prob_closed_form():
    assert bernoulli_prob("0110", F(1, 5)) == F(1, 5) ** 2 * F(4, 5) ** 2


def test_flip_chain_hand_value():
    src = flip_chain(F(1, 10))
    assert src.stationary == {"0": F(1, 2), "1": F(1, 2)}
    assert src.prob("01") == F(1, 2) * F(1, 10)


def test_additivity_random_prefixes():
    rng = random.Random(3)
    for src in (bernoulli(F(1, 3)), flip_chain(F(1, 10)), MarkovSource(2, {"00": F(1, 5), "01": F(1, 2), "10": F(2, 3), "11": F(1, 7)})):
        for _ in range(200):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
            assert src.prob(x + "0") + src.prob(x + "1") == src.prob(x)


def test_stationarity_shift_invariance_bruteforce():
    src = flip_chain(F(1, 10))
    src2 = MarkovSource(2, {"00": F(1, 5), "01": F(1, 2), "10": F(2, 3), "11": F(1, 7)})
    for source in (src, src2):
        for ln in range(1, 8):
            for v in range(2**ln):
                x = format(v, f"0{ln}b")
                assert source.prob("0" + x) + source.prob("1" + x) == source.prob(x)


def test_entropy_rates():
    assert bernoulli(F(1, 2)).entropy_rate() == pytest.approx(1.0)
    assert bernoulli(F(1, 5)).entropy_rate() == pytest.approx(binary_entropy(F(1, 5)), abs=1e-12)
    assert flip_chain(F(1, 10)).entropy_rate() == pytest.approx(binary_entropy(F(1, 10)), abs=1e-12)


def test_sample_deterministic_and_frequency():
    src = bernoulli(F(1, 5))
    x1 = src.sample(77, 100_000)
    x2 = src.sample(77, 100_000)
    assert x1 == x2
    freq = x1.count("1") / 100_000
    se = math.sqrt(0.2 * 0.8 / 100_000)
    assert abs(freq - 0.2) <= 3 * se


def test_sample_transition_counts():
    src = flip_chain(F(1, 10))
    x = src.sample(5, 100_000)
    flips = sum(1 for a, b in zip(x, x[1:]) if a != b)
    se = math.sqrt(0.1 * 0.9 / 100_000)
    assert abs(flips / (len(x) - 1) - 0.1) <= 4 * se


def _reference_sample(src: MarkovSource, seed: int, n: int) -> str:
    """The sampler as first written: one exact Fraction comparison per bit."""
    rng = random.Random(seed)
    out = []
    ctx = ""
    if src.order:
        u = F(rng.getrandbits(64), 1 << 64)
        acc = F(0)
        ctx = src.contexts[-1]
        for c in src.contexts:
            acc += src.stationary[c]
            if u < acc:
                ctx = c
                break
        out.extend(ctx)
    while len(out) < n:
        sym = "1" if F(rng.getrandbits(64), 1 << 64) < src.p_one[ctx] else "0"
        out.append(sym)
        ctx = (ctx + sym)[1:] if src.order else ""
    return "".join(out[:n])


@pytest.mark.parametrize("src", [
    bernoulli(F(0)),
    bernoulli(F(1)),
    bernoulli(F(1, 2)),
    bernoulli(F(1, 5)),
    bernoulli(1 - F(1, 2**64)),
    flip_chain(F(1, 10)),
    MarkovSource(2, {"00": F(1, 3), "01": F(2, 7), "10": F(9, 10), "11": F(1, 17)}),
], ids=lambda src: src.name)
def test_sample_matches_fraction_reference(src):
    """The integer-threshold sampler emits exactly the reference's bits."""
    for seed in (1, 2, 3):
        for n in (0, 1, 2, 5000):
            assert src.sample(seed, n) == _reference_sample(src, seed, n)


def test_log_prob_consistency_lln():
    """-(1/n) log2 P(sample) converges to the entropy rate."""
    for src in (bernoulli(F(1, 5)), flip_chain(F(1, 10))):
        n = 100_000
        x = src.sample(13, n)
        rate = -src.log2_prob(x) / n
        assert abs(rate - src.entropy_rate()) < 0.01


def test_nonirreducible_rejected():
    with pytest.raises(ValueError):
        MarkovSource(1, {"0": F(0), "1": F(1)})


def test_robustness_experiment_smoke():
    from lzlab.lz import LZ78Coder

    src = flip_chain(F(1, 10))
    report = robustness_experiment(src, LZ78Coder(), 1 << 14, [64, 256], seed=1)
    assert report.entropy == pytest.approx(binary_entropy(F(1, 10)), abs=1e-12)
    assert set(report.block_final) == {64, 256}
    assert 0 < report.final_ratio < 2
