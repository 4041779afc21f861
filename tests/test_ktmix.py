import itertools
import math
import random
from fractions import Fraction

import pytest

from lzlab._util import binary_entropy
from lzlab.bitio import MalformedInput, encode_int, self_delimit
from lzlab.ktmix import (
    PROB_BITS,
    MixtureCoder,
    QuantizedMixturePredictor,
    mixture_weights,
)
from lzlab.sources import bernoulli, flip_chain

from family import MixtureMeasure, ReferenceMixturePredictor, forecast_error, kt_prob
from test_golden import LONG_ALPHA


def test_kt_prob_hand_values():
    assert kt_prob("0", 0) == Fraction(1, 2)
    assert kt_prob("00", 0) == Fraction(3, 8)
    assert kt_prob("01", 0) == Fraction(1, 8)


def test_kt_prob_bootstrap_first_k_symbols():
    assert kt_prob("01", 3) == Fraction(1, 4)
    assert kt_prob("0110", 2) == Fraction(1, 4) * Fraction(1, 2) * Fraction(1, 2)


def test_kt_additivity_exact():
    rng = random.Random(21)
    for k in (0, 1, 3):
        for _ in range(200):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 24)))
            assert kt_prob(x + "0", k) + kt_prob(x + "1", k) == kt_prob(x, k)


def test_mixture_weight_normalization_and_golden_value():
    w = mixture_weights(2)
    assert sum(w) == 1
    # independent evaluation of the weight rule and the three estimators
    raw = [Fraction(1, 2 * 1**2 * 2), Fraction(1, 3 * 2**2), Fraction(1, 4 * 3**2)]
    raw = [Fraction(1, (k + 2) * (k + 2).bit_length() ** 2) for k in range(3)]
    tot = sum(raw)
    rho = sum((rw / tot) * kt for rw, kt in zip(raw, [Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)]))
    assert MixtureMeasure(kmax=2).prob("00") == rho == Fraction(43, 136)


def test_mixture_empty_word_and_additivity():
    m = MixtureMeasure(kmax=4)
    assert m.prob("") == 1
    rng = random.Random(31)
    for _ in range(300):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 40)))
        assert m.prob(x + "0") + m.prob(x + "1") == m.prob(x)
        assert m.prob(x) > 0


def test_mixture_pred_is_conditional():
    m = MixtureMeasure(kmax=3)
    x = "0110100"
    assert m.pred(x, "1") == m.prob(x + "1") / m.prob(x)
    assert m.pred(x, "0") + m.pred(x, "1") == 1


ORACLE_INPUTS = {
    "flip": flip_chain(Fraction(1, 10)).sample(11, 4000),
    "fair": bernoulli(Fraction(1, 2)).sample(12, 4000),
    "alpha": LONG_ALPHA[: 1 << 14],
}


@pytest.mark.parametrize("kmax", [0, 1, 2, 4, 8])
@pytest.mark.parametrize("input_name", sorted(ORACLE_INPUTS))
def test_predictor_matches_reference(input_name, kmax):
    """Every prediction equals the reference predictor's, and an order is
    retired exactly when the reference's weight for it reaches 0."""
    x = ORACLE_INPUTS[input_name]
    pred = QuantizedMixturePredictor(kmax)
    ref = ReferenceMixturePredictor(kmax)
    got = []
    want = []
    for ch in x:
        got.append(pred.prob0_scaled())
        want.append(ref.prob0_scaled())
        bit = 1 if ch == "1" else 0
        pred.update(bit)
        ref.update(bit)
    assert got == want
    dead = [k for k, w in enumerate(ref.w) if not w]
    assert sorted(order[1] for order in pred.orders) == [k for k in range(kmax + 1) if k not in dead]
    if input_name == "flip" and kmax >= 1:
        assert 0 in dead  # order 0 retires early on a flip chain
    if input_name == "fair" and kmax <= 4:
        assert not dead


def test_predictor_rejects_kmax_out_of_range():
    for kmax in (-1, 21):
        with pytest.raises(ValueError):
            QuantizedMixturePredictor(kmax)


def test_code_roundtrip_random_words():
    """kmax 0 codes with a single order from the first bit."""
    for kmax in (0, 4):
        coder = MixtureCoder(kmax)
        rng = random.Random(55)
        for _ in range(1000):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 120)))
            code = coder.encode(x)
            word, used = coder.decode(code + "01101")
            assert word == x
            assert used == len(code)


# kmax -> the first bit of ORACLE_INPUTS["alpha"] coded with one live order
ALPHA_SWITCH = {0: 0, 1: 8181, 2: 8312, 4: 8999}


@pytest.mark.parametrize("kmax", sorted(ALPHA_SWITCH))
def test_single_order_regime_matches_reference(kmax):
    """Once one order is left, the coder runs its counts without the
    predictor; its -log2 stream must still equal, float for float, the one
    the reference predictor's probabilities give."""
    x = ORACLE_INPUTS["alpha"]
    ref = ReferenceMixturePredictor(kmax)
    want = []
    total = 0.0
    switch = None
    for t, ch in enumerate(x):
        live = [k for k, w in enumerate(ref.w) if w]
        if switch is None and len(live) == 1 and t >= live[0]:
            switch = t
        bit = 1 if ch == "1" else 0
        p0 = ref.prob0_scaled() / (1 << PROB_BITS)
        total -= math.log2(1 - p0 if bit else p0)
        want.append(total)
        ref.update(bit)
    assert switch == ALPHA_SWITCH[kmax]
    got = []
    MixtureCoder(kmax).prefix_bits(x, [len(x)], got)
    assert got == want


@pytest.mark.parametrize("kmax", sorted(ALPHA_SWITCH))
def test_code_roundtrip_across_the_single_order_switch(kmax):
    coder = MixtureCoder(kmax)
    s = ALPHA_SWITCH[kmax]
    ns = sorted({0, 1, s, s + 1, s + 2, s + 500, len(ORACLE_INPUTS["alpha"])})
    x = ORACLE_INPUTS["alpha"]
    lens = coder.prefix_bits(x, ns)
    for n, ln in zip(ns, lens):
        code = coder.encode(x[:n])
        assert len(code) == ln
        assert coder.decode(code + "1") == (x[:n], ln)


def test_decoder_rejects_forged_overread():
    """A valid payload of R renormalisations has at least R bits, and its
    decoder reads STATE_BITS + R: at most STATE_BITS implicit zeros past its
    end.  Every payload of at most 6 bits behind a length field of 4,096
    symbols needs more, so each such codeword is rejected; the cheapest
    4,096-symbol word codes to 8 payload bits and still decodes."""
    coder = MixtureCoder(kmax=2)
    zeros = "0" * 4096
    assert coder.payload_code_len(zeros) == 8
    assert coder.decode(coder.encode(zeros))[0] == zeros
    for size in range(7):
        for payload in itertools.product("01", repeat=size):
            with pytest.raises(MalformedInput):
                coder.decode(self_delimit(encode_int(4097) + "".join(payload)))


def test_code_length_against_ideal():
    """Payload bits <= -log2 rho + 2 and >= -log2 rho; framing excluded."""
    coder = MixtureCoder(kmax=3)
    measure = MixtureMeasure(kmax=3)
    rng = random.Random(66)
    for _ in range(1000):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 64)))
        bits = coder.payload_code_len(x)
        rho = measure.prob(x)
        # code_len + log2(rho) in [0, 2]: equivalently 1 <= 2^len * rho <= 4
        # (tiny quantization slack on the upper side)
        assert Fraction(2) ** bits * rho >= 1
        assert Fraction(2) ** bits * rho <= Fraction(4_000_001, 1_000_000)


def test_ideal_code_len_bound():
    m = MixtureMeasure(kmax=3)
    for x in ("", "0", "0101", "111100001111"):
        ln = m.ideal_code_len(x)
        assert Fraction(2) ** ln * m.prob(x) >= 1


def test_prefix_bits_match_reencoding():
    coder = MixtureCoder(kmax=2)
    rng = random.Random(91)
    x = "".join(rng.choice("01") for _ in range(400))
    ns = [1, 7, 64, 130, 399, 400]
    assert coder.prefix_bits(x, ns) == [len(coder.encode(x[:n])) for n in ns]


def test_code_rate_bernoulli_02():
    rng = random.Random(12)
    n = 30_000
    x = "".join("1" if rng.random() < 0.2 else "0" for _ in range(n))
    bits = MixtureCoder(kmax=4).payload_code_len(x)
    assert abs(bits / n - binary_entropy(Fraction(1, 5))) < 0.02


def test_separating_property():
    from family import decodability_check

    report = decodability_check(MixtureCoder(kmax=2), pairs=300, seed=9)
    assert report.ok, report.failures[:3]


def test_forecast_error_of_rho_against_itself_is_zero():
    m = MixtureMeasure(kmax=2)
    assert forecast_error("0110", m, m) == 0.0


def test_forecast_error_bernoulli_half():
    class Uniform:
        def query(self, x, eps):
            return Fraction(1, 2 ** len(x))

    rng = random.Random(44)
    x = "".join(rng.choice("01") for _ in range(10_000))
    err = forecast_error(x, Uniform())
    assert 0 <= err <= 0.01


def test_forecast_error_decreasing_trend_on_markov():
    """Mean forecast error against an order-1 chain shrinks with t
    (monotone majority over dyadic checkpoints)."""
    from lzlab.sources import MarkovSource

    src = MarkovSource(1, {"0": Fraction(1, 10), "1": Fraction(1, 5)})
    x = src.sample(17, 4096)
    rho = MixtureMeasure(kmax=3)
    errs = [forecast_error(x[:t], src, rho) for t in (512, 1024, 2048, 4096)]
    assert all(e >= 0 for e in errs)
    drops = sum(1 for a, b in zip(errs, errs[1:]) if b < a)
    assert drops >= 2
    assert errs[-1] < errs[0]


def test_forecast_error_rejects_zero_mass():
    class Point:
        def query(self, x, eps):
            return Fraction(1) if set(x) <= {"0"} else Fraction(0)

    with pytest.raises(ValueError):
        forecast_error("01", Point())
