import math
import random
from fractions import Fraction

import pytest

from lzlab.deficiency import (
    deficiency_curve,
    monotone_length,
    probability_estimate,
    surrogate_deficiency,
)
from lzlab.lz import LZ78Coder
from lzlab.sources import bernoulli, flip_chain

F = Fraction


from family import (
    CodeMartingale,
    Supermartingale,
    brute_force_selection,
    cylinder_mass,
    random_measure,
    random_supermartingale,
    select_subset,
    selection_threshold,
)


def test_supermartingale_family_is_valid():
    rng = random.Random(5)
    for _ in range(50):
        measure = random_measure(rng, 5)
        mart, values = random_supermartingale(rng, measure, 5)
        for w in values:
            if len(w) < 5:
                assert mart.check_inequality(w), w


def test_constant_martingale_keeps_everything():
    rng = random.Random(8)
    measure = random_measure(rng, 6)
    mart = Supermartingale(lambda x: F(1), measure)
    x = ""
    A = [w for w in ("00", "01", "101", "111000") if measure.query(w) > 0]
    if not A:
        pytest.skip("degenerate draw")
    mu = F(1, 2)
    got = select_subset(A, x, measure, mart, mu)
    thr = selection_threshold(x, measure, mart, A, mu)
    if thr > 1:
        assert got == A


def test_select_subset_postconditions_1000_instances():
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        depth = rng.randrange(3, 11)
        measure = random_measure(rng, depth)
        mart, values = random_supermartingale(rng, measure, depth)
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
        mass_a = cylinder_mass(measure, pool)
        mass_after = cylinder_mass(measure, got)
        # mass postcondition, strict
        assert mass_after > mu * mass_a
        # log-threshold postcondition on every surviving prefix
        for y in got:
            for j in range(len(x), len(y) + 1):
                assert mart.value(y[:j]) <= thr
        checked += 1


def test_code_martingale_on_uniform_depth_8():
    measure = bernoulli(F(1, 2))
    mart = CodeMartingale(LZ78Coder(), measure, horizon=8)
    words = [""]
    for _ in range(7):
        words = [w + b for w in words for b in "01"] + words
    for w in set(words):
        assert mart.check_inequality(w)
    # log M(x) >= dhat(x) - 1 with the same code
    coder = LZ78Coder()
    rng = random.Random(4)
    for _ in range(100):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        m = mart.value(w)
        dhat = -math.log2(2 ** -len(w)) - len(coder.encode(w))
        assert math.log2(float(m)) >= dhat - 1


def test_identity_code_martingale_constant():
    class HeaderCoder:
        def encode(self, x):
            return format(len(x), "04b") + x

    measure = bernoulli(F(1, 2))
    mart = CodeMartingale(HeaderCoder(), measure, horizon=4)
    # Q(x) = sum over extensions: 2^-(4+l(y)) summed over suffixes makes
    # M(x) constant across x at fixed horizon remainder
    vals = {mart.value(w) for w in ("00", "01", "10", "11")}
    assert len(vals) == 1


def test_non_prefix_free_code_rejected():
    class BadCoder:
        def encode(self, x):
            return "1" * (len(x) + 1)

    with pytest.raises(ValueError):
        CodeMartingale(BadCoder(), bernoulli(F(1, 2)), horizon=3)


def test_surrogate_deficiency_header_coder_constant():
    class HeaderCoder:
        def encode(self, x):
            return format(len(x), "016b") + x

        # no payload split: treat whole thing as monotone length
        def payload_code_len(self, x):
            return 16 + len(x)

    measure = bernoulli(F(1, 2))
    for x in ("0", "0101", "1" * 30):
        d = surrogate_deficiency(x, measure, code=HeaderCoder())
        assert d == pytest.approx(-16.0, abs=1e-9)


def test_probability_estimate_queries_an_exact_measure_once():
    class Counting:
        def __init__(self, measure):
            self.measure = measure
            self.queries = 0

        def query(self, x, eps):
            self.queries += 1
            return self.measure.query(x, eps)

    measure = Counting(bernoulli(F(1, 2)))
    x = "0110" * 10
    assert probability_estimate(measure, x) == F(1, 2**40)
    assert measure.queries == 1


def zero_run_payload_bits(n: int) -> int:
    """Phrase-count oracle for 0^n: phrase k costs width(k) + 1 payload bits."""
    c = 0
    covered = 0
    payload = 0
    while covered + c + 1 <= n:
        c += 1
        covered += c
        payload += (c - 1).bit_length() + 1
    if n - covered:
        payload += c.bit_length()
    return payload


def test_deficiency_lz78_on_random_vs_zeros():
    measure = bernoulli(F(1, 2))
    rng = random.Random(10)
    x = "".join(rng.choice("01") for _ in range(10_000))
    d_rand = surrogate_deficiency(x, measure, code=LZ78Coder())
    assert d_rand <= 64
    d_zeros = surrogate_deficiency("0" * 10_000, measure, code=LZ78Coder())
    assert d_zeros == pytest.approx(10_000 - zero_run_payload_bits(10_000), abs=1e-6)
    assert d_zeros >= 8900


def test_deficiency_curve_bounded_on_matched_source():
    src = flip_chain(F(1, 10))
    x = src.sample(3, 8192)
    curve = deficiency_curve(x, src, code=LZ78Coder(), stride=2048)
    assert len(curve) == 4
    # code redundancy makes the surrogate negative; bounded above by a constant
    assert all(d <= 64 for _, d in curve)


def test_deficiency_curve_linear_on_mismatched_source():
    """Bernoulli(1/2) words scored against a sparse source grow linearly."""
    sparse = bernoulli(F(1, 256))
    rng = random.Random(11)
    x = "".join(rng.choice("01") for _ in range(8192))
    curve = deficiency_curve(x, sparse, code=LZ78Coder(), stride=2048)
    ds = [d for _, d in curve]
    assert ds[-1] > 8192  # far beyond any code constant
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_monotone_length_strips_frame():
    coder = LZ78Coder()
    x = "0" * 500
    assert monotone_length(coder, x) < len(coder.encode(x))
