import random

import pytest
from fractions import Fraction

from lzlab.bitio import (
    MalformedInput,
    decode_int,
    encode_int,
    encode_int_len,
    pack_bits,
    read_self_delimited,
    self_delimit,
    unpack_bits,
)

from family import kraft_sum


def test_encode_int_hand_values():
    assert encode_int(1) == "1"
    assert encode_int(2) == "0100"


def test_encode_int_rejects_zero():
    with pytest.raises(ValueError):
        encode_int(0)


def test_decode_int_hand_values():
    assert decode_int("1") == (1, 1)
    assert decode_int("0100" + "111") == (2, 4)


def test_decode_inverts_encode_random():
    rng = random.Random(1234)
    for _ in range(10_000):
        k = rng.randrange(1, 1 << 40)
        code = encode_int(k)
        assert len(code) == encode_int_len(k)
        suffix = bin(rng.getrandbits(8))[2:]
        value, used = decode_int(code + suffix)
        assert value == k and used == len(code)


def test_decode_errors_on_truncation():
    code = encode_int(1000)
    with pytest.raises(MalformedInput):
        decode_int(code[:-1])
    with pytest.raises(MalformedInput):
        decode_int("000")


def test_prefix_free_and_kraft_up_to_2_16():
    codes = [encode_int(k) for k in range(1, (1 << 16) + 1)]
    codes_sorted = sorted(codes)
    for a, b in zip(codes_sorted, codes_sorted[1:]):
        assert not b.startswith(a), (a, b)
    assert kraft_sum(len(c) for c in codes) <= 1


def test_length_bound_closed_form():
    for k in range(1, (1 << 16) + 1):
        b = k.bit_length() - 1  # floor(log2 k)
        bound = b + 2 * ((b + 1).bit_length() - 1) + 1
        ln = encode_int_len(k)
        assert ln >= b + 1
        assert ln <= bound


def test_self_delimit_contract():
    assert self_delimit("") == encode_int(1)
    assert self_delimit("01") == encode_int(3) + "01"
    rng = random.Random(99)
    for _ in range(10_000):
        u = bin(rng.getrandbits(rng.randrange(0, 48)) | 0)[2:]
        u = u if rng.random() < 0.9 else ""
        framed = self_delimit(u) + "10"
        word, used = read_self_delimited(framed)
        assert word == u
        assert used == len(self_delimit(u))


def test_pack_roundtrip_small():
    bits = "1011010011011"
    assert len(bits) == 13
    assert unpack_bits(pack_bits(bits)) == bits
    assert unpack_bits(pack_bits("")) == ""


def test_pack_roundtrip_large_random():
    rng = random.Random(7)
    bits = "".join(rng.choice("01") for _ in range(1_000_000))
    assert unpack_bits(pack_bits(bits)) == bits


def test_pack_header_is_little_endian_bit_count():
    data = pack_bits("101")
    assert data[:8] == (3).to_bytes(8, "little")
    with pytest.raises(MalformedInput):
        unpack_bits(data[:9] if len(data) > 9 else data[:-1])


def test_kraft_sum_exact_type():
    assert kraft_sum([1, 2, 2]) == Fraction(1)
