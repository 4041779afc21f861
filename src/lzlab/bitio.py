"""Bit strings, prefix-free integer codes, and the on-disk bitstream format.

Bit strings are plain Python ``str`` over the characters '0' and '1'; the
empty string is the identity for concatenation.  Positive integers are coded
with the Elias delta code, whose length is exactly
``floor(log2 k) + 2*floor(log2(floor(log2 k) + 1)) + 1`` bits.
"""

from __future__ import annotations


class MalformedInput(ValueError):
    """Raised when a bit stream cannot be decoded."""


def encode_int(k: int) -> str:
    """Elias delta codeword for a positive integer k."""
    if k < 1:
        raise ValueError("encode_int requires k >= 1")
    b = k.bit_length()
    gamma = "0" * (b.bit_length() - 1) + bin(b)[2:]
    return gamma + bin(k)[3:]


def encode_int_len(k: int) -> int:
    """Length of encode_int(k) without building the string."""
    if k < 1:
        raise ValueError("encode_int requires k >= 1")
    b = k.bit_length()
    return 2 * b.bit_length() - 1 + b - 1


def decode_int(s: str, pos: int = 0) -> tuple[int, int]:
    """Decode one Elias delta codeword starting at ``pos``.

    Returns (value, bits consumed from ``pos``).
    """
    n = len(s)
    zeros = 0
    i = pos
    while True:
        if i >= n:
            raise MalformedInput("input exhausted inside integer codeword")
        if s[i] == "1":
            break
        zeros += 1
        i += 1
    if i + zeros + 1 > n:
        raise MalformedInput("input exhausted inside integer codeword")
    b = int(s[i : i + zeros + 1], 2)
    i += zeros + 1
    if i + b - 1 > n:
        raise MalformedInput("input exhausted inside integer codeword")
    if b == 1:
        k = 1
    else:
        k = int("1" + s[i : i + b - 1], 2)
    i += b - 1
    return k, i - pos


def self_delimit(u: str) -> str:
    """Length-prefixed form of a word; the image is prefix-free.

    The length is coded as len(u)+1 so the empty word is representable.
    """
    return encode_int(len(u) + 1) + u


def self_delimited_len(n: int) -> int:
    """Length of self_delimit(u) for any word u of n bits."""
    return encode_int_len(n + 1) + n


def read_self_delimited(s: str, pos: int = 0) -> tuple[str, int]:
    """Inverse of self_delimit; returns (word, bits consumed)."""
    ln, used = decode_int(s, pos)
    ln -= 1
    if pos + used + ln > len(s):
        raise MalformedInput("input exhausted inside delimited word")
    return s[pos + used : pos + used + ln], used + ln


def pack_bits(bits: str) -> bytes:
    """Serialize bits: 8-byte little-endian bit count, then zero-padded bytes."""
    header = len(bits).to_bytes(8, "little")
    if not bits:
        return header
    padded = bits + "0" * (-len(bits) % 8)
    payload = int(padded, 2).to_bytes(len(padded) // 8, "big")
    return header + payload


def unpack_bits(data: bytes) -> str:
    """Inverse of pack_bits."""
    if len(data) < 8:
        raise MalformedInput("truncated bitstream header")
    nbits = int.from_bytes(data[:8], "little")
    nbytes = (nbits + 7) // 8
    if len(data) < 8 + nbytes:
        raise MalformedInput("truncated bitstream payload")
    if nbits == 0:
        return ""
    value = int.from_bytes(data[8 : 8 + nbytes], "big")
    padded = bin(value)[2:].zfill(nbytes * 8)
    return padded[:nbits]


def write_bits_file(path: str, bits: str) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_bits(bits))


def read_bits_file(path: str) -> str:
    with open(path, "rb") as fh:
        return unpack_bits(fh.read())
