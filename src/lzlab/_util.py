"""Shared helpers: rational parsing, seed streams, logarithms of fractions,
sampling cut points."""

from __future__ import annotations

import hashlib
import math
import os
import json
from fractions import Fraction


def parse_rational(text) -> Fraction:
    """Parse "num/den" or plain integer strings into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def stream_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit seed for a named stream from one master seed.

    Adding a new named stream never perturbs existing ones.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def log2_fraction(fr: Fraction) -> float:
    """log2 of a positive Fraction, safe for values far outside float range."""
    if fr <= 0:
        raise ValueError("log2 of a non-positive value")
    num, den = fr.numerator, fr.denominator
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    return shift + math.log2(num / den)


def binary_entropy(p: Fraction) -> float:
    """h(p) in bits."""
    p = float(p)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def cut_points(widths, total: Fraction) -> list[int]:
    """A 64-bit draw r picks the first part whose cumulative width exceeds
    r / 2**64 * total, that is, the first with r < ceil(cumulative * 2**64 / total)."""
    cuts, acc = [], Fraction(0)
    for w in widths:
        acc += w
        cuts.append(math.ceil(acc * (1 << 64) / total))
    return cuts


def write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_json_atomic(path: str, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
