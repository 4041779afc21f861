"""Computable randomness-deficiency surrogate.

The surrogate is d(x) = -log2 P_hat(x) - L(x) for a code-length functional
L, where P_hat is the staged construction's relative-precision estimate or
the exact probability of any other measure.  It is one-sided (at most the
true deficiency plus a code constant) since any monotone-decodable code
length upper-bounds monotone complexity.  L defaults to the LZ78 payload
length; the mixture-code length is selectable and is much tighter on the
staged construction's measure class.

The supermartingales and the bounded-increase selection procedure are the
test suite's check of acceptance criterion 3, and live in ``tests/family.py``.
"""

from __future__ import annotations

from fractions import Fraction

from ._util import log2_fraction
from .bitio import decode_int
from .lz import LZ78Coder, checkpoints

F = Fraction


def monotone_length(coder, x: str) -> int:
    """Code length without the end-delimiting frame (the monotone view)."""
    if hasattr(coder, "payload_code_len"):
        return coder.payload_code_len(x)
    code = coder.encode(x)
    _, used = decode_int(code)
    return len(code) - used


def probability_estimate(measure, x: str) -> Fraction:
    """P_hat(x) at relative precision ~1/4 (half a bit of log error).

    Oracles exposing ``prob_estimate`` (the staged construction) are asked
    directly; every other measure is exact and is queried once.
    """
    if hasattr(measure, "prob_estimate"):
        return measure.prob_estimate(x)
    return measure.query(x, F(0))


def surrogate_deficiency(x: str, measure, code=None) -> float:
    """-log2 P_hat(x) - L(x); raises on a zero probability estimate."""
    coder = code if code is not None else LZ78Coder()
    p_hat = probability_estimate(measure, x)
    if p_hat <= 0:
        raise ValueError("measure estimate is zero; deficiency undefined")
    return -log2_fraction(p_hat) - monotone_length(coder, x)


def deficiency_curve(omega: str, measure, code=None, stride: int = 1024) -> list[tuple[int, float]]:
    """(n, surrogate deficiency) of omega's prefixes at checkpoints(len(omega), stride)."""
    return [
        (n, surrogate_deficiency(omega[:n], measure, code=code))
        for n in checkpoints(len(omega), stride)
    ]
