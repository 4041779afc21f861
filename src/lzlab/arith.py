"""Integer binary arithmetic coding: its precision and its termination.

The coding loops live in ``ktmix.MixtureCoder``, whose encoder and decoder
keep the coder's state in locals.  Each step takes ``c`` = P(next symbol = 0)
scaled to PROB_BITS, an integer in [1, 2**PROB_BITS - 1], and splits the
state interval [low, high] of STATE_BITS-bit integers after
low + floor((high - low + 1) * c / 2**PROB_BITS) - 1; a 0 keeps the lower
part.  The interval is then doubled while it lies in one half (a settled
bit) or inside the middle half (a pending bit, emitted opposite to the next
settled one).  Encoder and decoder are exact mirrors, so any deterministic
predictor yields a decodable code.  Termination picks the shortest dyadic
interval inside the final range, giving total length at most
ceil(-log2 of the coded mass) + 2 bits.
"""

from __future__ import annotations

PROB_BITS = 48
STATE_BITS = 62
TOP = 1 << STATE_BITS
HALF = TOP >> 1
QUARTER = TOP >> 2
THREEQ = HALF + QUARTER


def _dyadic_bits(low: int, high: int) -> tuple[int, int]:
    """Smallest (bits, value) with [v*2^(S-bits), (v+1)*2^(S-bits)) inside
    [low, high+1)."""
    for ell in range(0, STATE_BITS + 1):
        shift = STATE_BITS - ell
        v = (low + (1 << shift) - 1) >> shift  # ceil division
        if (v + 1) << shift <= high + 1:
            return ell, v
    raise AssertionError("unreachable: interval narrower than one unit")


def termination(low: int, high: int, pending: int) -> str:
    """The bits that end a code in state [low, high] with ``pending`` bits
    owed: the shortest dyadic interval inside the state, its first bit
    followed by the pending bits."""
    ell, v = _dyadic_bits(low, high)
    if ell == 0:
        assert pending == 0
        return ""
    tail = format(v, f"0{ell}b")
    first = tail[0]
    return first + ("0" if first == "1" else "1") * pending + tail[1:]
