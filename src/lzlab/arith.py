"""Integer binary arithmetic coder.

Works over quantized symbol probabilities supplied by a predictor: each step
takes ``c`` = P(next symbol = 0) scaled to PROB_BITS, an integer in
[1, 2**PROB_BITS - 1].  Encoder and decoder are exact mirrors, so any
deterministic predictor yields a decodable code.  Termination picks the
shortest dyadic interval inside the final range, giving total length at most
ceil(-log2 of the coded mass) + 2 bits.
"""

from __future__ import annotations

PROB_BITS = 48
STATE_BITS = 62
TOP = 1 << STATE_BITS
HALF = TOP >> 1
QUARTER = TOP >> 2
THREEQ = HALF + QUARTER


class ArithmeticEncoder:
    def __init__(self):
        self.low = 0
        self.high = TOP - 1
        self.pending = 0
        self.bits: list[str] = []
        self.nbits = 0  # total length of the chunks in self.bits

    def _emit(self, bit: int) -> None:
        self.bits.append("1" if bit else "0")
        self.nbits += 1 + self.pending
        if self.pending:
            self.bits.append(("0" if bit else "1") * self.pending)
            self.pending = 0

    def encode_bit(self, c: int, bit: int) -> None:
        """c = quantized P(0), in [1, 2**PROB_BITS - 1]."""
        rng = self.high - self.low + 1
        split = self.low + ((rng * c) >> PROB_BITS) - 1
        if bit:
            self.low = split + 1
        else:
            self.high = split
        while True:
            if self.high < HALF:
                self._emit(0)
            elif self.low >= HALF:
                self._emit(1)
                self.low -= HALF
                self.high -= HALF
            elif self.low >= QUARTER and self.high < THREEQ:
                self.pending += 1
                self.low -= QUARTER
                self.high -= QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1

    def finish_length(self) -> int:
        """Payload length if finished now (without mutating state)."""
        return self.nbits + self.pending + _dyadic_bits(self.low, self.high)[0]

    def finish(self) -> str:
        ell, v = _dyadic_bits(self.low, self.high)
        out = "".join(self.bits)
        if ell == 0:
            assert self.pending == 0
            return out
        tail = format(v, f"0{ell}b")
        first, rest = tail[0], tail[1:]
        out += first + ("0" if first == "1" else "1") * self.pending + rest
        return out


def _dyadic_bits(low: int, high: int) -> tuple[int, int]:
    """Smallest (bits, value) with [v*2^(S-bits), (v+1)*2^(S-bits)) inside
    [low, high+1)."""
    for ell in range(0, STATE_BITS + 1):
        shift = STATE_BITS - ell
        v = (low + (1 << shift) - 1) >> shift  # ceil division
        if (v + 1) << shift <= high + 1:
            return ell, v
    raise AssertionError("unreachable: interval narrower than one unit")


class ArithmeticDecoder:
    def __init__(self, bits: str, pos: int = 0):
        self._bits = bits
        self._next = pos
        self.low = 0
        self.high = TOP - 1
        self.value = 0
        for _ in range(STATE_BITS):
            self.value = (self.value << 1) | self._read()

    def _read(self) -> int:
        if self._next < len(self._bits):
            b = 1 if self._bits[self._next] == "1" else 0
            self._next += 1
            return b
        self._next += 1
        return 0

    def decode_bit(self, c: int) -> int:
        rng = self.high - self.low + 1
        split = self.low + ((rng * c) >> PROB_BITS) - 1
        bit = 0 if self.value <= split else 1
        if bit:
            self.low = split + 1
        else:
            self.high = split
        while True:
            if self.high < HALF:
                pass
            elif self.low >= HALF:
                self.low -= HALF
                self.high -= HALF
                self.value -= HALF
            elif self.low >= QUARTER and self.high < THREEQ:
                self.low -= QUARTER
                self.high -= QUARTER
                self.value -= QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            self.value = (self.value << 1) | self._read()
        return bit
