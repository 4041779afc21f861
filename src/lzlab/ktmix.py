"""The Krichevsky-Trofimov mixture forecaster over orders 0..kmax, and the
code built on it.

The coder runs a deterministic integer-quantized predictor so megabit inputs
are feasible.  Its exact rational twin lives with the tests, in
``tests/family.py``: they check measure identities against it, and that the
code stays within the 2-bit contract of its ideal length (quantization adds
less than n * 2**-24 bits at test scales).

Orders whose weight floors to 0 retire, and on a low-entropy input all but
one soon do: on the oscillation runner's traces 94 to 98 % of the bits are
coded with a single live order.  The mixture is then exactly that order's KT
estimator, since its lone weight cancels from the prediction and never
reaches 0, so the coder's loops run its counts directly.

The arithmetic coder is integer and binary.  Each step takes ``c`` = P(next
symbol = 0) scaled to PROB_BITS, an integer in [1, 2**PROB_BITS - 1], and
splits the state interval [low, high] of STATE_BITS-bit integers after
low + floor((high - low + 1) * c / 2**PROB_BITS) - 1; a 0 keeps the lower
part.  The interval is then doubled while it lies in one half (a settled
bit) or inside the middle half (a pending bit, emitted opposite to the next
settled one).  Encoder and decoder are exact mirrors, so any deterministic
predictor yields a decodable code.  Termination picks the shortest dyadic
interval inside the final range, giving total length at most
ceil(-log2 of the coded mass) + 2 bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bitio import (
    MalformedInput,
    decode_int,
    encode_int,
    encode_int_len,
    read_self_delimited,
    self_delimit,
    self_delimited_len,
)

DEFAULT_KMAX = 8
MAX_KMAX = 20
WEIGHT_BITS = 96
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


def mixture_weights(kmax: int) -> list[Fraction]:
    """Normalized weights ~ 1/((k+2) * log2(k+2)^2), with the logarithm
    realized as bit_length so the weights stay rational."""
    raw = [Fraction(1, (k + 2) * (k + 2).bit_length() ** 2) for k in range(kmax + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class QuantizedMixturePredictor:
    """Integer twin, used by the coder, of the exact KT mixture; the exact
    mixture is a test oracle in ``tests/family.py``.

    Weights live in WEIGHT_BITS-bit registers, probabilities are emitted at
    PROB_BITS precision; every operation is integer, so encoder and
    decoder trajectories match bit for bit.

    The prediction is floor(2**PROB_BITS * sum_k w_k n0_k/d_k / sum_k w_k),
    where n0_k/d_k = (count0 + 1/2) / (total + 1) is order k's KT estimate
    in halves for its current context.  ``update`` forms it in the loop that
    folds the bit in, as one running fraction A / (W * B) with
    A <- A*d_k + w_k*n0_k*B, B <- B*d_k, W <- W + w_k.

    An order whose weight floors to 0 is retired: it is dropped from the
    loop for good.  This is exact: its weight stays 0 (0 * n // d = 0), so
    it adds nothing to A or W, and its factor d_k, which would multiply A and
    W * B alike, leaves the fraction unchanged.  The orders never all retire:
    after renormalisation the top weight has WEIGHT_BITS bits, and every
    estimate is at least 1/(2 * total + 2).

    Once one order is left (``lone_order``), the prediction is exactly its
    KT estimate: with A = w*n0, B = d and W = w, floor(2**PROB_BITS * A /
    (W * B)) = floor(2**PROB_BITS * n0/d), because the lone weight w >= 1
    cancels.  The weight itself no longer matters, which is why the coder
    may drop it and update only that order's counts.

    Each order keeps flat per-context lists of 2*count0 + 1 and
    2*total + 2, indexed by its last k bits, so the lists of all orders hold
    fewer than 2**(kmax + 2) entries; kmax is capped at MAX_KMAX to bound them.
    """

    def __init__(self, kmax: int):
        if not 0 <= kmax <= MAX_KMAX:
            raise ValueError(f"kmax must lie in [0, {MAX_KMAX}]")
        self.kmax = kmax
        scale = 1 << WEIGHT_BITS
        # per live order: [weight, k, context mask, 2*count0 + 1, 2*total + 2]
        self.orders = [
            [max(1, int(wt * scale)), k, (1 << k) - 1, [1] * (1 << k), [2] * (1 << k)]
            for k, wt in enumerate(mixture_weights(kmax))
        ]
        self.hist = 0  # the last kmax bits, newest lowest
        self.hist_mask = (1 << kmax) - 1
        self.shift = 0  # pending renormalisation of the stored weights
        self.t = 0
        self.c = 1 << (PROB_BITS - 1)  # every order predicts 1/2

    def prob0_scaled(self) -> int:
        """Quantized P(next=0) in [1, 2**PROB_BITS - 1]."""
        return self.c

    def update(self, bit: int) -> None:
        """Fold the coded bit into the weights and counts, and form the next
        prediction.  Order k's counts stay empty until k symbols are seen, so
        its first k predictions are 1/2.  The weights are stored before their
        renormalising shift, which the next update applies; the shift scales
        A and W alike and cancels in the prediction."""
        hist = self.hist
        nxt = ((hist << 1) | bit) & self.hist_mask
        shift = self.shift
        t = self.t
        a = 0
        b = 1
        wsum = 0
        top = 0
        retired = False
        for order in self.orders:
            w, k, mask, n0s, ds = order
            ctx = hist & mask
            n0 = n0s[ctx]
            d = ds[ctx]
            w = (w << shift) * (d - n0 if bit else n0) // d
            order[0] = w
            if not w:
                retired = True
                continue
            if t >= k:
                ds[ctx] = d + 2
                if not bit:
                    n0s[ctx] = n0 + 2
            ctx = nxt & mask
            n0 = n0s[ctx]
            d = ds[ctx]
            a = a * d + w * n0 * b
            b *= d
            wsum += w
            if w > top:
                top = w
        if retired:
            self.orders = [order for order in self.orders if order[0]]
        self.hist = nxt
        self.shift = WEIGHT_BITS - top.bit_length()
        self.t = t + 1
        # every estimate lies in [1/(2t + 2), 1 - 1/(2t + 2)], so c < 2**PROB_BITS,
        # and c >= 1 while 2t + 2 <= 2**PROB_BITS
        self.c = (a << PROB_BITS) // (wsum * b) or 1

    def lone_order(self):
        """(context mask, 2*count0 + 1 list, 2*total + 2 list, context of the
        next symbol) of the only live order once it has seen k symbols, else
        None.  From then on the prediction is that order's KT estimate alone,
        and every later symbol updates its counts (see the class docstring)."""
        if len(self.orders) != 1:
            return None
        _, k, mask, n0s, ds = self.orders[0]
        if self.t < k:
            return None
        return mask, n0s, ds, self.hist & mask


class MixtureCoder:
    """Coder built on the mixture predictor; self-delimiting codewords.

    Encoder and decoder are each one loop that keeps the arithmetic coder's
    state in locals.  While two or more orders are live, each symbol takes the
    predictor's general step.  Once ``lone_order`` reports a single order, the
    loop runs that order's counts itself: the prediction is then exactly
    floor(2**PROB_BITS * n0/d), or 1 should that floor to 0."""

    def __init__(self, kmax: int = DEFAULT_KMAX):
        self.kmax = kmax
        self.name = f"mixture{kmax}"

    def _code(self, x: str, positions=(), neg_log=None) -> tuple[str, list[int]]:
        """The one coding pass over x.  Returns the payload and, for each n in
        positions, the payload length had coding stopped at x[:n] (positions
        past the end count as len(x)).  Given a list neg_log, appends to it
        after each symbol the running sum of -log2 of the probabilities coded
        so far.  The pass runs from one sorted checkpoint to the next."""
        n = len(x)
        stops = sorted({p for p in positions if 0 <= p < n})
        stops.append(n)
        at: dict[int, int] = {}
        pred = QuantizedMixturePredictor(self.kmax)
        c = pred.c
        lone = None
        low, high, pending = 0, TOP - 1, 0
        shifts = 0  # renormalisations, each one payload bit emitted or pending
        out: list[str] = []
        total = 0.0
        start = 0
        for stop in stops:
            for ch in x[start:stop]:
                bit = 1 if ch == "1" else 0
                split = low + (((high - low + 1) * c) >> PROB_BITS) - 1
                if bit:
                    low = split + 1
                else:
                    high = split
                while True:
                    if high < HALF:
                        out.append("0" + "1" * pending)
                        pending = 0
                    elif low >= HALF:
                        out.append("1" + "0" * pending)
                        pending = 0
                        low -= HALF
                        high -= HALF
                    elif low >= QUARTER and high < THREEQ:
                        pending += 1
                        low -= QUARTER
                        high -= QUARTER
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
                    shifts += 1
                if neg_log is not None:
                    p0 = c / (1 << PROB_BITS)
                    total -= math.log2(1 - p0 if bit else p0)
                    neg_log.append(total)
                if lone:
                    ds[ctx] += 2
                    if not bit:
                        n0s[ctx] += 2
                    ctx = ((ctx << 1) | bit) & mask
                    c = (n0s[ctx] << PROB_BITS) // ds[ctx] or 1
                else:
                    pred.update(bit)
                    c = pred.c
                    if len(pred.orders) == 1:
                        lone = pred.lone_order()
                        if lone:
                            mask, n0s, ds, ctx = lone
            at[stop] = shifts + _dyadic_bits(low, high)[0]
            start = stop
        payload = "".join(out) + termination(low, high, pending)
        return payload, [at[p] if 0 <= p < n else at[n] for p in positions]

    def encode(self, x: str) -> str:
        return self_delimit(encode_int(len(x) + 1) + self._code(x)[0])

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        """Mirror of ``_code``.  A valid arithmetic code of R
        renormalisations is R + ell bits long, ell of them closing bits, and
        the decoder reads STATE_BITS + R bits: at most STATE_BITS implicit
        zeros past its end.  A code that needs more is malformed."""
        payload, used = read_self_delimited(bits, pos)
        n, u = decode_int(payload)
        src = payload + "0" * STATE_BITS
        end = len(src)
        value = int(src[u : u + STATE_BITS], 2)
        nxt = u + STATE_BITS
        pred = QuantizedMixturePredictor(self.kmax)
        c = pred.c
        lone = None
        low, high = 0, TOP - 1
        out: list[str] = []
        for _ in range(n - 1):
            split = low + (((high - low + 1) * c) >> PROB_BITS) - 1
            if value > split:
                bit = 1
                low = split + 1
                out.append("1")
            else:
                bit = 0
                high = split
                out.append("0")
            while True:
                if high < HALF:
                    pass
                elif low >= HALF:
                    low -= HALF
                    high -= HALF
                    value -= HALF
                elif low >= QUARTER and high < THREEQ:
                    low -= QUARTER
                    high -= QUARTER
                    value -= QUARTER
                else:
                    break
                if nxt == end:
                    raise MalformedInput("arithmetic payload read past its implicit zeros")
                low <<= 1
                high = (high << 1) | 1
                value = (value << 1) | (src[nxt] == "1")
                nxt += 1
            if lone:
                ds[ctx] += 2
                if not bit:
                    n0s[ctx] += 2
                ctx = ((ctx << 1) | bit) & mask
                c = (n0s[ctx] << PROB_BITS) // ds[ctx] or 1
            else:
                pred.update(bit)
                c = pred.c
                if len(pred.orders) == 1:
                    lone = pred.lone_order()
                    if lone:
                        mask, n0s, ds, ctx = lone
        return "".join(out), used

    def prefix_bits(self, x: str, positions: list[int], neg_log=None) -> list[int]:
        """Exact codeword length of every prefix in one coding pass; a list
        neg_log is filled as in ``_code``."""
        _, lens = self._code(x, positions, neg_log)
        return [
            self_delimited_len(encode_int_len(min(n, len(x)) + 1) + ln)
            for n, ln in zip(positions, lens)
        ]

    def payload_code_len(self, x: str) -> int:
        """Arithmetic-code bits alone, without the framing fields."""
        return len(self._code(x)[0])
