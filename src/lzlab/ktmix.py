"""Krichevsky-Trofimov estimators, the mixture forecasting measure, and the
code built on it.

Exact rational evaluation (``kt_prob``, ``MixtureMeasure``) is used wherever
measure identities must hold exactly; the coder itself runs a deterministic
integer-quantized version of the same predictor so megabit inputs are
feasible.  The quantized code stays within the 2-bit contract of the ideal
length on test scales (quantization adds less than n * 2**-24 bits).
"""

from __future__ import annotations

from fractions import Fraction

from . import arith
from .arith import PROB_BITS
from ._util import log2_fraction, neg_log2_ceil
from .bitio import decode_int, encode_int, encode_int_len, read_self_delimited, self_delimit, self_delimited_len

DEFAULT_KMAX = 8
MAX_KMAX = 20
WEIGHT_BITS = 96


def mixture_weights(kmax: int) -> list[Fraction]:
    """Normalized weights ~ 1/((k+2) * log2(k+2)^2), with the logarithm
    realized as bit_length so the weights stay rational."""
    raw = [Fraction(1, (k + 2) * (k + 2).bit_length() ** 2) for k in range(kmax + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def kt_prob(x: str, k: int) -> Fraction:
    """Exact KT probability of x under the order-k sequential estimator.

    The first k symbols are predicted with probability 1/2 each; afterwards
    the add-half rule (count + 1/2)/(total + 1) applies per context.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    num = 1
    den = 1
    counts: dict[int, list[int]] = {}
    ctx = 0
    mask = (1 << k) - 1
    for t, ch in enumerate(x):
        b = 1 if ch == "1" else 0
        if t < k:
            den <<= 1
        else:
            c = counts.get(ctx)
            if c is None:
                c = [0, 0]
                counts[ctx] = c
            num *= 2 * c[b] + 1
            den *= 2 * (c[0] + c[1]) + 2
            c[b] += 1
        ctx = ((ctx << 1) | b) & mask
    return Fraction(num, den)


class MixtureMeasure:
    """Weighted mixture of KT estimators over orders 0..kmax (exact)."""

    def __init__(self, kmax: int = DEFAULT_KMAX):
        if kmax < 0:
            raise ValueError("kmax must be >= 0")
        self.kmax = kmax
        self.weights = mixture_weights(kmax)
        self.name = f"mixture(kmax={kmax})"

    def prob(self, x: str) -> Fraction:
        return sum((w * kt_prob(x, k) for k, w in enumerate(self.weights)), Fraction(0))

    def pred(self, x: str, sym: str) -> Fraction:
        """Conditional probability of the next symbol."""
        if sym not in ("0", "1"):
            raise ValueError("symbol must be '0' or '1'")
        return self.prob(x + sym) / self.prob(x)

    def query(self, x: str, eps: Fraction = Fraction(0)) -> Fraction:
        """MeasureOracle interface; the value is exact, eps is ignored."""
        return self.prob(x)

    def ideal_code_len(self, x: str) -> int:
        """ceil(-log2 rho(x)) + 1."""
        return neg_log2_ceil(self.prob(x)) + 1


class QuantizedMixturePredictor:
    """Integer twin of MixtureMeasure used by the coder.

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


class MixtureCoder:
    """Coder built on the mixture predictor; self-delimiting codewords."""

    def __init__(self, kmax: int = DEFAULT_KMAX):
        self.kmax = kmax
        self.name = f"mixture{kmax}"

    def _code(self, x: str, positions=()) -> tuple[arith.ArithmeticEncoder, list[int]]:
        """The one coding pass over x.  Returns the encoder after all of x and,
        for each n in positions, the payload length had coding stopped at
        x[:n] (positions past the end count as len(x))."""
        want = set(positions)
        at: dict[int, int] = {}
        pred = QuantizedMixturePredictor(self.kmax)
        enc = arith.ArithmeticEncoder()
        for t, ch in enumerate(x):
            if t in want:
                at[t] = enc.finish_length()
            bit = 1 if ch == "1" else 0
            enc.encode_bit(pred.prob0_scaled(), bit)
            pred.update(bit)
        return enc, [at[n] if n in at else enc.finish_length() for n in positions]

    def encode(self, x: str) -> str:
        enc, _ = self._code(x)
        return self_delimit(encode_int(len(x) + 1) + enc.finish())

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        payload, used = read_self_delimited(bits, pos)
        n, u = decode_int(payload)
        n -= 1
        pred = QuantizedMixturePredictor(self.kmax)
        dec = arith.ArithmeticDecoder(payload, u)
        out = []
        for _ in range(n):
            bit = dec.decode_bit(pred.prob0_scaled())
            pred.update(bit)
            out.append("1" if bit else "0")
        return "".join(out), used

    def prefix_bits(self, x: str, positions: list[int]) -> list[int]:
        """Exact codeword length of every prefix in one coding pass."""
        _, lens = self._code(x, positions)
        return [
            self_delimited_len(encode_int_len(min(n, len(x)) + 1) + ln)
            for n, ln in zip(positions, lens)
        ]

    def payload_code_len(self, x: str) -> int:
        """Arithmetic-code bits alone, without the framing fields."""
        return self._code(x)[0].finish_length()


def forecast_error(x: str, mu, rho: MixtureMeasure | None = None) -> float:
    """Per-symbol average log-ratio (1/t) log2(mu(x)/rho(x)).

    ``mu`` is any MeasureOracle with exact .query; zero-probability prefixes
    under mu are rejected.
    """
    if not x:
        return 0.0
    rho = rho if rho is not None else MixtureMeasure()
    t = len(x)
    mu_x = mu.query(x, Fraction(0))
    if mu_x <= 0:
        raise ValueError("mu assigns zero probability to the word")
    rho_x = rho.prob(x)
    return (log2_fraction(mu_x) - log2_fraction(rho_x)) / t
