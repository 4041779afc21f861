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
from ._util import log2_fraction, neg_log2_ceil
from .bitio import decode_int, encode_int, encode_int_len, read_self_delimited, self_delimit, self_delimited_len

DEFAULT_KMAX = 8
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
    arith.PROB_BITS precision; every operation is integer, so encoder and
    decoder trajectories match bit for bit.
    """

    def __init__(self, kmax: int):
        self.kmax = kmax
        weights = mixture_weights(kmax)
        scale = 1 << WEIGHT_BITS
        self.w = [max(1, int(wt * scale)) for wt in weights]
        self.counts: list[dict[int, list[int]]] = [dict() for _ in range(kmax + 1)]
        self.ctx = [0] * (kmax + 1)
        self.t = 0
        # per-order (num0, den) of the next prediction; every context starts unseen
        self.terms = [(1, 2)] * (kmax + 1)

    def prob0_scaled(self) -> int:
        """Quantized P(next=0) in [1, 2**PROB_BITS - 1]."""
        terms = self.terms
        dens = 1
        for _, d in terms:
            dens *= d
        num = 0
        den = 0
        for w, (n0, d) in zip(self.w, terms):
            if not w:
                continue
            share = dens // d
            num += w * n0 * share
            den += w * dens
        c = (num << arith.PROB_BITS) // den
        return min(max(c, 1), (1 << arith.PROB_BITS) - 1)

    def update(self, bit: int) -> None:
        """Fold the coded bit into the weights and counts, and form the terms
        of the next prediction: (count0 + 1/2) / (total + 1) per order, in
        halves.  Order k's counts stay empty until k symbols are seen, so its
        first k predictions are 1/2."""
        terms = []
        top = 0
        for k, (n0, d) in enumerate(self.terms):
            w = self.w[k] * (n0 if bit == 0 else d - n0) // d
            self.w[k] = w
            if w > top:
                top = w
            counts = self.counts[k]
            if self.t >= k:
                counts.setdefault(self.ctx[k], [0, 0])[bit] += 1
            ctx = ((self.ctx[k] << 1) | bit) & ((1 << k) - 1)
            self.ctx[k] = ctx
            c = counts.get(ctx)
            terms.append((1, 2) if c is None else (2 * c[0] + 1, 2 * (c[0] + c[1]) + 2))
        self.terms = terms
        shift = WEIGHT_BITS - top.bit_length()
        if shift > 0:
            self.w = [w << shift for w in self.w]
        self.t += 1


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
