"""Baseline computable sources: Bernoulli and fixed-order Markov chains.

Word probabilities, stationary vectors, and entropy rates are exact
rationals (the stationary distribution is solved by Gaussian elimination
over Fractions), so additivity and stationarity identities hold exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ._util import log2_fraction

F = Fraction


class MarkovSource:
    """Stationary ergodic binary Markov chain of fixed order.

    ``rows`` maps each length-k context string to the probability of
    emitting '1'; the stationary context distribution is solved exactly.
    """

    def __init__(self, order: int, rows: dict[str, Fraction], name: str | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        contexts = [format(v, f"0{order}b") if order else "" for v in range(2**order)]
        self.contexts = contexts
        self.p_one = {}
        for ctx in contexts:
            if ctx not in rows:
                raise ValueError(f"missing transition row for context {ctx!r}")
            p = F(rows[ctx])
            if not 0 <= p <= 1:
                raise ValueError("transition probabilities must lie in [0, 1]")
            self.p_one[ctx] = p
        self.stationary = self._solve_stationary()
        self.name = name or f"markov{order}"

    def _solve_stationary(self) -> dict[str, Fraction]:
        ctxs = self.contexts
        n = len(ctxs)
        if n == 1:
            return {ctxs[0]: F(1)}
        index = {c: i for i, c in enumerate(ctxs)}
        # balance equations pi = pi P, one replaced by normalization
        mat = [[F(0)] * (n + 1) for _ in range(n)]
        for j, ctx_j in enumerate(ctxs):
            if j == 0:
                for i in range(n):
                    mat[0][i] = F(1)
                mat[0][n] = F(1)
                continue
            for i, ctx_i in enumerate(ctxs):
                for sym, prob in (("0", 1 - self.p_one[ctx_i]), ("1", self.p_one[ctx_i])):
                    nxt = (ctx_i + sym)[1:] if self.order else ""
                    if nxt == ctx_j and prob:
                        mat[j][i] += prob
            mat[j][j] -= 1
        # Gaussian elimination
        for col in range(n):
            pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if pivot is None:
                raise ValueError("chain is not irreducible; stationary vector not unique")
            mat[col], mat[pivot] = mat[pivot], mat[col]
            inv = 1 / mat[col][col]
            mat[col] = [v * inv for v in mat[col]]
            for r in range(n):
                if r != col and mat[r][col]:
                    factor = mat[r][col]
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
        pi = {ctx: mat[i][n] for i, ctx in enumerate(ctxs)}
        if any(v < 0 for v in pi.values()) or sum(pi.values()) != 1:
            raise ValueError("stationary solve failed")
        return pi

    def _step(self, ctx: str, sym: str) -> Fraction:
        p1 = self.p_one[ctx]
        return p1 if sym == "1" else 1 - p1

    def prob(self, x: str) -> Fraction:
        """Exact stationary probability of the word x."""
        k = self.order
        if len(x) < k:
            return sum(
                (p for ctx, p in self.stationary.items() if ctx.startswith(x)),
                F(0),
            )
        total = self.stationary[x[:k]]
        ctx = x[:k]
        for sym in x[k:]:
            total *= self._step(ctx, sym)
            ctx = (ctx + sym)[1:] if k else ""
        return total

    def query(self, x: str, eps: Fraction = F(0)) -> Fraction:
        return self.prob(x)

    def log2_prob(self, x: str) -> float:
        """log2 P(x) via incremental integer numerator/denominator."""
        k = self.order
        if len(x) < k:
            return log2_fraction(self.prob(x))
        head = self.stationary[x[:k]]
        num, den = head.numerator, head.denominator
        ctx = x[:k]
        for sym in x[k:]:
            p = self._step(ctx, sym)
            num *= p.numerator
            den *= p.denominator
            ctx = (ctx + sym)[1:] if k else ""
            if num == 0:
                return -math.inf
        return log2_fraction(F(num, den))

    def entropy_rate(self) -> float:
        """Sum over contexts of pi(ctx) h(row)."""
        total = 0.0
        for ctx, pi in self.stationary.items():
            p = float(self.p_one[ctx])
            if 0 < p < 1:
                h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            else:
                h = 0.0
            total += float(pi) * h
        return total

    def sample(self, seed: int, n: int) -> str:
        """Seeded stationary sample of length n (includes the initial block)."""
        rng = random.Random(seed)
        out = []
        if self.order:
            u = F(rng.getrandbits(64), 1 << 64)
            acc = F(0)
            ctx = self.contexts[-1]
            for c in self.contexts:
                acc += self.stationary[c]
                if u < acc:
                    ctx = c
                    break
            out.extend(ctx)
        state = int(ctx, 2) if self.order else 0
        mask = (1 << self.order) - 1
        # a 64-bit draw r emits '1' iff r / 2**64 < p, that is iff r < ceil(p * 2**64)
        cut = [math.ceil(self.p_one[c] * (1 << 64)) for c in self.contexts]
        getrandbits = rng.getrandbits
        for _ in range(n - len(out)):
            bit = getrandbits(64) < cut[state]
            out.append("1" if bit else "0")
            state = ((state << 1) | bit) & mask
        return "".join(out[:n])


def bernoulli(p: Fraction) -> MarkovSource:
    p = F(p)
    return MarkovSource(0, {"": p}, name=f"bernoulli({p})")


def bernoulli_prob(x: str, p: Fraction) -> Fraction:
    p = F(p)
    ones = x.count("1")
    return p**ones * (1 - p) ** (len(x) - ones)


def flip_chain(p: Fraction) -> MarkovSource:
    """Symmetric order-1 chain that flips the previous symbol with prob p."""
    p = F(p)
    return MarkovSource(1, {"0": p, "1": 1 - p}, name=f"flip({p})")


@dataclass
class RobustnessReport:
    source: str
    coder: str
    n: int
    entropy: float
    final_ratio: Fraction
    block_final: dict[int, Fraction]
    curves: dict


def robustness_experiment(source: MarkovSource, coder, n: int, block_lengths,
                          seed: int = 0, stride: int | None = None) -> RobustnessReport:
    """Ratio curves of the coder and its block realizations on one sample."""
    from .lz import BlockCoder, ratio_curve

    x = source.sample(seed, n)
    stride = stride or max(1, n // 32)
    full_curve = ratio_curve(coder, x, stride)
    block_final = {}
    curves = {"full": full_curve}
    for N in block_lengths:
        bc = BlockCoder(N, coder)
        curve = ratio_curve(bc, x, stride)
        curves[f"block{N}"] = curve
        block_final[N] = curve.points[-1][2]
    return RobustnessReport(
        source=source.name,
        coder=getattr(coder, "name", "coder"),
        n=n,
        entropy=source.entropy_rate(),
        final_ratio=full_curve.points[-1][2],
        block_final=block_final,
        curves=curves,
    )
