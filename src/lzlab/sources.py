"""Baseline computable sources: Bernoulli and fixed-order Markov chains.

Word probabilities, stationary vectors, and entropy rates are exact
rationals (the stationary distribution is solved by Gaussian elimination
over Fractions), so additivity and stationarity identities hold exactly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

from ._util import binary_entropy, cut_points, log2_fraction
from .lz import BlockCoder, checkpoints, ratio_points

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

    def _transitions(self, x: str) -> list[tuple[Fraction, int]]:
        """(step probability, count) of every transition x makes after its
        first k symbols, counted in one walk."""
        k = self.order
        counts = [0] * (2 << k)
        mask = (1 << k) - 1
        state = int(x[:k], 2) if k else 0
        for sym in x[k:]:
            state = (state << 1) | (sym == "1")  # context and symbol
            counts[state] += 1
            state &= mask
        p_one = [self.p_one[ctx] for ctx in self.contexts]
        return [(p_one[i >> 1] if i & 1 else 1 - p_one[i >> 1], n) for i, n in enumerate(counts) if n]

    def prob(self, x: str) -> Fraction:
        """Exact stationary probability of the word x."""
        k = self.order
        if len(x) < k:
            return sum(
                (p for ctx, p in self.stationary.items() if ctx.startswith(x)),
                F(0),
            )
        total = self.stationary[x[:k]]
        for p, n in self._transitions(x):
            total *= p**n
        return total

    def query(self, x: str, eps: Fraction = F(0)) -> Fraction:
        return self.prob(x)

    def log2_prob(self, x: str) -> float:
        """log2 P(x); -inf when P(x) = 0."""
        p = self.prob(x)
        return log2_fraction(p) if p else -math.inf

    def entropy_rate(self) -> float:
        """Sum over contexts of pi(ctx) h(row)."""
        total = 0.0
        for ctx, pi in self.stationary.items():
            total += float(pi) * binary_entropy(self.p_one[ctx])
        return total

    def sample(self, seed: int, n: int) -> str:
        """Seeded stationary sample of length n (includes the initial block)."""
        rng = random.Random(seed)
        out = []
        if self.order:
            cuts = cut_points([self.stationary[c] for c in self.contexts], F(1))
            ctx = self.contexts[bisect_right(cuts, rng.getrandbits(64))]
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


def flip_chain(p: Fraction) -> MarkovSource:
    """Symmetric order-1 chain that flips the previous symbol with prob p."""
    p = F(p)
    return MarkovSource(1, {"0": p, "1": 1 - p}, name=f"flip({p})")


def robustness_experiment(source: MarkovSource, coder, n: int, block_lengths,
                          seed: int = 0, stride: int | None = None) -> tuple[list, dict[int, list]]:
    """(full curve, {N: block curve}): the ratio points of the coder and of
    its block realization for each block length N on one n-symbol sample,
    at checkpoints(n, stride) (default stride n // 32) and at n."""
    ns = sorted({*checkpoints(n, max(1, n // 32) if stride is None else stride), n})
    x = source.sample(seed, n)
    curve = lambda c: ratio_points(ns, c.prefix_bits(x, ns))
    return curve(coder), {N: curve(BlockCoder(N, coder)) for N in block_lengths}
