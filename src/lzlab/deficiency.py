"""Computable randomness-deficiency surrogate and the bounded-increase
selection procedure.

The surrogate is d(x) = -log2 P_hat(x) - L(x) for a code-length functional
L; it is one-sided (at most the true deficiency plus a code constant) since
any monotone-decodable code length upper-bounds monotone complexity.  L
defaults to the LZ78 payload length; the mixture-code length is selectable
and is much tighter on the staged construction's measure class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._util import log2_fraction
from .bitio import decode_int
from .lz import LZ78Coder

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
    directly; exact oracles are queried once; otherwise the query tolerance
    is tightened until eps <= P_hat/4.
    """
    if hasattr(measure, "prob_estimate"):
        return measure.prob_estimate(x)
    eps = F(1, 64)
    value = measure.query(x, eps)
    while value > 0 and eps > value / 4:
        eps = value / 8
        value = measure.query(x, eps)
    return value


def surrogate_deficiency(x: str, measure, code=None) -> float:
    """-log2 P_hat(x) - L(x); raises on a zero probability estimate."""
    coder = code if code is not None else LZ78Coder()
    p_hat = probability_estimate(measure, x)
    if p_hat <= 0:
        raise ValueError("measure estimate is zero; deficiency undefined")
    return -log2_fraction(p_hat) - monotone_length(coder, x)


@dataclass
class DeficiencyCurve:
    points: list[tuple[int, float]] = field(default_factory=list)

    def values(self):
        return [d for _, d in self.points]


def deficiency_curve(omega: str, measure, code=None, stride: int = 1024) -> DeficiencyCurve:
    """Surrogate deficiency of the prefixes at multiples of stride."""
    curve = DeficiencyCurve()
    for n in range(stride, len(omega) + 1, stride):
        curve.points.append((n, surrogate_deficiency(omega[:n], measure, code=code)))
    return curve


class Supermartingale:
    """Nonnegative function with M(x) >= M(x0) P(0|x) + M(x1) P(1|x)."""

    def __init__(self, evaluator, measure):
        self.evaluator = evaluator
        self.measure = measure

    def value(self, x: str) -> Fraction:
        return self.evaluator(x)

    def check_inequality(self, x: str) -> bool:
        p_x = self.measure.query(x, F(0))
        if p_x == 0:
            return True
        m = self.value(x)
        total = F(0)
        for b in "01":
            p_b = self.measure.query(x + b, F(0))
            if p_b:
                total += self.value(x + b) * p_b
        return m * p_x >= total


class CodeMartingale(Supermartingale):
    """M(x) = Q(x)/P(x) with Q the code's weight mass over a finite horizon.

    Q(x) sums 2^-l(code(y)) over coded words y comparable beyond x (x <= y)
    up to the horizon depth; the code must be prefix-free, which is checked
    on the enumerated codebook.
    """

    def __init__(self, coder, measure, horizon: int):
        self.coder = coder
        self.horizon = horizon
        self.q: dict[str, Fraction] = {}
        words_by_depth = [[""]]
        for _ in range(horizon):
            words_by_depth.append([w + b for w in words_by_depth[-1] for b in "01"])
        codes = []
        weights: dict[str, Fraction] = {}
        for layer in words_by_depth:
            for w in layer:
                cw = coder.encode(w)
                codes.append(cw)
                weights[w] = F(1, 2 ** len(cw))
        codes.sort()
        for a, b in zip(codes, codes[1:]):
            if b.startswith(a):
                raise ValueError("code is not prefix-free on the horizon")
        for layer in reversed(words_by_depth):
            for w in layer:
                q = weights[w]
                if len(w) < horizon:
                    q = q + self.q[w + "0"] + self.q[w + "1"]
                self.q[w] = q

        def evaluator(x: str) -> Fraction:
            if len(x) > horizon:
                raise ValueError("beyond the martingale horizon")
            p = measure.query(x, F(0))
            if p == 0:
                return F(0)
            return self.q[x] / p

        super().__init__(evaluator, measure)


def cylinder_mass(measure, words) -> Fraction:
    """P of the union of cylinders: sum over prefix-minimal elements."""
    minimal: list[str] = []
    for w in sorted(set(words), key=len):
        if not any(w.startswith(z) for z in minimal):
            minimal.append(w)
    return sum((measure.query(w, F(0)) for w in minimal), F(0))


def select_subset(A, x: str, measure, martingale: Supermartingale, mu: Fraction):
    """Bounded-increase selection.

    Removes every extension with an intermediate martingale value above
    M(x) / ((1-mu) P(A~|x)); the surviving set keeps mass > mu P(A~) and all
    its prefixes obey the log-threshold.
    """
    mu = F(mu)
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    A = list(A)
    if any(not y.startswith(x) for y in A):
        raise ValueError("every candidate must extend x")
    p_x = measure.query(x, F(0))
    if p_x == 0:
        raise ValueError("P(x) must be positive")
    mass_a = cylinder_mass(measure, A)
    if mass_a == 0:
        raise ValueError("P(A~) must be positive")
    threshold = martingale.value(x) * p_x / ((1 - mu) * mass_a)
    removed_roots = []
    for y in A:
        for j in range(len(x), len(y) + 1):
            if martingale.value(y[:j]) > threshold:
                removed_roots.append(y)
                break
    survivors = [
        y for y in A if not any(y.startswith(z) for z in removed_roots)
    ]
    return survivors


def selection_threshold(x: str, measure, martingale, A, mu: Fraction) -> Fraction:
    p_x = measure.query(x, F(0))
    return martingale.value(x) * p_x / ((1 - F(mu)) * cylinder_mass(measure, A))
