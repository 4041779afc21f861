"""Staged cutting-and-stacking construction of a low-entropy ergodic measure,
its computable oracle, and the oscillating-sequence builder.

Stage 0 names the marked interval [1/2, 1/2+r) "1" and the rest of [0, 1)
"0"; each later stage halves the current auxiliary gadget, folds one half
into the main gadget, and applies R_s-fold independent cutting and stacking
to both.  The main-gadget mass is exactly 1 - 2^(1-s) r at every stage and
the auxiliary tower keeps uniformly distributed names, which is what the
sequence builder relies on.

Two modes:

* faithful -- heights follow the growth-function schedule and every stage
  takes the smallest fold count up to WD_MCAP that certifies
  well-distributedness < 1/s exactly; this is only feasible for the first
  stage or two and exists for the exact-identity tests.
* empirical -- fold counts come from an explicit per-stage schedule and
  heights are desk-scale; nothing is certified while building, and
  ``Construction.wd`` computes a stage's well-distributedness on request.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .intervals import Column, Gadget, Interval
from .lz import LZ78Coder, compression_ratio
from .symbolic import (
    CutNode,
    BaseNode,
    InfeasibleExact,
    MFoldNode,
    SymbolicGadget,
    UnionNode,
    base_node,
    cut_symbolic,
    find_rs,
    mfold,
    name_measure,
    union,
    well_distributedness_mfold,
)

F = Fraction

# exact well-distributedness rationals blow up with depth; Construction.wd
# skips empirical stages past this one
WD_STAGE_CAP = 6
# stages 0..STAGE_CAP-1 can be built; faithful mode tries fold counts up to
# WD_MCAP, and heights_schedule heights up to HEIGHT_CAP
STAGE_CAP = 24
WD_MCAP = 512
HEIGHT_CAP = 10_000_000
ESTIMATE_HEIGHT_FACTOR = 8  # see Construction.prob_estimate


class StageFailure(RuntimeError):
    pass


class SigmaExhausted(StageFailure):
    """The tabulated growth function ran out before the schedule finished."""


def entropy_upper_bound(r: Fraction) -> float:
    """-3 r log2 r, the entropy cap enforced by the sparse partition."""
    r = F(r)
    if not 0 < r < F(1, 4):
        raise ValueError("r must lie in (0, 1/4)")
    return -3 * float(r) * math.log2(float(r))


def _gap_satisfied(diff: int, i: int, r: Fraction) -> bool:
    """diff > -log2(r) + i + 13, decided exactly for rational r."""
    e = diff - i - 13
    if e <= 0:
        return False
    # diff - i - 13 > -log2 r  <=>  r * 2^e > 1
    return r * (1 << e) > 1


def heights_schedule(sigma, r: Fraction, count: int) -> list[int]:
    """Greedy minimal strictly increasing heights [h_-2, h_-1, h_0, ...].

    Constraint i (one per new entry, i = 0, 1, ...) requires
    sigma(h_{i-1}) - sigma(h_{i-2}) > -log2(r) + i + 13.  ``sigma`` may be a
    callable or a table (list) of integer values; a too-short table raises
    SigmaExhausted.
    """
    if isinstance(sigma, (list, tuple)):
        table = sigma

        def sig(n: int) -> int:
            if n >= len(table):
                raise SigmaExhausted(f"sigma table has no entry for n={n}")
            return table[n]

    else:
        sig = sigma
    heights = [1]
    for i in range(count):
        prev = heights[-1]
        prev_sig = sig(prev)
        h = prev + 1
        while True:
            if h > HEIGHT_CAP:
                raise SigmaExhausted("height cap reached before satisfying the gap")
            v = sig(h)
            if v < prev_sig:
                raise StageFailure("sigma must be nondecreasing")
            if _gap_satisfied(v - prev_sig, i, r):
                break
            h += 1
        heights.append(h)
    return heights


@dataclass
class ConstructionParams:
    r: Fraction = F(1, 256)
    epsilon: Fraction = F(1, 10)
    h0: int = 256
    mode: str = "empirical"
    fold_schedule: tuple[int, ...] = (4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 2, 2)
    sigma: object = None

    def __post_init__(self):
        self.r = F(self.r)
        self.epsilon = F(self.epsilon)
        if not 0 < self.r < F(1, 4):
            raise ValueError("r must lie in (0, 1/4)")
        if not 0 < self.epsilon < F(1, 4):
            raise ValueError("epsilon must lie in (0, 1/4)")
        if entropy_upper_bound(self.r) > float(self.epsilon):
            raise ValueError("entropy bound -3 r log2 r exceeds epsilon")
        if self.h0 < 1:
            raise ValueError("h0 must be >= 1")
        if self.mode not in ("empirical", "faithful"):
            raise ValueError("mode must be 'empirical' or 'faithful'")


@dataclass
class Stage:
    s: int
    pi: SymbolicGadget
    delta: SymbolicGadget
    fold_base: SymbolicGadget | None
    delta_second: SymbolicGadget | None
    r_used: int | None
    phi: SymbolicGadget
    diagnostics: dict = field(default_factory=dict)


class Construction:
    """Lazy stage builder plus the measure oracle and samplers."""

    def __init__(self, params: ConstructionParams):
        self.params = params
        self.stages: list[Stage] = [self._stage_zero()]

    # -- construction ------------------------------------------------------

    def _stage_zero(self) -> Stage:
        r, h0 = self.params.r, self.params.h0
        half = F(1, 2)
        delta_base = Gadget(
            [
                Column((Interval(half - r, half),), "0"),
                Column((Interval(half, half + r),), "1"),
            ]
        )
        delta0 = mfold(base_node(delta_base), h0)
        # both intervals miss the marked set [1/2, 1/2+r), so every level is named "0"
        pi0 = base_node(Gadget(
            Column(tuple(iv.split([F(1, 2 * h0)] * (2 * h0))), "0" * (2 * h0))
            for iv in (Interval(F(0), half - r), Interval(half + r, F(1)))
        ))
        assert delta0.support == 2 * r
        assert pi0.support == 1 - 2 * r
        return Stage(0, pi0, delta0, None, None, None, union(pi0, delta0))

    def stage(self, s: int) -> Stage:
        if not 0 <= s < STAGE_CAP:
            raise StageFailure(f"stage {s} is outside 0..{STAGE_CAP - 1}")
        while len(self.stages) <= s:
            self.stages.append(self._build_stage(len(self.stages)))
        return self.stages[s]

    def wd(self, s: int) -> tuple[Fraction | None, str]:
        """Stage s's well-distributedness and its method: "none" at stage 0,
        "skipped" past WD_STAGE_CAP (empirical), else "exact" or "infeasible"."""
        st = self.stage(s)
        if s == 0:
            return None, "none"
        if self.params.mode == "empirical" and s > WD_STAGE_CAP:
            return None, "skipped"
        try:
            return well_distributedness_mfold(st.fold_base, st.r_used), "exact"
        except InfeasibleExact:
            return None, "infeasible"

    def _fold_count(self, s: int, fold_base: SymbolicGadget, delta_prime: SymbolicGadget) -> int:
        params = self.params
        if params.mode == "empirical":
            sched = params.fold_schedule
            if s - 1 >= len(sched):
                raise StageFailure(f"fold schedule has no entry for stage {s}")
            return sched[s - 1]
        # faithful: smallest fold count reaching the scheduled height and
        # certifying well-distributedness < 1/s
        if params.sigma is None:
            raise StageFailure("faithful mode needs a growth function")
        sched = heights_schedule(params.sigma, params.r, s + 2)
        h_s = sched[s + 2]
        m_min = max(
            1,
            -(-2 * h_s // fold_base.min_height),
            -(-2 * h_s // delta_prime.min_height),
        )
        res = find_rs(fold_base, F(1, s), WD_MCAP, m_min=m_min)
        if not res.found:
            # the best value is a rational far past the int-to-str digit limit
            best = "none tried"
            if res.best_value is not None:
                best = f"best {float(res.best_value):.6f} at {res.best_m}"
            raise StageFailure(
                f"stage {s}: no fold count in {m_min}..{WD_MCAP} certifies "
                f"well-distributedness < 1/{s} ({best})"
            )
        return res.m

    def _build_stage(self, s: int) -> Stage:
        prev = self.stages[s - 1]
        delta_prime, delta_second = cut_symbolic(prev.delta, (F(1, 2), F(1, 2)))
        fold_base = union(prev.pi, delta_second)
        m = self._fold_count(s, fold_base, delta_prime)
        pi_s = mfold(fold_base, m)
        delta_s = mfold(delta_prime, m)
        expected_delta = F(2, 2**s) * self.params.r
        assert delta_s.support == expected_delta
        assert pi_s.support == 1 - expected_delta
        gamma = delta_second.support / prev.pi.support
        denom_printed = 1 - F(4, 2**s)
        diagnostics = {
            "gamma": gamma,
            "gamma_alt_denominator": (expected_delta / denom_printed) if denom_printed > 0 else None,
            "routing_fraction": gamma / (1 + gamma),
            "delta_mass": delta_s.support,
            "pi_mass": pi_s.support,
            "fold_count": m,
        }
        return Stage(s, pi_s, delta_s, fold_base, delta_second, m, union(pi_s, delta_s), diagnostics)

    # -- measure oracle ----------------------------------------------------

    def _first_stage(self, ok) -> Stage:
        """The first stage whose gadget phi satisfies ok(phi)."""
        for s in itertools.count():
            st = self.stage(s)
            if ok(st.phi):
                return st

    def query(self, x: str, eps: Fraction) -> Fraction:
        """MeasureOracle interface: rational approximation of P(x) within eps.

        This is the paper's computable-measure interface: P(x) to within any
        requested eps, the measure that randomness deficiency is defined
        against.  ``prob_estimate`` is only a relative-precision shortcut.

        Runs to the first stage whose gadget covers enough mass and is tall
        enough, then counts starts at least len(x) below the top; the error
        is at most the top-band mass len(x) * gadget width <= eps/2.
        """
        eps = F(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if x == "":
            return F(1)
        m = len(x)
        st = self._first_stage(
            lambda phi: phi.support >= 1 - eps / 2 and phi.min_height > m + 1 and m * phi.width <= eps / 2
        )
        return name_measure(st.phi, x, restricted=True)

    def prob_estimate(self, x: str) -> Fraction:
        """Relative-precision estimate: first stage whose minimum height is
        ESTIMATE_HEIGHT_FACTOR * len(x), so the unresolved top band is a
        small fraction of all starts."""
        if x == "":
            return F(1)
        m = len(x)
        st = self._first_stage(lambda phi: phi.min_height >= ESTIMATE_HEIGHT_FACTOR * m)
        return name_measure(st.phi, x, restricted=True)

    # -- sampling ----------------------------------------------------------

    def sample_sequence(self, seed: int, n: int) -> str:
        """Name of length n read from a uniform start in the support of the
        first stage taller than n.

        Starts whose remaining trajectory is shorter than n are rejected and
        redrawn (seeded), matching the restricted-measure view.
        """
        st = self._first_stage(lambda phi: phi.min_height > n)
        rng = random.Random(seed)
        maxh = st.phi.max_height
        while True:
            name = st.phi.sample_column(rng)
            h = len(name)
            if rng.getrandbits(48) * maxh >= h << 48:
                continue
            level = rng.randrange(1, h + 1)
            if h - level + 1 < n:
                continue
            return name[level - 1 : level - 1 + n]


def sample_sparse_column(node: SymbolicGadget) -> str:
    """The all-main-branch column name (no uniform-tower content)."""
    if isinstance(node, CutNode):
        return sample_sparse_column(node.child)
    if isinstance(node, MFoldNode):
        return sample_sparse_column(node.child) * node.m
    if isinstance(node, UnionNode):
        # the stages build every union with the main gadget first
        return sample_sparse_column(node.children[0])
    if isinstance(node, BaseNode):
        best = min(node.gadget.columns, key=lambda c: c.name.count("1"))
        return best.name
    raise ValueError(f"cannot walk node kind {node.kind}")


# -- the oscillating sequence ------------------------------------------------


@dataclass
class Fragment:
    index: int
    kind: str  # "sparse" | "incompressible"
    stage: int
    start: int
    end: int
    segment: tuple[int, int] | None = None
    parts: int = 0
    ones_frequency: float | None = None


@dataclass
class AlphaTrace:
    bits: str
    fragments: list[Fragment]
    heights: dict

    def to_json(self) -> dict:
        return {
            "length": len(self.bits),
            "fragments": [
                # "deficiency" is always None; the pinned runner digests cover the key
                {**asdict(f), "segment": list(f.segment) if f.segment else None, "deficiency": None}
                for f in self.fragments
            ],
            "heights": self.heights,
        }


@dataclass
class FragmentSpec:
    kind: str  # "sparse" | "incompressible"
    stage: int
    parts: int = 1  # sparse: number of parts to emit at that stage


# draws of a sparse extension, or of an incompressible block, per step
FREQ_RETRIES = 16
# an incompressible block must reach this LZ78 compression ratio
INCOMPRESSIBILITY_THRESHOLD = F(9, 10)


class AlphaBuilder:
    """Emits the alternating sparse / incompressible trace.

    The trace is a genuine trajectory-name prefix: parts are whole column
    names of the stage fold bases, nested counters keep the emission aligned
    with the product structure, and uniform-tower blocks are placed only at
    part boundaries of their stage.
    """

    def __init__(self, construction: Construction, seed: int = 0):
        self.c = construction
        self.rng = random.Random(seed)
        self.bits: list[str] = []
        self.length = 0
        self.counters: dict[int, int] = {}
        self.fragments: list[Fragment] = []

    # counter machinery: counters[t] = parts of the stage-t fold base emitted
    # toward the current stage-t column
    def _bump(self, t: int) -> None:
        while True:
            self.counters[t] = self.counters.get(t, 0) + 1
            if self.counters[t] < self.c.stage(t).r_used:
                return
            self.counters[t] = 0
            t += 1

    def _emit(self, name: str) -> None:
        self.bits.append(name)
        self.length += len(name)

    def _fill_to_boundary(self, target_stage: int) -> None:
        """Emit sparse filler parts until all counters below target are 0."""
        for t in range(1, target_stage):
            pending = self.counters.get(t, 0)
            if pending == 0:
                continue
            need = self.c.stage(t).r_used - pending
            base = self.c.stage(t).fold_base
            for _ in range(need):
                self._emit(sample_sparse_column(base))
                self._bump(t)

    def _sample_extension(self, stage: int, parts: int) -> list[str]:
        base = self.c.stage(stage).fold_base
        max_ones = 2 * self.c.params.r
        for _ in range(FREQ_RETRIES):
            names = [base.sample_column(self.rng) for _ in range(parts)]
            total = sum(len(n) for n in names)
            ones = sum(n.count("1") for n in names)
            if F(ones, total) <= max_ones:
                return names
        return [sample_sparse_column(base) for _ in range(parts)]

    def initial_fragment(self, length: int) -> None:
        """Alpha(0): a main-gadget trajectory name (all zeros at stage 0)."""
        assert not self.fragments
        h = 2 * self.c.params.h0
        if not 1 <= length <= h:
            raise ValueError("initial fragment must fit one stage-0 column")
        self._emit("0" * length)
        self._bump(1)
        frag = Fragment(0, "sparse", 0, 0, self.length, parts=1, ones_frequency=0.0)
        self.fragments.append(frag)

    def sparse_step(self, stage: int, parts: int) -> None:
        """Odd step: extend with a low-ones-frequency trajectory.

        The extension is sampled from the routing distribution and screened
        by ones frequency.
        """
        k = len(self.fragments)
        start, first = self.length, len(self.bits)
        self._fill_to_boundary(stage)
        for name in self._sample_extension(stage, parts):
            self._emit(name)
            self._bump(stage)
        ext = "".join(self.bits[first:])
        frag = Fragment(
            k,
            "sparse",
            stage,
            start,
            self.length,
            parts=parts,
            ones_frequency=ext.count("1") / len(ext) if ext else 0.0,
        )
        self.fragments.append(frag)

    def incompressible_step(self, stage: int) -> None:
        """Even step: route through the uniform tower of this stage with a
        seeded random block.

        The recorded segment is the whole block; its lower half is the part
        whose start positions carry the length guarantee, and the block is
        operationally certified by its own compression ratio (resampled on
        failure, bounded retries).
        """
        k = len(self.fragments)
        start = self.length
        self._fill_to_boundary(stage)
        block_len = self.c.stage(stage).delta_second.uniform_height
        block = None
        for _ in range(FREQ_RETRIES):
            cand = format(self.rng.getrandbits(block_len), f"0{block_len}b")
            if compression_ratio(LZ78Coder(), cand) >= INCOMPRESSIBILITY_THRESHOLD:
                block = cand
                break
        if block is None:
            raise StageFailure("could not draw an incompressible block")
        seg_start = self.length
        self._emit(block)
        self._bump(stage)
        frag = Fragment(
            k,
            "incompressible",
            stage,
            start,
            self.length,
            segment=(seg_start, seg_start + block_len),
            parts=1,
            ones_frequency=block.count("1") / block_len,
        )
        self.fragments.append(frag)

    def build(self, schedule: list[FragmentSpec], initial_length: int) -> AlphaTrace:
        self.initial_fragment(initial_length)
        for spec in schedule:
            if spec.kind == "sparse":
                self.sparse_step(spec.stage, spec.parts)
            elif spec.kind == "incompressible":
                self.incompressible_step(spec.stage)
            else:
                raise ValueError(f"unknown fragment kind {spec.kind}")
        heights = {
            "delta": {s: self.c.stages[s].delta.uniform_height for s in range(len(self.c.stages))},
            "pi_min": {s: self.c.stages[s].pi.min_height for s in range(len(self.c.stages))},
        }
        return AlphaTrace("".join(self.bits), self.fragments, heights)


def stage_height(construction: Construction, s: int) -> int:
    """h_s of the built stage: gadget heights are at least 2 h_s."""
    return construction.stage(s).pi.min_height // 2


def build_alpha(construction: Construction, schedule: list[FragmentSpec],
                initial_length: int, seed: int = 0) -> AlphaTrace:
    """Build the trace and enforce the length induction l(alpha(k)) >= h_s(k)."""
    builder = AlphaBuilder(construction, seed=seed)
    trace = builder.build(schedule, initial_length)
    for frag in trace.fragments:
        need = stage_height(construction, frag.stage)
        if frag.end < need:
            raise StageFailure(
                f"fragment {frag.index} ends at {frag.end} < stage height {need}"
            )
    return trace
