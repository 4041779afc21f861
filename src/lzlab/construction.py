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


def fragment_specs(schedule) -> list[FragmentSpec]:
    """Fragment specs from a JSON schedule: a list of {"kind", "stage",
    "parts"} objects, "parts" defaulting to 1."""
    if not isinstance(schedule, list):
        raise ValueError(f"schedule {schedule!r} is not a list")
    for item in schedule:
        if not isinstance(item, dict):
            raise ValueError(f"schedule item {item!r} is not an object")
        for key in ("kind", "stage"):
            if key not in item:
                raise ValueError(f"schedule item {item!r} has no {key!r}")
        if int(item["stage"]) < 1 or int(item.get("parts", 1)) < 1:
            raise ValueError(f"schedule item {item!r} needs a stage and parts of at least 1")
    return [FragmentSpec(item["kind"], int(item["stage"]), int(item.get("parts", 1))) for item in schedule]


# draws of a sparse extension, or of an incompressible block, per step
FREQ_RETRIES = 16
# an incompressible block must reach this LZ78 compression ratio
INCOMPRESSIBILITY_THRESHOLD = F(9, 10)


def stage_height(construction: Construction, s: int) -> int:
    """h_s of the built stage: gadget heights are at least 2 h_s."""
    return construction.stage(s).pi.min_height // 2


def build_alpha(construction: Construction, schedule: list[FragmentSpec],
                initial_length: int, seed: int = 0) -> AlphaTrace:
    """Emit the alternating sparse / incompressible trace and enforce the
    length induction l(alpha(k)) >= h_s(k) on every fragment.

    The trace is a genuine trajectory-name prefix: parts are whole column
    names of the stage fold bases, nested counters keep the emission aligned
    with the product structure, and uniform-tower blocks are placed only at
    part boundaries of their stage.
    """
    rng = random.Random(seed)
    bits: list[str] = []
    length = 0
    # counters[t]: parts of the stage-t fold base emitted toward its current column
    counters: dict[int, int] = {}
    fragments: list[Fragment] = []

    def emit(name: str, t: int) -> None:
        """Append one stage-t part and carry the counters upward."""
        nonlocal length
        bits.append(name)
        length += len(name)
        while True:
            counters[t] = counters.get(t, 0) + 1
            if counters[t] < construction.stage(t).r_used:
                return
            counters[t] = 0
            t += 1

    def close(kind: str, stage: int, start: int, **fields) -> None:
        """Record the fragment that ends here, once it reaches h_stage."""
        need = stage_height(construction, stage)
        if length < need:
            raise StageFailure(f"fragment {len(fragments)} ends at {length} < stage height {need}")
        fragments.append(Fragment(len(fragments), kind, stage, start, length, **fields))

    # alpha(0): a main-gadget trajectory name (all zeros at stage 0)
    if not 1 <= initial_length <= 2 * construction.params.h0:
        raise ValueError("initial fragment must fit one stage-0 column")
    emit("0" * initial_length, 1)
    close("sparse", 0, 0, parts=1, ones_frequency=0.0)
    for spec in schedule:
        if spec.kind not in ("sparse", "incompressible"):
            raise ValueError(f"unknown fragment kind {spec.kind}")
        start, first = length, len(bits)
        # sparse filler parts until every counter below the stage is 0
        for t in range(1, spec.stage):
            if counters.get(t, 0):
                filler = sample_sparse_column(construction.stage(t).fold_base)
                for _ in range(construction.stage(t).r_used - counters[t]):
                    emit(filler, t)
        if spec.kind == "sparse":
            # odd step: parts drawn from the routing distribution, screened
            # by ones frequency, else the all-main-branch column
            base = construction.stage(spec.stage).fold_base
            for _ in range(FREQ_RETRIES):
                names = [base.sample_column(rng) for _ in range(spec.parts)]
                if F(sum(n.count("1") for n in names), sum(map(len, names))) <= 2 * construction.params.r:
                    break
            else:
                names = [sample_sparse_column(base)] * spec.parts
            for name in names:
                emit(name, spec.stage)
            ones = sum(name.count("1") for name in bits[first:])
            close("sparse", spec.stage, start, parts=spec.parts, ones_frequency=ones / (length - start))
        else:
            # even step: one seeded uniform-tower block, certified by its LZ78
            # ratio; its lower half holds the starts that carry the length guarantee
            block_len = construction.stage(spec.stage).delta_second.uniform_height
            for _ in range(FREQ_RETRIES):
                block = format(rng.getrandbits(block_len), f"0{block_len}b")
                if compression_ratio(LZ78Coder(), block) >= INCOMPRESSIBILITY_THRESHOLD:
                    break
            else:
                raise StageFailure("could not draw an incompressible block")
            emit(block, spec.stage)
            close("incompressible", spec.stage, start, segment=(length - block_len, length), parts=1,
                  ones_frequency=block.count("1") / block_len)
    heights = {
        "delta": {s: st.delta.uniform_height for s, st in enumerate(construction.stages)},
        "pi_min": {s: st.pi.min_height for s, st in enumerate(construction.stages)},
    }
    return AlphaTrace("".join(bits), fragments, heights)
