"""Experiment orchestration: configuration, seeded determinism, result files.

Three headline experiments plus the deficiency demo:

* oscillation  -- ratio curves of every coder on the alternating trace;
* robustness   -- LZ78 and its block realizations on Markov sources;
* universality -- mixture-code and LZ78 rates against source entropy;
* deficiency   -- surrogate deficiency of the trace vs a random control.

All randomness flows from one master seed through named streams; outputs are
CSV files plus a JSON summary that echoes the full configuration.  Each
runner spreads its independent jobs (coders, sources, checkpoint words) over
forked workers, one per CPU the process may use, with identical outputs.
"""

from __future__ import annotations

import csv
import io
import math
import os
from fractions import Fraction

from ._util import log2_fraction, parse_rational, stream_seed, write_atomic, write_json_atomic
from .construction import Construction, ConstructionParams, build_alpha, fragment_specs
from .deficiency import monotone_length, probability_estimate
from .ktmix import MixtureCoder
from .lz import BlockCoder, LZ78Coder, LZWindowCoder, checkpoints, ratio_points
from .sources import MarkovSource, bernoulli, flip_chain, robustness_experiment

F = Fraction

CSV_HEADER = ["n", "bits", "ratio"]


OSCILLATION_DEFAULTS = {
    "experiment": "oscillation",
    "seed": 20260810,
    "r": "1/256",
    "h0": 256,
    "fold_schedule": [4, 4, 4, 4, 2, 2, 2, 2, 2],
    "initial_length": 384,
    "schedule": [
        {"kind": "sparse", "stage": 3, "parts": 12},
        {"kind": "incompressible", "stage": 4},
        {"kind": "sparse", "stage": 5, "parts": 1},
        {"kind": "incompressible", "stage": 6},
        {"kind": "sparse", "stage": 7, "parts": 3},
        {"kind": "incompressible", "stage": 4},
    ],
    "block_len": 4096,
    "mixture_kmax": 4,
    "stride": 16384,
    "min_length": 1 << 20,
    "incompressible_local_min": "4/5",
    "odd_prefix_max": "1/4",
    "spread_min": "1/10",
}

ROBUSTNESS_DEFAULTS = {
    "experiment": "robustness",
    "seed": 20260810,
    "n": 1 << 20,
    "flip_p": "1/10",
    "block_lengths": [64, 1024, 16384],
    "stride": 65536,
    "block_tolerance": "1/10",
    "lz_low_slack": "1/50",
    "lz_high_slack": "3/20",
    "random_ratio_low": "19/20",
    "random_ratio_high": "13/10",
}

UNIVERSALITY_DEFAULTS = {
    "experiment": "universality",
    "seed": 20260810,
    "mixture_n": 100_000,
    "mixture_kmax": 8,
    "mixture_tolerance": "1/50",
    "lz_n": 1 << 20,
    "lz_low_slack": "1/50",
    "lz_high_slack": "3/20",
    "stride": 20_000,
}

DEFICIENCY_DEFAULTS = {
    "experiment": "deficiency",
    "seed": 20260810,
    "r": "1/65536",
    "h0": 64,
    "fold_schedule": [4, 4, 4, 4, 2, 2, 2, 2, 2],
    "initial_length": 96,
    "schedule": [
        {"kind": "sparse", "stage": 1, "parts": 8},
        {"kind": "incompressible", "stage": 2},
        {"kind": "sparse", "stage": 3, "parts": 3},
        {"kind": "incompressible", "stage": 4},
    ],
    "mixture_kmax": 4,
    "alpha_checkpoints": [1024, 2048, 3072, 4096],
    "control_checkpoints": [2500, 5000, 10000],
    "control_n": 10_000,
    "sigma_scale": 16,
    "c0": 64,
}


def merge_config(defaults: dict, overrides: dict | None) -> dict:
    cfg = dict(defaults)
    if overrides:
        cfg.update(overrides)
    return cfg


def csv_text(header, rows) -> str:
    """CSV text in the csv module's default dialect: comma-separated rows,
    each ending in CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def curve_csv(points) -> str:
    """The CSV text of a ratio curve's (n, bits, ratio) points."""
    return csv_text(CSV_HEADER, ([n, bits, f"{float(ratio):.8f}"] for n, bits, ratio in points))


def _check(name: str, passed: bool, values: dict) -> dict:
    return {"name": name, "passed": passed, "values": values}


def _finish(summary: dict, experiment: str, csvs: dict[str, str], outdir: str | None) -> dict:
    """Set the summary's overall ``passed`` flag and, given an outdir, write
    ``<experiment>_<name>.csv`` for every CSV text plus
    ``<experiment>_summary.json``.  A '/' in a name (a source such as
    ``bernoulli(1/2)``) becomes '_' in its file name."""
    summary["passed"] = all(c["passed"] for c in summary["checks"])
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        for name, text in sorted(csvs.items()):
            write_atomic(os.path.join(outdir, f"{experiment}_{name.replace('/', '_')}.csv"), text)
        write_json_atomic(os.path.join(outdir, f"{experiment}_summary.json"), summary)
    return summary


def parallel_map(fn, jobs: list) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs handed out in order to
    forked worker processes, one per CPU this process may run on and at most
    one per job.  ``fn`` must be a module-level function, and the jobs (tuples
    of arguments) and results must pickle.  A job's exception is raised here;
    the pool is closed, and its workers joined, before this returns or raises.

    Forked workers start without importing lzlab again, which is what makes
    sub-second jobs worth sending.  Forking a process that runs other
    threads can deadlock the child, so such a process runs the jobs itself."""
    import threading

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers <= 1 or threading.active_count() > 1:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _alpha_trace(cfg: dict, stream: str):
    """The configured construction and the trace built from it, seeded by
    the named stream of the master seed."""
    params = ConstructionParams(
        r=parse_rational(cfg["r"]),
        h0=int(cfg["h0"]),
        fold_schedule=tuple(cfg["fold_schedule"]),
    )
    construction = Construction(params)
    trace = build_alpha(
        construction,
        fragment_specs(cfg["schedule"]),
        initial_length=int(cfg["initial_length"]),
        seed=stream_seed(int(cfg["seed"]), stream),
    )
    return construction, trace


def _prefix_bits(coder, x: str, positions: list[int]) -> list[int]:
    return coder.prefix_bits(x, positions)


def run_oscillation(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(OSCILLATION_DEFAULTS, config)
    _, trace = _alpha_trace(cfg, "alpha")
    alpha = trace.bits
    n = len(alpha)
    stride = int(cfg["stride"])
    odd_ends = [f.end for f in trace.fragments if f.kind == "sparse" and f.index >= 1]
    segments = [f.segment for f in trace.fragments if f.kind == "incompressible"]
    local_min = parse_rational(cfg["incompressible_local_min"])
    odd_max = parse_rational(cfg["odd_prefix_max"])
    spread_min = parse_rational(cfg["spread_min"])

    curve_ns = checkpoints(n, stride)
    positions = sorted(
        set(curve_ns)
        | set(odd_ends)
        | {p for seg in segments for p in seg}
        | {n}
    )
    summary = {
        "config": cfg,
        "alpha_length": n,
        "fragments": trace.to_json()["fragments"],
        "coders": {},
        "checks": [],
    }
    curves = {}
    coders = [
        LZ78Coder(),
        LZWindowCoder(),
        BlockCoder(int(cfg["block_len"]), LZ78Coder()),
        MixtureCoder(int(cfg["mixture_kmax"])),
    ]
    # the window-LZ and mixture passes take longest: hand them out first
    long_first = sorted(coders, key=lambda coder: not isinstance(coder, (LZWindowCoder, MixtureCoder)))
    bits_of = dict(zip(
        (coder.name for coder in long_first),
        parallel_map(_prefix_bits, [(coder, alpha, positions) for coder in long_first]),
    ))
    for coder in coders:
        bits = bits_of[coder.name]
        at = dict(zip(positions, bits))
        curve_points = ratio_points(curve_ns, [at[m] for m in curve_ns])
        curves[coder.name] = curve_points
        odd_ratios = {m: F(at[m], m) for m in odd_ends}
        seg_ratios = {
            f"{a}-{b}": F(at[b] - at[a], b - a) for a, b in segments
        }
        ratios = [r for _, _, r in curve_points]
        spread = max(ratios) - min(ratios)
        entry = {
            "odd_prefix_ratios": {str(k): float(v) for k, v in odd_ratios.items()},
            "segment_local_ratios": {k: float(v) for k, v in seg_ratios.items()},
            "prefix_ratio_min": float(min(ratios)),
            "prefix_ratio_max": float(max(ratios)),
            "spread": float(spread),
            "final_ratio": float(F(at[n], n)),
        }
        summary["coders"][coder.name] = entry
        summary["checks"] += [
            _check(
                f"{coder.name}: incompressible segments local ratio >= {float(local_min)}",
                all(v >= local_min for v in seg_ratios.values()),
                entry["segment_local_ratios"],
            ),
            _check(
                f"{coder.name}: odd fragment-end prefix ratio <= {float(odd_max)}",
                all(v <= odd_max for v in odd_ratios.values()),
                entry["odd_prefix_ratios"],
            ),
            _check(
                f"{coder.name}: prefix-ratio spread >= {float(spread_min)}",
                spread >= spread_min,
                {"spread": float(spread)},
            ),
        ]
    summary["checks"] += [
        _check(f"alpha length >= {cfg['min_length']}", n >= int(cfg["min_length"]), {"length": n}),
        _check(
            "at least 3 sparse and 3 incompressible fragments",
            len(odd_ends) >= 3 and len(segments) >= 3,
            {"sparse": len(odd_ends), "incompressible": len(segments)},
        ),
    ]
    return _finish(summary, "oscillation", {k: curve_csv(p) for k, p in curves.items()}, outdir)


def run_robustness(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(ROBUSTNESS_DEFAULTS, config)
    n = int(cfg["n"])
    seed = int(cfg["seed"])
    stride = int(cfg["stride"])
    block_lengths = [int(N) for N in cfg["block_lengths"]]
    if not block_lengths:
        raise ValueError("block_lengths is empty")
    flip = flip_chain(parse_rational(cfg["flip_p"]))
    fair = bernoulli(F(1, 2))
    jobs = [
        (source, LZ78Coder(), n, block_lengths, stream_seed(seed, f"robustness:{source.name}"), stride)
        for source in (flip, fair)
    ]
    results = parallel_map(robustness_experiment, jobs)
    summary = {"config": cfg, "sources": {}, "checks": []}
    curves = {}
    for source, (full, block_curves) in zip((flip, fair), results):
        curves[f"{source.name}_full"] = full
        for N, points in block_curves.items():
            curves[f"{source.name}_block{N}"] = points
        summary["sources"][source.name] = {
            "entropy": source.entropy_rate(),
            "final_ratio": float(full[-1][2]),
            "block_final": {str(N): float(points[-1][2]) for N, points in block_curves.items()},
        }
    (flip_full, flip_blocks), (fair_full, _) = results
    H = flip.entropy_rate()
    lo = H - float(parse_rational(cfg["lz_low_slack"]))
    hi = H + float(parse_rational(cfg["lz_high_slack"]))
    flip_ratio = float(flip_full[-1][2])
    rnd = float(fair_full[-1][2])
    rnd_lo = float(parse_rational(cfg["random_ratio_low"]))
    rnd_hi = float(parse_rational(cfg["random_ratio_high"]))
    blocks = {N: points[-1][2] for N, points in flip_blocks.items()}
    ordered = [blocks[N] for N in sorted(blocks)]
    largest = max(blocks)
    tol = float(parse_rational(cfg["block_tolerance"]))
    summary["checks"] += [
        _check(
            f"flip chain: lz78 final ratio within [{lo:.4f}, {hi:.4f}]",
            lo <= flip_ratio <= hi,
            {"ratio": flip_ratio, "H": H},
        ),
        _check(
            "fair coin: lz78 final ratio within the incompressibility band",
            rnd_lo <= rnd <= rnd_hi,
            {"ratio": rnd},
        ),
        _check(
            "flip chain: block ratios decrease with block length",
            all(a > b for a, b in zip(ordered, ordered[1:])),
            {str(N): float(v) for N, v in blocks.items()},
        ),
        _check(
            f"flip chain: block N={largest} ratio within {tol} of H",
            abs(float(blocks[largest]) - H) <= tol,
            {"ratio": float(blocks[largest]), "H": H},
        ),
    ]
    return _finish(summary, "robustness", {k: curve_csv(p) for k, p in curves.items()}, outdir)


def _second_order_source() -> MarkovSource:
    return MarkovSource(
        2,
        {"00": F(1, 10), "01": F(1, 3), "10": F(2, 3), "11": F(9, 10)},
        name="markov2",
    )


def _universality_sample(source: MarkovSource, seed: int, coder, n: int, lz_positions: list[int]):
    """One coder's result on one source: the mixture's rate, or LZ78's prefix
    bits, each on a sample from its own seed stream."""
    if isinstance(coder, MixtureCoder):
        x = source.sample(stream_seed(seed, f"universality:{source.name}"), n)
        return coder.payload_code_len(x) / n
    x = source.sample(stream_seed(seed, f"universality-lz:{source.name}"), n)
    return coder.prefix_bits(x, lz_positions)


def run_universality(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(UNIVERSALITY_DEFAULTS, config)
    seed = int(cfg["seed"])
    kmax = int(cfg["mixture_kmax"])
    n_mix = int(cfg["mixture_n"])
    n_lz = int(cfg["lz_n"])
    if n_mix < 1:
        raise ValueError(f"mixture_n {n_mix} must be at least 1")
    tol = float(parse_rational(cfg["mixture_tolerance"]))
    lo_slack = float(parse_rational(cfg["lz_low_slack"]))
    hi_slack = float(parse_rational(cfg["lz_high_slack"]))
    stride = int(cfg["stride"])
    summary = {"config": cfg, "sources": {}, "checks": []}
    curves = {}
    lz_positions = sorted({*checkpoints(n_lz, stride), n_lz})
    sources = (bernoulli(F(1, 5)), flip_chain(F(1, 10)), _second_order_source())
    # one job per (source, coder), the longer mixture jobs first
    jobs = [(source, seed, MixtureCoder(kmax), n_mix, ()) for source in sources]
    jobs += [(source, seed, LZ78Coder(), n_lz, lz_positions) for source in sources]
    results = parallel_map(_universality_sample, jobs)
    for source, mix_rate, lz_bits in zip(sources, results, results[len(sources):]):
        H = source.entropy_rate()
        lz_points = ratio_points(lz_positions, lz_bits)
        curves[f"{source.name}_lz78"] = lz_points
        lz_ratio = float(lz_points[-1][2])
        summary["sources"][source.name] = {
            "entropy": H,
            "mixture_rate": mix_rate,
            "lz78_final_ratio": lz_ratio,
        }
        summary["checks"] += [
            _check(
                f"{source.name}: mixture rate within {tol} of H at n={n_mix}",
                abs(mix_rate - H) <= tol,
                {"rate": mix_rate, "H": H},
            ),
            _check(
                f"{source.name}: lz78 ratio in [H-{lo_slack}, H+{hi_slack}] at n={n_lz}",
                H - lo_slack <= lz_ratio <= H + hi_slack,
                {"ratio": lz_ratio, "H": H},
            ),
            _check(
                f"{source.name}: lz78 curve stays above H - {lo_slack}",
                all(r >= H - lo_slack for _, _, r in lz_points),
                {},
            ),
        ]
    return _finish(summary, "universality", {k: curve_csv(p) for k, p in curves.items()}, outdir)


def _dhat(construction: Construction, mixture: MixtureCoder, word: str) -> float:
    """Surrogate deficiency -log2 P_hat(word) - L(word) of one checkpoint word."""
    p_hat = probability_estimate(construction, word)
    return -log2_fraction(p_hat) - monotone_length(mixture, word)


def _prefixes(word: str, ns: list[int], key: str) -> list[str]:
    """word[:m] for every checkpoint m: at least one, each within word."""
    if not ns:
        raise ValueError(f"{key} is empty")
    if not all(0 <= m <= len(word) for m in ns):
        raise ValueError(f"{key} {ns} do not all lie within the {len(word)}-bit word")
    return [word[:m] for m in ns]


def run_deficiency(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(DEFICIENCY_DEFAULTS, config)
    seed = int(cfg["seed"])
    construction, trace = _alpha_trace(cfg, "deficiency-alpha")
    alpha = trace.bits
    mixture = MixtureCoder(int(cfg["mixture_kmax"]))
    scale = int(cfg["sigma_scale"])
    sigma = lambda m: scale * (m + 1).bit_length()
    c0 = int(cfg["c0"])

    alpha_ns = [int(m) for m in cfg["alpha_checkpoints"]]
    control_ns = [int(m) for m in cfg["control_checkpoints"]]
    control_rng_seed = stream_seed(seed, "deficiency-control")
    control = bernoulli(F(1, 2)).sample(control_rng_seed, int(cfg["control_n"]))
    words = _prefixes(alpha, alpha_ns, "alpha_checkpoints")
    words += _prefixes(control, control_ns, "control_checkpoints")
    dhats = parallel_map(_dhat, [(construction, mixture, word) for word in words])
    alpha_points = [
        {"n": m, "dhat": d, "sigma": sigma(m)} for m, d in zip(alpha_ns, dhats)
    ]
    control_points = [
        {"n": m, "dhat": d} for m, d in zip(control_ns, dhats[len(alpha_ns):])
    ]
    r = parse_rational(cfg["r"])
    bound = 0.5 * int(cfg["control_n"]) * math.log2(1 / (1 - float(r)))
    final_control = control_points[-1]["dhat"]
    summary = {
        "config": cfg,
        "alpha_length": len(alpha),
        "alpha_curve": alpha_points,
        "control_curve": control_points,
        "control_bound": bound,
        "checks": [
            _check(
                f"alpha surrogate deficiency <= sigma(n) + {c0} at all checkpoints",
                all(p["dhat"] <= p["sigma"] + c0 for p in alpha_points),
                {str(p["n"]): p["dhat"] for p in alpha_points},
            ),
            _check(
                f"control deficiency exceeds 0.5 n log2(1/(1-r)) = {bound:.4f} at n={cfg['control_n']}",
                final_control > bound,
                {"dhat": final_control, "bound": bound},
            ),
        ],
    }
    curves = csv_text(
        ["sequence", "n", "dhat", "sigma_plus_c0"],
        [["alpha", p["n"], f"{p['dhat']:.4f}", p["sigma"] + c0] for p in alpha_points]
        + [["control", p["n"], f"{p['dhat']:.4f}", ""] for p in control_points],
    )
    return _finish(summary, "deficiency", {"curves": curves}, outdir)


RUNNERS = {
    "oscillation": run_oscillation,
    "robustness": run_robustness,
    "universality": run_universality,
    "deficiency": run_deficiency,
}


def run_experiment(config: dict, outdir: str | None = None) -> dict:
    name = config.get("experiment")
    if name not in RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(RUNNERS)}")
    return RUNNERS[name](config, outdir)
