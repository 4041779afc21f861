"""Experiment orchestration: configuration, seeded determinism, result files.

Three headline experiments plus the deficiency demo:

* oscillation  -- ratio curves of every coder on the alternating trace;
* robustness   -- LZ78 and its block realizations on Markov sources;
* universality -- mixture-code and LZ78 rates against source entropy;
* deficiency   -- surrogate deficiency of the trace vs a random control.

All randomness flows from one master seed through named streams; outputs are
CSV files plus a JSON summary that echoes the full configuration.
"""

from __future__ import annotations

import csv
import io
import math
import os
from fractions import Fraction

from ._util import log2_fraction, parse_rational, stream_seed, write_atomic, write_json_atomic
from .construction import Construction, ConstructionParams, FragmentSpec, build_alpha
from .deficiency import monotone_length, probability_estimate
from .ktmix import MixtureCoder
from .lz import BlockCoder, LZ78Coder, LZWindowCoder
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


def _coder_suite(cfg):
    return [
        LZ78Coder(),
        LZWindowCoder(),
        BlockCoder(int(cfg["block_len"]), LZ78Coder()),
        MixtureCoder(int(cfg["mixture_kmax"])),
    ]


def _spec_list(schedule) -> list[FragmentSpec]:
    """Fragment specs from a JSON schedule of {"kind", "stage", "parts"} items."""
    return [
        FragmentSpec(item["kind"], int(item["stage"]), int(item.get("parts", 1)))
        for item in schedule
    ]


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
        _spec_list(cfg["schedule"]),
        initial_length=int(cfg["initial_length"]),
        seed=stream_seed(int(cfg["seed"]), stream),
    )
    return construction, trace


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

    positions = sorted(
        set(range(stride, n + 1, stride))
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
    for coder in _coder_suite(cfg):
        bits = coder.prefix_bits(alpha, positions)
        at = dict(zip(positions, bits))
        curve_points = [
            (m, at[m], F(at[m], m)) for m in range(stride, n + 1, stride)
        ]
        if not curve_points:
            curve_points = [(n, at[n], F(at[n], n))]
        curves[coder.name] = curve_points
        odd_ratios = {m: F(at[m], m) for m in odd_ends}
        seg_ratios = {
            f"{a}-{b}": F(at[b] - at[a], b - a) for a, b in segments
        }
        ratios = [r for _, _, r in curve_points]
        spread = max(ratios) - min(ratios) if ratios else F(0)
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
    sparse_count = sum(1 for f in trace.fragments if f.kind == "sparse" and f.index >= 1)
    inc_count = sum(1 for f in trace.fragments if f.kind == "incompressible")
    summary["checks"] += [
        _check(f"alpha length >= {cfg['min_length']}", n >= int(cfg["min_length"]), {"length": n}),
        _check(
            "at least 3 sparse and 3 incompressible fragments",
            sparse_count >= 3 and inc_count >= 3,
            {"sparse": sparse_count, "incompressible": inc_count},
        ),
    ]
    return _finish(summary, "oscillation", {k: curve_csv(p) for k, p in curves.items()}, outdir)


def run_robustness(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(ROBUSTNESS_DEFAULTS, config)
    n = int(cfg["n"])
    seed = int(cfg["seed"])
    stride = int(cfg["stride"])
    coder = LZ78Coder()
    flip = flip_chain(parse_rational(cfg["flip_p"]))
    fair = bernoulli(F(1, 2))
    reports = {}
    summary = {"config": cfg, "sources": {}, "checks": []}
    curves = {}
    for source in (flip, fair):
        rep = robustness_experiment(
            source,
            coder,
            n,
            [int(N) for N in cfg["block_lengths"]],
            seed=stream_seed(seed, f"robustness:{source.name}"),
            stride=stride,
        )
        reports[source.name] = rep
        for key, curve in rep.curves.items():
            curves[f"{source.name}_{key}"] = curve.points
        summary["sources"][source.name] = {
            "entropy": rep.entropy,
            "final_ratio": float(rep.final_ratio),
            "block_final": {str(N): float(v) for N, v in rep.block_final.items()},
        }
    H = reports[flip.name].entropy
    lo = H - float(parse_rational(cfg["lz_low_slack"]))
    hi = H + float(parse_rational(cfg["lz_high_slack"]))
    flip_ratio = float(reports[flip.name].final_ratio)
    rnd = float(reports[fair.name].final_ratio)
    rnd_lo = float(parse_rational(cfg["random_ratio_low"]))
    rnd_hi = float(parse_rational(cfg["random_ratio_high"]))
    blocks = reports[flip.name].block_final
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


def run_universality(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(UNIVERSALITY_DEFAULTS, config)
    seed = int(cfg["seed"])
    mixture = MixtureCoder(int(cfg["mixture_kmax"]))
    lz = LZ78Coder()
    n_mix = int(cfg["mixture_n"])
    n_lz = int(cfg["lz_n"])
    tol = float(parse_rational(cfg["mixture_tolerance"]))
    lo_slack = float(parse_rational(cfg["lz_low_slack"]))
    hi_slack = float(parse_rational(cfg["lz_high_slack"]))
    stride = int(cfg["stride"])
    summary = {"config": cfg, "sources": {}, "checks": []}
    curves = {}
    for source in (bernoulli(F(1, 5)), flip_chain(F(1, 10)), _second_order_source()):
        H = source.entropy_rate()
        x = source.sample(stream_seed(seed, f"universality:{source.name}"), n_mix)
        mix_rate = mixture.payload_code_len(x) / n_mix
        xl = source.sample(stream_seed(seed, f"universality-lz:{source.name}"), n_lz)
        lz_positions = sorted(set(range(stride, n_lz + 1, stride)) | {n_lz})
        lz_bits = lz.prefix_bits(xl, lz_positions)
        curves[f"{source.name}_lz78"] = [
            (m, b, F(b, m)) for m, b in zip(lz_positions, lz_bits)
        ]
        lz_ratio = float(F(lz_bits[-1], n_lz))
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
                all(F(b, m) >= H - lo_slack for m, b in zip(lz_positions, lz_bits)),
                {},
            ),
        ]
    return _finish(summary, "universality", {k: curve_csv(p) for k, p in curves.items()}, outdir)


def run_deficiency(config: dict | None = None, outdir: str | None = None) -> dict:
    cfg = merge_config(DEFICIENCY_DEFAULTS, config)
    seed = int(cfg["seed"])
    construction, trace = _alpha_trace(cfg, "deficiency-alpha")
    alpha = trace.bits
    mixture = MixtureCoder(int(cfg["mixture_kmax"]))
    scale = int(cfg["sigma_scale"])
    sigma = lambda m: scale * (m + 1).bit_length()
    c0 = int(cfg["c0"])

    def dhat(word: str) -> float:
        p_hat = probability_estimate(construction, word)
        return -log2_fraction(p_hat) - monotone_length(mixture, word)

    alpha_points = []
    for m in cfg["alpha_checkpoints"]:
        m = int(m)
        alpha_points.append({"n": m, "dhat": dhat(alpha[:m]), "sigma": sigma(m)})
    control_rng_seed = stream_seed(seed, "deficiency-control")
    control = bernoulli(F(1, 2)).sample(control_rng_seed, int(cfg["control_n"]))
    control_points = []
    for m in cfg["control_checkpoints"]:
        m = int(m)
        control_points.append({"n": m, "dhat": dhat(control[:m])})
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
