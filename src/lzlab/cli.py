"""Command-line harness.

Verbs: encode, decode, ratio-curve, mixture, gadget, theorem1, deficiency,
source, experiment.  Sequences on disk use the bitstream format (8-byte
little-endian bit count, zero-padded payload); data files are CSV; summaries
and gadget dumps are JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from ._util import format_rational, parse_rational, write_atomic, write_json_atomic
from .bitio import read_bits_file, write_bits_file
from .construction import Construction, ConstructionParams, build_alpha, heights_schedule
from .deficiency import deficiency_curve
from .ktmix import MixtureCoder, QuantizedMixturePredictor
from .lz import BlockCoder, LZ78Coder, LZWindowCoder, ratio_curve
from .sources import MarkovSource, bernoulli, flip_chain, robustness_experiment
from .symbolic import gadget_to_json, well_distributedness_mfold
from . import arith, experiments


def _make_coder(args):
    if args.coder == "lz78":
        return LZ78Coder()
    if args.coder == "lzwin":
        return LZWindowCoder(None if args.window == 0 else args.window)
    if args.coder == "block":
        return BlockCoder(args.block, LZ78Coder())
    if args.coder == "mixture":
        return MixtureCoder(args.kmax)
    raise SystemExit(f"unknown coder {args.coder}")


def _make_source(spec: str):
    if spec.startswith("bernoulli:"):
        return bernoulli(parse_rational(spec.split(":", 1)[1]))
    if spec.startswith("flip:"):
        return flip_chain(parse_rational(spec.split(":", 1)[1]))
    if spec.startswith("markov:"):
        with open(spec.split(":", 1)[1]) as fh:
            data = json.load(fh)
        rows = {ctx: parse_rational(v) for ctx, v in data["rows"].items()}
        return MarkovSource(int(data["order"]), rows)
    raise SystemExit(f"unknown source spec {spec!r}")


def _construction_from_args(args) -> Construction:
    params = ConstructionParams(
        r=parse_rational(args.r),
        h0=args.h0,
        fold_schedule=tuple(int(v) for v in args.folds.split(",")),
        mode=args.mode,
        sigma=_sigma_from_spec(args.sigma) if args.sigma else None,
    )
    return Construction(params)


def _sigma_from_spec(spec):
    if spec in (None, "id"):
        return lambda n: n
    with open(spec) as fh:
        return json.load(fh)


def _write_csv(path: str | None, text: str, checkpoints: int) -> None:
    """Write CSV text to ``path``, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, text)
        print(f"wrote {checkpoints} checkpoints to {path}")


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-str conversion for the exact
    rationals and column counts a command prints; restore it on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_encode(args):
    coder = _make_coder(args)
    word = read_bits_file(args.infile)
    code = coder.encode(word)
    write_bits_file(args.out, code)
    print(f"{coder.name}: {len(word)} symbols -> {len(code)} bits")


def cmd_decode(args):
    coder = _make_coder(args)
    bits = read_bits_file(args.infile)
    word, used = coder.decode(bits)
    write_bits_file(args.out, word)
    print(f"{coder.name}: consumed {used} bits -> {len(word)} symbols")


def cmd_ratio_curve(args):
    coder = _make_coder(args)
    word = read_bits_file(args.infile)
    curve = ratio_curve(coder, word, args.stride)
    _write_csv(args.csv, experiments.curve_csv(curve.points), len(curve.points))


def cmd_mixture(args):
    word = read_bits_file(args.infile)
    coder = MixtureCoder(args.kmax)
    stride = args.stride or max(1, len(word) // 32)
    positions = list(range(stride, len(word) + 1, stride))
    bits = coder.prefix_bits(word, positions)
    # ideal per-symbol cost tracked by the quantized predictor
    pred = QuantizedMixturePredictor(args.kmax)
    neg_log = 0.0
    acc = {}
    want = set(positions)
    for t, ch in enumerate(word, start=1):
        c = pred.prob0_scaled()
        p0 = c / (1 << arith.PROB_BITS)
        bit = 1 if ch == "1" else 0
        neg_log -= math.log2(1 - p0 if bit else p0)
        pred.update(bit)
        if t in want:
            acc[t] = neg_log
    text = experiments.csv_text(
        ["n", "neg_log_rho_per_symbol", "code_bits"],
        ([n, f"{acc[n] / n:.8f}", b] for n, b in zip(positions, bits)),
    )
    _write_csv(args.csv, text, len(positions))


def cmd_gadget(args):
    c = _construction_from_args(args)
    stage = c.stage(args.stage)
    if args.action == "wd":
        s = args.against if args.against is not None else args.stage
        st = c.stage(s)
        value = well_distributedness_mfold(st.fold_base, st.r_used)
    with _unlimited_int_digits():
        if args.action == "stats":
            info = {
                "stage": args.stage,
                "pi": {
                    "width": format_rational(stage.pi.width),
                    "support": format_rational(stage.pi.support),
                    "min_height": stage.pi.min_height,
                    "max_height": stage.pi.max_height,
                    "columns": str(stage.pi.ncols),
                },
                "delta": {
                    "width": format_rational(stage.delta.width),
                    "support": format_rational(stage.delta.support),
                    "uniform_height": stage.delta.uniform_height,
                },
                "fold_count": stage.r_used,
                "wd_value": None if stage.wd_value is None else format_rational(stage.wd_value),
                "wd_method": stage.wd_method,
                "diagnostics": {
                    k: (format_rational(v) if isinstance(v, Fraction) else v)
                    for k, v in stage.diagnostics.items()
                },
            }
            json.dump(info, sys.stdout, indent=2)
            print()
        elif args.action == "dump":
            payload = {"pi": gadget_to_json(stage.phi)}
            if args.out:
                write_json_atomic(args.out, payload)
                print(f"wrote gadget dump to {args.out}")
            else:
                json.dump(payload, sys.stdout)
                print()
        else:
            print(f"stage {s}: wd = {format_rational(value)} ({float(value):.6f})")


def cmd_theorem1(args):
    if args.action == "build":
        c = _construction_from_args(args)
        for s in range(args.stages + 1):
            st = c.stage(s)
            wd = "-" if st.wd_value is None else f"{float(st.wd_value):.4f}"
            print(
                f"stage {s}: fold={st.r_used} heights[{st.phi.min_height},"
                f"{st.phi.max_height}] delta_mass={format_rational(st.delta.support)} wd={wd}"
            )
    elif args.action == "alpha":
        c = _construction_from_args(args)
        schedule = experiments._spec_list(json.loads(args.schedule))[: args.steps]
        trace = build_alpha(c, schedule, initial_length=args.initial, seed=args.seed)
        write_bits_file(args.out, trace.bits)
        if args.trace:
            write_json_atomic(args.trace, trace.to_json())
        print(f"alpha: {len(trace.bits)} symbols, {len(trace.fragments)} fragments")
    elif args.action == "sample":
        c = _construction_from_args(args)
        word = c.sample_sequence(args.seed, args.len)
        write_bits_file(args.out, word)
        print(f"sample: {args.len} symbols, ones frequency {word.count('1') / len(word):.6f}")
    elif args.action == "heights":
        sched = heights_schedule(_sigma_from_spec(args.sigma), parse_rational(args.r), args.stages)
        print(" ".join(str(h) for h in sched))


def cmd_deficiency(args):
    if args.measure == "theorem1":
        measure = _construction_from_args(args)
    else:
        measure = _make_source(args.measure)
    coder = LZ78Coder() if args.code == "lz78" else MixtureCoder(args.kmax)
    word = read_bits_file(args.infile)
    curve = deficiency_curve(word, measure, code=coder, stride=args.stride)
    text = experiments.csv_text(["n", "dhat"], ([n, f"{d:.6f}"] for n, d in curve.points))
    _write_csv(args.csv, text, len(curve.points))


def cmd_source(args):
    source = _make_source(args.source)
    if args.action == "entropy":
        print(f"{source.name}: H = {source.entropy_rate():.6f} bits/symbol")
    elif args.action == "sample":
        word = source.sample(args.seed, args.len)
        write_bits_file(args.out, word)
        print(f"{source.name}: wrote {args.len} symbols")
    elif args.action == "robustness":
        coder = LZ78Coder()
        report = robustness_experiment(
            source, coder, args.len, [int(v) for v in args.blocks.split(",")], seed=args.seed
        )
        print(f"{source.name}: H = {report.entropy:.6f}")
        print(f"full-sequence final ratio: {float(report.final_ratio):.6f}")
        for N, v in sorted(report.block_final.items()):
            print(f"block N={N}: final ratio {float(v):.6f}")


def cmd_experiment(args):
    with open(args.config) as fh:
        config = json.load(fh)
    summary = experiments.run_experiment(config, outdir=args.outdir)
    status = "PASS" if summary.get("passed") else "FAIL"
    print(f"{config.get('experiment')}: {status}")
    for check in summary.get("checks", []):
        print(f"  [{'PASS' if check['passed'] else 'FAIL'}] {check['name']}")


def _add_construction_flags(p, mode_default="empirical"):
    p.add_argument("--r", default="1/256")
    p.add_argument("--h0", type=int, default=256)
    p.add_argument("--folds", default="4,4,4,4,2,2,2,2,2")
    p.add_argument("--mode", choices=["empirical", "faithful"], default=mode_default)
    p.add_argument("--sigma", default=None, help="'id' or a JSON table file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    coder = argparse.ArgumentParser(add_help=False)
    coder.add_argument("--coder", required=True, choices=["lz78", "lzwin", "block", "mixture"])
    coder.add_argument("--window", type=int, default=0, help="lzwin window; 0 = unbounded")
    coder.add_argument("--block", type=int, default=4096)
    coder.add_argument("--kmax", type=int, default=8)
    coder.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("encode", parents=[coder], help="encode a bitstream file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[coder], help="decode a codeword file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ratio-curve", parents=[coder], help="compression-ratio curve as CSV")
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_ratio_curve)

    p = sub.add_parser("mixture", help="mixture-measure rate and code bits")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stride", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("gadget", help="inspect construction gadgets")
    p.add_argument("action", choices=["dump", "stats", "wd"])
    p.add_argument("--stage", type=int, default=1)
    p.add_argument("--against", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_construction_flags(p)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("theorem1", help="build stages, the trace, or samples")
    p.add_argument("action", choices=["build", "alpha", "sample", "heights"])
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--steps", type=int, default=99)
    p.add_argument(
        "--schedule",
        default=json.dumps(experiments.OSCILLATION_DEFAULTS["schedule"]),
        help="JSON list of fragment specs",
    )
    p.add_argument("--initial", type=int, default=384)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len", type=int, default=1024)
    p.add_argument("--out", default="alpha.bits")
    p.add_argument("--trace", default=None)
    _add_construction_flags(p)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("deficiency", help="surrogate deficiency curve")
    p.add_argument("--measure", required=True, help="theorem1 | bernoulli:p | flip:p | markov:FILE")
    p.add_argument("--code", choices=["lz78", "mixture"], default="lz78")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stride", type=int, default=1024)
    p.add_argument("--csv", default=None)
    _add_construction_flags(p)
    p.set_defaults(func=cmd_deficiency)

    p = sub.add_parser("source", help="baseline sources")
    p.add_argument("action", choices=["sample", "entropy", "robustness"])
    p.add_argument("--source", required=True, help="bernoulli:p | flip:p | markov:FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len", type=int, default=4096)
    p.add_argument("--out", default="sample.bits")
    p.add_argument("--blocks", default="64,1024,16384")
    p.set_defaults(func=cmd_source)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("action", choices=["run"])
    p.add_argument("config")
    p.add_argument("--outdir", default="results")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
