"""lzlab benchmark: two workloads timed end to end, plus one traced pass.

Run one workload (the last line of stdout is a JSON result):

    python3 bench/run.py --workload runners --seed 20260810 --seconds 55 --trace 0

Run every workload, each in its own process, with the traced pass:

    python3 bench/run.py --all

A run times set-up in fresh processes, then repeats passes of the workload
for ``--seconds``, starting a pass only when the median pass so far still
fits, and reports the mean pass time and the median set-up time.  Each pass
is checked outside its timed region; the last pass repeats the first input.
With ``--trace 1`` it then sets up and runs one more pass with every layer's
public calls wrapped (see tracer.py) and reports per-layer metrics and the
tracing overhead.  Every pass is checked by the gate in gate.py; see
README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from gate import load_pinned, pass_failures
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

DEFAULT_SEED = 20260810
HELD_OUT_SEED = 1729
SETUP_REPEATS = 5

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def import_lzlab() -> bool:
    """Import lzlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import lzlab
    except ImportError:
        return False
    return os.path.abspath(lzlab.__file__).startswith(SRC + os.sep)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def timed_setups(args) -> list[float]:
    """Wall time of fresh processes that import lzlab and set the workload up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Attempted and failed operations of a run, with the failure reasons."""

    def __init__(self, pinned: dict, args):
        self.pinned = pinned
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, res, reference: str | None = None) -> None:
        gate = pass_failures(self.pinned, self.args.workload, self.args.seed, res.input_index,
                             res.digest, res.red_checks, reference)
        self.attempted += res.attempted
        self.failed += res.attempted if gate else min(res.attempted, len(res.failures))
        self.problems += res.failures + gate

    def add_checks(self, checked: int, reasons: list[str]) -> None:
        self.attempted += checked
        self.failed += len(reasons)
        self.problems += reasons


def run_workload(args, tmpdir: str) -> dict:
    workload = WORKLOADS[args.workload]
    tally = Tally(load_pinned(), args)
    setup_times = timed_setups(args)
    state = workload.setup(args.seed, tmpdir)

    passes = []
    first_digest = {}  # input index -> digest of its first pass
    index = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        res = workload.run_pass(state, index)
        tally.add_pass(res, first_digest.get(res.input_index))
        first_digest.setdefault(res.input_index, res.digest)
        passes.append(res)
        typical = statistics.median(p.seconds for p in passes)
        left = deadline - time.perf_counter()
        if left < typical:
            break
        # the last pass that fits repeats input 0: results must be reproducible
        index = 0 if left < 2 * typical else len(passes)
    if len(first_digest) == len(passes):
        gc.collect()
        tally.add_pass(workload.run_pass(state, 0), first_digest[0])
    if hasattr(workload, "length_failures"):
        tally.add_checks(*workload.length_failures(state))

    stats = {
        "run_s": ([p.seconds for p in passes], "s"),
        "setup_s": (setup_times, "s"),
        "peak_rss_mib": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MiB"),
    }
    if passes[0].encode_s:
        stats["encode_mbit_s"] = ([p.encode_bits / p.encode_s / 1e6 for p in passes], "Mbit/s")
        stats["decode_mbit_s"] = ([p.decode_bits / p.decode_s / 1e6 for p in passes], "Mbit/s")

    layers = {}
    if args.trace:
        same_input = [p.seconds for p in passes if p.input_index == 0]
        layers = traced_run(args, workload, tally, first_digest[0],
                            statistics.median(same_input), tmpdir)
        for name in ("encode_mbit_s", "decode_mbit_s"):
            values = stats.get(name, ([0.0], ""))[0]
            layers[f"codec.{name}"] = statistics.median(values)

    return {"passes": passes, "stats": stats, "layers": layers, "tally": tally}


def traced_run(args, workload, tally, reference, untraced_s, tmpdir) -> dict:
    """Set up and run the first input once more with every layer wrapped."""
    from tracer import Tracer, layer_metrics, traced

    tracer = Tracer()
    sub = tempfile.mkdtemp(dir=tmpdir)
    gc.collect()
    with traced(tracer):
        tracer.pass_id = "setup"
        state = workload.setup(args.seed, sub)
        tracer.pass_id = "pass"
        res = workload.run_pass(state, 0)
    tracer.run_deferred()
    tally.add_pass(res, reference)
    layers = layer_metrics(tracer)
    layers["trace.run_s"] = res.seconds
    layers["trace.overhead_s"] = res.seconds - untraced_s
    return layers


def report(args, out: dict) -> dict:
    """Print every metric by name, unit and sample count; return the JSON result."""
    passes = out["passes"]
    tally = out["tally"]
    attempted, failed = tally.attempted, tally.failed
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
          f"passes {len(passes)}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f}")
    for p in passes:
        print("record " + json.dumps(record(args.workload, args.seed, p), sort_keys=True))
    for reason in tally.problems:
        print(f"FAILED {reason}")
    for name, (values, unit) in out["stats"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<28} median {med:12.6f} {unit:<7} q1 {q1:.6f}  q3 {q3:.6f}  "
              f"mean {statistics.mean(values):.6f}  n={len(values)}")
    if out["layers"]:
        print("  traced pass (self time in s; counts):")
        for name, value in out["layers"].items():
            print(f"  {name:<34} {value:.6f}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in out["layers"].items()}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = out["stats"][name][0]
            # run_s is the mean pass: on a shared host whose speed drifts,
            # the mean of a run's passes spreads least between runs.
            summary = statistics.mean if name == "run_s" else statistics.median
            metrics[name] = {"value": summary(values), "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record(workload: str, seed: int, res) -> dict:
    """What a pass ran on and what it produced."""
    return {
        "workload": workload,
        "seed": seed,
        "index": res.input_index,
        "python": platform.python_version(),
        "input_bits": res.input_bits,
        "digest": res.digest,
        "red_checks": res.red_checks,
        "seconds": res.seconds,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_mbit_s"):
        return "Mbit/s"
    if name.endswith("us_per_bit"):
        return "us/bit"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_command"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, one after the other, traced."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            ok = False
        print()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not import_lzlab():
        print(f"lzlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        if args.setup_only:
            WORKLOADS[args.workload].setup(args.seed, tmpdir)
            return 0
        result = report(args, run_workload(args, tmpdir))
    finally:
        shutil.rmtree(tmpdir)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
