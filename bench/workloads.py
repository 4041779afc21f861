"""The two benchmark workloads, run through lzlab's public entry points.

Each workload has ``setup(seed, tmpdir)`` (input generation and directories,
timed as set-up) and ``run_pass(state, index)`` (one timed pass plus its
correctness checks, which are not timed).  The seed replaces the runner config "seed" and
seeds the codec inputs; the program receives only the generated inputs.

The configs are scaled so that one pass takes a few seconds on a 2-CPU
machine, which lets a run repeat it; README.md gives the reasons for each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from gate import outdir_digest, red_checks, summary_digest

OSCILLATION = {"h0": 16, "initial_length": 24, "min_length": 1 << 17}
DEFICIENCY = {
    "alpha_checkpoints": [768, 1024],
    "control_checkpoints": [750, 1000],
    "control_n": 1000,
}
UNIVERSALITY = {"mixture_n": 8000, "lz_n": 1 << 15, "stride": 4096}
ROBUSTNESS = {"n": 1 << 15, "stride": 4096}

CODEC_BITS = 1 << 14
CODEC_ALPHA = {"h0": 64, "initial_length": 96}
CODEC_CODERS = [
    ["--coder", "lz78"],
    ["--coder", "lzwin"],
    ["--coder", "lzwin", "--window", "4096"],
    ["--coder", "block", "--block", "4096"],
    ["--coder", "mixture", "--kmax", "4"],
]


@dataclass
class PassResult:
    seconds: float
    digest: str
    input_bits: int
    attempted: int
    input_index: int = 0  # which of the run's inputs the pass used
    failures: list[str] = field(default_factory=list)
    red_checks: list[str] = field(default_factory=list)
    encode_bits: int = 0
    encode_s: float = 0.0
    decode_bits: int = 0
    decode_s: float = 0.0


class RunnerWorkload:
    """Experiment runners called one after the other with config overrides.

    Each run is ``(runner, overrides, write_files)``.  A runner with
    ``write_files`` writes its CSV and JSON results to the pass's fresh
    directory and the digest covers those files; for the others it covers
    the returned summaries.
    """

    def __init__(self, runs: list[tuple[str, dict, bool]]):
        self.runs = runs

    def setup(self, seed: int, tmpdir: str) -> dict:
        return {"tmpdir": tmpdir, "seed": seed}

    def run_pass(self, state: dict, index: int) -> PassResult:
        """Pass ``index`` runs every runner at ``pass_seed(seed, index)``."""
        from lzlab import experiments

        seed = pass_seed(state["seed"], index)
        outdir = tempfile.mkdtemp(dir=state["tmpdir"])
        summaries = []
        unwritten = []
        failures = []
        t0 = time.perf_counter()
        try:
            for runner, overrides, write_files in self.runs:
                try:
                    summary = getattr(experiments, runner)(
                        dict(overrides, seed=seed), outdir if write_files else None)
                except Exception as exc:  # a failed operation, reported by the gate
                    failures.append(f"{runner} raised {exc!r}")
                    continue
                summaries.append(summary)
                if not write_files:
                    unwritten.append(summary)
            seconds = time.perf_counter() - t0
            digest = hashlib.sha256(
                (outdir_digest(outdir) + summary_digest(unwritten)).encode()).hexdigest()
        finally:
            shutil.rmtree(outdir)
        return PassResult(
            seconds=seconds,
            digest=digest,
            input_bits=sum(_runner_input_bits(s) for s in summaries),
            attempted=len(self.runs),
            input_index=index,
            failures=failures,
            red_checks=red_checks(summaries),
        )


def _runner_input_bits(summary: dict) -> int:
    cfg = summary["config"]
    kind = cfg["experiment"]
    if kind == "oscillation":
        return summary["alpha_length"]
    if kind == "deficiency":
        return summary["alpha_length"] + int(cfg["control_n"])
    if kind == "universality":
        return 3 * (int(cfg["mixture_n"]) + int(cfg["lz_n"]))
    return 2 * int(cfg["n"])


def sub_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"bench:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def pass_seed(seed: int, index: int) -> int:
    """Runner seed of a run's pass ``index``: the workload seed itself, then
    seeds derived from it.  The runners' cost depends on the seed (lzwin's on
    where long matches fall), so a run's median covers several inputs."""
    return seed if index == 0 else sub_seed(seed, f"pass{index}")


def codec_coder(args: list[str]):
    """The coder object the CLI builds from a coder argument list."""
    from lzlab import cli

    parsed = cli.build_parser().parse_args(["encode", *args, "--in", "-", "--out", "-"])
    return cli._make_coder(parsed)


class CodecWorkload:
    """CLI encode then decode for every coder on three seeded inputs."""

    def setup(self, seed: int, tmpdir: str) -> dict:
        from lzlab import Construction, ConstructionParams, FragmentSpec, bernoulli, flip_chain
        from lzlab import construction, write_bits_file
        from lzlab.experiments import OSCILLATION_DEFAULTS

        params = ConstructionParams(
            r=Fraction(1, 256),
            h0=CODEC_ALPHA["h0"],
            fold_schedule=tuple(OSCILLATION_DEFAULTS["fold_schedule"]),
        )
        specs = [
            FragmentSpec(s["kind"], int(s["stage"]), int(s.get("parts", 1)))
            for s in OSCILLATION_DEFAULTS["schedule"]
        ]
        trace = construction.build_alpha(
            Construction(params), specs,
            initial_length=CODEC_ALPHA["initial_length"],
            seed=sub_seed(seed, "alpha"),
        )
        inputs = {
            "flip": flip_chain(Fraction(1, 10)).sample(sub_seed(seed, "flip"), CODEC_BITS),
            "fair": bernoulli(Fraction(1, 2)).sample(sub_seed(seed, "fair"), CODEC_BITS),
            "alpha": trace.bits[:CODEC_BITS],
        }
        paths = {}
        for name, bits in inputs.items():
            paths[name] = os.path.join(tmpdir, f"{name}.bits")
            write_bits_file(paths[name], bits)
        return {"tmpdir": tmpdir, "inputs": inputs, "paths": paths}

    def _jobs(self, state: dict):
        """(input name, coder args, input path, codeword path, decoded path)."""
        for name, path in state["paths"].items():
            for k, coder in enumerate(CODEC_CODERS):
                yield name, coder, path, f"{path}.{k}.code", f"{path}.{k}.out"

    def run_pass(self, state: dict, index: int) -> PassResult:
        """Every pass codes the same three inputs, so ``index`` is unused."""
        from lzlab import cli

        res = PassResult(seconds=0.0, digest="", input_bits=0, attempted=0)
        jobs = list(self._jobs(state))
        errors = {}
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            for name, coder, path, code, out in jobs:
                bits = len(state["inputs"][name])
                for verb, src, dst in (("encode", path, code), ("decode", code, out)):
                    res.attempted += 1
                    t = time.perf_counter()
                    try:
                        cli.main([verb, *coder, "--in", src, "--out", dst])
                    except Exception as exc:  # a failed operation, reported below
                        errors[dst] = f"{verb} raised {exc!r}"
                    dt = time.perf_counter() - t
                    if verb == "encode":
                        res.encode_s += dt
                        res.encode_bits += bits
                    else:
                        res.decode_s += dt
                        res.decode_bits += bits
                    sink.seek(0)
                    sink.truncate()
        res.seconds = time.perf_counter() - t0
        res.digest, res.failures = self.check(state, errors)
        res.input_bits = sum(len(x) for x in state["inputs"].values())
        return res

    def check(self, state: dict, errors: dict) -> tuple[str, list[str]]:
        """Digest of every codeword, and the commands that raised or whose
        decoded file differs from its input."""
        from lzlab import read_bits_file

        h = hashlib.sha256()
        failures = []
        for name, coder, path, code, out in self._jobs(state):
            label = f"{name} {' '.join(coder[1:])}"
            failures += [f"{label}: {errors[dst]}" for dst in (code, out) if dst in errors]
            if code in errors:
                continue
            h.update(label.encode() + b"\0" + read_bits_file(code).encode() + b"\0")
            if out not in errors and read_bits_file(out) != state["inputs"][name]:
                failures.append(f"{label}: decoded file differs from its input")
        return h.hexdigest(), failures

    def length_failures(self, state: dict) -> tuple[int, list[str]]:
        """len(encode(x)) must equal prefix_bits(x, [len(x)])[0]; checked once
        per run on the codewords the last pass wrote.  Returns (checks made,
        failures)."""
        from lzlab import read_bits_file

        checked = 0
        failures = []
        for name, coder, path, code, out in self._jobs(state):
            if not os.path.exists(code):
                continue
            checked += 1
            x = state["inputs"][name]
            got = len(read_bits_file(code))
            want = codec_coder(coder).prefix_bits(x, [len(x)])[0]
            if got != want:
                failures.append(f"{name} {' '.join(coder[1:])}: codeword {got} bits, prefix_bits {want}")
        return checked, failures


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "runners": RunnerWorkload([
        ("run_oscillation", OSCILLATION, True),
        ("run_deficiency", DEFICIENCY, True),
        # both runners name their CSV files after sources such as
        # "bernoulli(1/5)", whose "/" makes the write fail
        ("run_universality", UNIVERSALITY, False),
        ("run_robustness", ROBUSTNESS, False),
    ]),
    "codec": CodecWorkload(),
}
