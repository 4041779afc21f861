"""In-memory spans around lzlab's public calls, installed from outside the package.

``traced(tracer)`` swaps wrappers into lzlab's classes and modules for the
duration of a ``with`` block and restores the originals on exit.  Each
wrapper records one span (name, start, end, parent, pass id); a few also add
counts.  Module-level functions are patched in the namespace that calls them
(``experiments`` and ``construction`` import theirs by name, ``cli`` imports
the bitstream file helpers by name).

A span's self time is its duration minus the durations of its direct
children; per-layer times below are sums of self time.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_id = ""
        # work whose count needs a fresh parse, done after the timed pass
        self.deferred: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def run_deferred(self) -> None:
        for fn in self.deferred:
            fn(self)
        self.deferred.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of every span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return totals


def child_count(spans: list[Span], parent_prefix: str, child_names: set[str]) -> int:
    """Spans named in ``child_names`` whose direct parent's name starts with
    ``parent_prefix``."""
    return sum(
        1
        for s in spans
        if s.name in child_names
        and s.parent is not None
        and spans[s.parent].name.startswith(parent_prefix)
    )


def _wrap(tracer: Tracer, fn, name, after=None):
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count_only(tracer: Tracer, fn, after):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(tracer, args, result)
        return result

    return wrapper


def _stage_wrapper(tracer: Tracer, fn):
    """Construction.stage is mostly a cache hit; a span is opened only when
    the call builds at least one stage."""

    def wrapper(self, s):
        before = len(self.stages)
        if s < before:
            return fn(self, s)
        sid = tracer.open("construction.stage_build")
        try:
            return fn(self, s)
        finally:
            tracer.close(sid)
            tracer.count("construction.stages_built", len(self.stages) - before)

    return wrapper


def _patch_table(tracer: Tracer):
    """(owner, attribute, replacement factory) for every wrapped call."""
    from lzlab import cli, construction, experiments, lz
    from lzlab.ktmix import MixtureCoder
    from lzlab.lz import BlockCoder, LZ78Coder, LZWindowCoder
    from lzlab.sources import MarkovSource
    from lzlab.suffixauto import SuffixAutomaton

    def span(name, after=None):
        return lambda fn: _wrap(tracer, fn, name, after)

    def ktmix_bits(tracer, args, result):
        tracer.count("ktmix.coded_bits", len(args[1]))

    def ktmix_decoded(tracer, args, result):
        tracer.count("ktmix.coded_bits", len(result[0]))

    def sam_states(tracer, args, result):
        tracer.count("suffixauto.states", args[0].size)

    def window_phrases(tracer, args, result):
        tracer.count("lz.window_phrases", len(result))

    def lz78_phrases(tracer, args, result):
        tracer.count("lz.lz78_phrases", len(result.phrases))

    def lz78_prefix_phrases(tracer, args, result):
        # prefix_bits parses all of x without lz78_parse: count it again later
        x = args[1]
        tracer.deferred.append(lambda t: lz78_phrases(t, (x,), lz.lz78_parse(x)))

    def measure_den(tracer, args, result):
        key = "symbolic.den_bits_max"
        tracer.counts[key] = max(tracer.counts[key], result.denominator.bit_length())

    def alpha_bits(tracer, args, result):
        tracer.count("construction.alpha_bits", len(result.bits))

    def sampled(tracer, args, result):
        tracer.count("sources.sampled_bits", len(result))

    def file_bytes(tracer, args, result):
        tracer.count("bitio.bytes", os.path.getsize(args[0]))

    return [
        (LZ78Coder, "encode", span("lz.lz78_encode")),
        (LZ78Coder, "decode", span("lz.lz78_decode")),
        (LZ78Coder, "prefix_bits", span("lz.lz78_prefix", lz78_prefix_phrases)),
        (lz, "lz78_parse", lambda fn: _count_only(tracer, fn, lz78_phrases)),
        (LZWindowCoder, "encode", span("lz.window_encode")),
        (LZWindowCoder, "decode", span("lz.window_decode")),
        (LZWindowCoder, "prefix_bits", span("lz.window_prefix")),
        (LZWindowCoder, "_parse", lambda fn: _count_only(tracer, fn, window_phrases)),
        (BlockCoder, "encode", span("lz.block_encode")),
        (BlockCoder, "decode", span("lz.block_decode")),
        (BlockCoder, "prefix_bits", span("lz.block_prefix")),
        (SuffixAutomaton, "__init__", span("suffixauto.build", sam_states)),
        (MixtureCoder, "encode", span("ktmix.encode", ktmix_bits)),
        (MixtureCoder, "decode", span("ktmix.decode", ktmix_decoded)),
        (MixtureCoder, "prefix_bits", span("ktmix.prefix", ktmix_bits)),
        (MixtureCoder, "payload_code_len", span("ktmix.payload", ktmix_bits)),
        (MarkovSource, "sample", span("sources.sample", sampled)),
        (construction.Construction, "stage", lambda fn: _stage_wrapper(tracer, fn)),
        (construction.Construction, "prob_estimate", span("construction.prob_estimate")),
        (construction, "name_measure", span("symbolic.name_measure", measure_den)),
        (construction, "well_distributedness_mfold", span("symbolic.wd")),
        (construction, "build_alpha", span("construction.build_alpha", alpha_bits)),
        (experiments, "build_alpha", span("construction.build_alpha", alpha_bits)),
        (experiments, "monotone_length", span("deficiency.monotone_length")),
        (experiments, "probability_estimate", span("deficiency.probability_estimate")),
        (experiments, "write_atomic", span("experiments.write")),
        (experiments, "write_json_atomic", span("experiments.write")),
        (experiments, "run_oscillation", span("experiments.run")),
        (experiments, "run_robustness", span("experiments.run")),
        (experiments, "run_universality", span("experiments.run")),
        (experiments, "run_deficiency", span("experiments.run")),
        (cli, "read_bits_file", span("bitio.read", file_bytes)),
        (cli, "write_bits_file", span("bitio.write", file_bytes)),
        (cli, "main", lambda fn: _cli_main(tracer, fn)),
    ]


def _cli_main(tracer: Tracer, fn):
    def wrapper(argv=None):
        sid = tracer.open(f"cli.{argv[0]}" if argv else "cli.main")
        try:
            return fn(argv)
        finally:
            tracer.close(sid)

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the block; restore the originals after."""
    saved = []
    try:
        for owner, attr, factory in _patch_table(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


CODER_ENCODES = {"lz.lz78_encode", "lz.window_encode", "lz.block_encode", "ktmix.encode"}

SELF_TIME_METRICS = {
    "lz.window_prefix_s": "lz.window_prefix",
    "lz.window_encode_s": "lz.window_encode",
    "lz.window_decode_s": "lz.window_decode",
    "suffixauto.build_s": "suffixauto.build",
    "lz.lz78_prefix_s": "lz.lz78_prefix",
    "lz.lz78_encode_s": "lz.lz78_encode",
    "lz.lz78_decode_s": "lz.lz78_decode",
    "lz.block_prefix_s": "lz.block_prefix",
    "ktmix.prefix_s": "ktmix.prefix",
    "ktmix.payload_s": "ktmix.payload",
    "ktmix.encode_s": "ktmix.encode",
    "ktmix.decode_s": "ktmix.decode",
    "symbolic.name_measure_s": "symbolic.name_measure",
    "symbolic.wd_s": "symbolic.wd",
    "construction.stage_build_s": "construction.stage_build",
    "construction.build_alpha_s": "construction.build_alpha",
    "construction.prob_estimate_s": "construction.prob_estimate",
    "deficiency.monotone_length_s": "deficiency.monotone_length",
    "sources.sample_s": "sources.sample",
    "bitio.read_s": "bitio.read",
    "bitio.write_s": "bitio.write",
    "experiments.self_s": "experiments.run",
    "experiments.write_s": "experiments.write",
}

# counts, and one maximum (den_bits_max), kept by the wrappers
COUNTER_METRICS = [
    "lz.window_phrases",
    "suffixauto.states",
    "lz.lz78_phrases",
    "ktmix.coded_bits",
    "construction.stages_built",
    "construction.alpha_bits",
    "sources.sampled_bits",
    "bitio.bytes",
    "symbolic.den_bits_max",
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric from one traced run; 0 for layers not called."""
    spans = tracer.spans
    by_name = self_time_by_name(spans)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    out = {metric: by_name.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    for name in COUNTER_METRICS:
        out[name] = tracer.counts.get(name, 0)
    out["lz.lz78_encode_calls"] = calls["lz.lz78_encode"]
    out["lz.block_inner_encodes"] = child_count(spans, "lz.block_", CODER_ENCODES)
    out["symbolic.name_measure_calls"] = calls["symbolic.name_measure"]
    out["symbolic.wd_calls"] = calls["symbolic.wd"]
    ktmix_s = sum(by_name.get(f"ktmix.{k}", 0.0) for k in ("prefix", "payload", "encode", "decode"))
    bits = out["ktmix.coded_bits"]
    out["ktmix.us_per_bit"] = ktmix_s / bits * 1e6 if bits else 0.0
    out["cli.self_s"] = sum(t for n, t in by_name.items() if n.startswith("cli."))
    commands = calls["cli.encode"]
    encodes = child_count(spans, "cli.encode", CODER_ENCODES)
    out["cli.encodes_per_command"] = encodes / commands if commands else 0.0
    return out
