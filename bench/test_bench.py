"""Tests of the benchmark's own gate and span arithmetic.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gate import outdir_digest, pass_failures, red_checks  # noqa: E402
from tracer import Span, Tracer, child_count, layer_metrics, self_time_by_name, self_times, traced  # noqa: E402
from workloads import CodecWorkload  # noqa: E402


def _codec_state(tmp_path):
    from lzlab import bernoulli, write_bits_file
    from fractions import Fraction

    x = bernoulli(Fraction(1, 2)).sample(7, 600)
    path = str(tmp_path / "fair.bits")
    write_bits_file(path, x)
    return {"tmpdir": str(tmp_path), "inputs": {"fair": x}, "paths": {"fair": path}}


def test_gate_flags_flipped_codeword_bit(tmp_path):
    from lzlab import cli, read_bits_file, write_bits_file

    workload = CodecWorkload()
    state = _codec_state(tmp_path)
    res = workload.run_pass(state, 0)
    assert res.failures == [] and res.attempted == 10
    assert pass_failures({}, "codec", 1, 0, res.digest, [], None) == []

    _, coder, _, code, out = next(workload._jobs(state))
    bits = read_bits_file(code)
    flipped = bits[:-3] + ("1" if bits[-3] == "0" else "0") + bits[-2:]
    write_bits_file(code, flipped)
    errors = {}
    try:
        cli.main(["decode", *coder, "--in", code, "--out", out])
    except ValueError as exc:  # MalformedInput
        errors[out] = repr(exc)
    digest, failures = workload.check(state, errors)
    assert any("fair lz78" in f for f in failures)
    assert pass_failures({}, "codec", 1, 0, digest, [], res.digest)


def test_gate_flags_edited_summary(tmp_path):
    from lzlab.experiments import run_deficiency

    cfg = {"seed": 3, "alpha_checkpoints": [64], "control_checkpoints": [64], "control_n": 64}
    summary = run_deficiency(cfg, str(tmp_path))
    digest = outdir_digest(str(tmp_path))
    reds = red_checks([summary])
    pin = {"index": 0, "digest": digest, "red_checks": reds}
    pinned = {"deficiency": {"required_red": [], "seeds": {"3": {"passes": [pin]}}}}
    assert pass_failures(pinned, "deficiency", 3, 0, digest, reds, None) == []

    path = tmp_path / "deficiency_summary.json"
    edited = json.loads(path.read_text())
    edited["alpha_curve"][0]["dhat"] += 1e-9
    path.write_text(json.dumps(edited, indent=2, sort_keys=True) + "\n")
    assert pass_failures(pinned, "deficiency", 3, 0, outdir_digest(str(tmp_path)), reds, None)

    edited["checks"][0]["passed"] = not edited["checks"][0]["passed"]
    assert red_checks([edited]) != reds
    assert pass_failures(pinned, "deficiency", 3, 0, digest, red_checks([edited]), None)


def test_gate_requires_documented_reds_and_repeatable_digests():
    pinned = {"markov": {"required_red": ["robustness: 7b"], "seeds": {}}}
    assert pass_failures(pinned, "markov", 5, 0, "aa", ["robustness: 7b"], "aa") == []
    assert pass_failures(pinned, "markov", 5, 0, "aa", [], "aa")
    assert pass_failures(pinned, "markov", 5, 0, "ab", ["robustness: 7b"], "aa")


def test_self_time_on_nested_spans():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3]; a second B is a root
    spans = [
        Span("A", 0.0, 10.0, None, "p"),
        Span("B", 1.0, 4.0, 0, "p"),
        Span("C", 2.0, 3.0, 1, "p"),
        Span("D", 5.0, 9.0, 0, "p"),
        Span("B", 11.0, 12.5, None, "p"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert self_time_by_name(spans) == {"A": 3.0, "B": 3.5, "C": 1.0, "D": 4.0}
    assert sum(self_times(spans)) == 10.0 + 1.5  # self times tile the root spans
    assert child_count(spans, "A", {"B", "D"}) == 2
    assert child_count(spans, "B", {"C"}) == 1


def test_traced_wraps_and_restores():
    from lzlab import BlockCoder, LZ78Coder
    from lzlab.experiments import build_alpha

    original_encode = LZ78Coder.__dict__["encode"]
    tracer = Tracer()
    with traced(tracer):
        assert LZ78Coder.__dict__["encode"] is not original_encode
        word = "0110" * 64
        code = BlockCoder(64, LZ78Coder()).encode(word)
        assert BlockCoder(64, LZ78Coder()).decode(code)[0] == word
    assert LZ78Coder.__dict__["encode"] is original_encode
    from lzlab import experiments

    assert experiments.build_alpha is build_alpha
    metrics = layer_metrics(tracer)
    assert metrics["lz.block_inner_encodes"] == 4
    assert metrics["lz.lz78_encode_calls"] == 4
    assert metrics["lz.lz78_phrases"] > 0
    assert metrics["lz.lz78_decode_s"] > 0
