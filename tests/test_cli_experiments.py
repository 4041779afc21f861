import csv
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from lzlab.bitio import read_bits_file, write_bits_file
from lzlab.cli import main
from lzlab.construction import Construction, ConstructionParams, StageFailure
from lzlab.experiments import (
    CSV_HEADER,
    DEFICIENCY_DEFAULTS,
    OSCILLATION_DEFAULTS,
    RUNNERS,
    merge_config,
    parallel_map,
    run_deficiency,
    run_experiment,
    run_robustness,
    run_universality,
)
from lzlab.deficiency import deficiency_curve
from lzlab.lz import LZ78Coder, ratio_curve
from lzlab.sources import MarkovSource, bernoulli, flip_chain, robustness_experiment

# the ratio-curve file of test_ratio_curve_csv_schema, byte for byte
RATIO_CURVE_CSV_SHA256 = "5657af3e7e3ae23b99b80ddff04a0aef8fce0e9cd282c9b893a3f40b89e20f03"
# the files and stdout text the mixture, deficiency and theorem1 alpha tests
# below write, byte for byte
MIXTURE_CSV_SHA256 = "4741738860d063b8ada174db3b19961ca204cc297071596a49424d0b1d7cae58"
MIXTURE_KMAX0_STDOUT_SHA256 = "569cbec1c1276bbf58059fd06c4832d30c1bdd117a3a2cf66b2e95ad88fd2e56"
DEFICIENCY_LZ78_CSV_SHA256 = "047e403d5c3e07711b0d31fd806b7600df6951a321b26455c62896ad53d148e5"
DEFICIENCY_MIXTURE_CSV_SHA256 = "be304dc770dd6f1fb0b12ce9f7c9df57024e2a66917caea9afcba1d3d7b84bee"
ALPHA_BITS_SHA256 = "235777f49f7756c5e8fbb83daebcd412acf07c1560ad883861639e9195280242"
ALPHA_TRACE_SHA256 = "d1e3343546afbabb7b581c16f78b1cf4890558733059cd0448500b78a0e212ad"
# the stdout text of `gadget stats` and `theorem1 build`, well-distributedness
# included, byte for byte: wd "none" at stage 0, "exact" at stages 2 and 4
# and "skipped" past stage 6
GADGET_STATS_STDOUT_SHA256 = {
    ("0", "4", "2,2"): "989273b2e8cdd901bac36b4a5b4ab3c30fc7057143ab44be9b40bc4a75b7ef51",
    ("2", "4", "2,2"): "2867832757100c22ec3b10e0ab077a3ef1d1aba27b56b454e444b5b036926a56",
    ("4", "4", "2,2,2,2"): "1377d7ab35dd84f71766108b2212cb9d9120de950b8ee9fd29c80fc477ff35ac",
    ("7", "16", "4,4,4,4,2,2,2,2,2"): "155d22703b82ba921f727219ad18811dec7dea0dca01157822ca14e30217ce1f",
}
THEOREM1_BUILD_STDOUT_SHA256 = "da2e8b31d5be1c3e50bb95f236b3763dd169dfd3d77f072c891d0f9c3d01bdf8"
# `gadget dump --h0 4 --folds 2,2` at stages 0, 1 and 2, with node ids
# renamed n0, n1, ... in order of first appearance (they are id()-based)
GADGET_DUMP_SHA256 = {
    "0": "047490cb86cffc784ff68d34ede15c2d923a2af5773994e5e957004a4176008c",
    "1": "8eda3e12dfd4a6b84b36f5d1df1bed7f804d839e74d6bf4cb8bf1420b9243e64",
    "2": "c921c09373fe38ed13cc3c49ff0773c24e798f7c6c9064ced1439ede52de3827",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_encode_decode_roundtrip_via_cli(tmp_path):
    rng = random.Random(1)
    word = "".join(rng.choice("01") for _ in range(2000))
    src = tmp_path / "w.bits"
    enc = tmp_path / "w.lz"
    dec = tmp_path / "w.out"
    write_bits_file(str(src), word)
    main(["encode", "--coder", "lz78", "--in", str(src), "--out", str(enc)])
    main(["decode", "--coder", "lz78", "--in", str(enc), "--out", str(dec)])
    assert read_bits_file(str(dec)) == word
    main(["encode", "--coder", "lzwin", "--window", "64", "--in", str(src), "--out", str(enc)])
    main(["decode", "--coder", "lzwin", "--window", "64", "--in", str(enc), "--out", str(dec)])
    assert read_bits_file(str(dec)) == word


def test_ratio_curve_csv_schema(tmp_path):
    rng = random.Random(2)
    word = "".join(rng.choice("01") for _ in range(4096))
    src = tmp_path / "w.bits"
    out = tmp_path / "curve.csv"
    write_bits_file(str(src), word)
    main(["ratio-curve", "--coder", "block", "--block", "256", "--stride", "1024",
          "--in", str(src), "--csv", str(out)])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5
    assert int(rows[1][0]) == 1024
    # the csv module's text: comma-separated, CRLF-terminated, ratios to 8 places
    data = out.read_bytes()
    assert data == "".join(",".join(row) + "\r\n" for row in rows).encode()
    assert all(len(row[2].split(".")[1]) == 8 for row in rows[1:])
    assert hashlib.sha256(data).hexdigest() == RATIO_CURVE_CSV_SHA256


def test_mixture_cli_csv(tmp_path, capsys):
    rng = random.Random(3)
    word = "".join("1" if rng.random() < 0.2 else "0" for _ in range(4096))
    src = tmp_path / "w.bits"
    out = tmp_path / "mix.csv"
    write_bits_file(str(src), word)
    main(["mixture", "--kmax", "3", "--stride", "1024", "--in", str(src), "--csv", str(out)])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "neg_log_rho_per_symbol", "code_bits"]
    rate = float(rows[-1][1])
    assert 0.6 < rate < 0.9  # near h(0.2) = 0.722
    assert _sha256(out.read_bytes()) == MIXTURE_CSV_SHA256
    capsys.readouterr()
    # without --csv the same text goes to stdout
    main(["mixture", "--kmax", "0", "--stride", "1000", "--in", str(src)])
    assert _sha256(capsys.readouterr().out.encode()) == MIXTURE_KMAX0_STDOUT_SHA256


def test_gadget_stats_and_dump(tmp_path, capsys):
    main(["gadget", "stats", "--stage", "1", "--h0", "4", "--folds", "2,2"])
    out = capsys.readouterr().out
    info = json.loads(out)
    assert info["stage"] == 1
    assert info["fold_count"] == 2
    dump = tmp_path / "g.json"
    main(["gadget", "dump", "--stage", "1", "--h0", "4", "--folds", "2,2", "--out", str(dump)])
    payload = json.loads(dump.read_text())
    nodes = payload["pi"]["nodes"]
    assert any(n["kind"] == "mfold" for n in nodes.values())
    assert any("base_columns" in n for n in nodes.values())
    assert capsys.readouterr().out == f"wrote gadget dump to {dump}\n"
    for (stage, h0, folds), want in GADGET_STATS_STDOUT_SHA256.items():
        main(["gadget", "stats", "--stage", stage, "--h0", h0, "--folds", folds])
        assert _sha256(capsys.readouterr().out.encode()) == want, stage


def _canonical_dump(text: str) -> bytes:
    """The dump with its id()-based node ids renamed in order of first appearance."""
    payload = json.loads(text)["pi"]
    ids = {nid: f"n{i}" for i, nid in enumerate(payload["nodes"])}
    nodes = {}
    for nid, entry in payload["nodes"].items():
        entry = dict(entry)
        for key in ("child", "lower", "upper"):
            if key in entry:
                entry[key] = ids[entry[key]]
        if "children" in entry:
            entry["children"] = [ids[c] for c in entry["children"]]
        nodes[ids[nid]] = entry
    return json.dumps({"pi": {"root": ids[payload["root"]], "nodes": nodes}}).encode()


def test_gadget_dump_pinned(capsys):
    for stage, want in GADGET_DUMP_SHA256.items():
        main(["gadget", "dump", "--stage", stage, "--h0", "4", "--folds", "2,2"])
        assert _sha256(_canonical_dump(capsys.readouterr().out)) == want, stage


def test_gadget_wd_prints_value(capsys):
    main(["gadget", "wd", "--stage", "1", "--h0", "2", "--folds", "2,2"])
    assert capsys.readouterr().out == "stage 1: wd = 34334213/67108864 (0.511620)\n"


def test_gadget_rejects_stages_without_a_fold_count():
    # stage 0 has no fold base to measure well-distributedness against, and
    # a negative stage is no stage at all: each is a one-line error
    for argv in (
        ["wd", "--stage", "0"],
        ["wd", "--stage", "-1"],
        ["stats", "--stage", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["gadget", *argv, "--h0", "4", "--folds", "2,2"])
        assert isinstance(exc.value.code, str) and exc.value.code.startswith("stage "), argv
    with pytest.raises(StageFailure):
        Construction(ConstructionParams()).stage(-1)


def test_gadget_commands_print_integers_past_the_digit_limit(tmp_path, capsys):
    # stage 6 rationals have more than the interpreter's 4,300-digit default
    # for int-to-str conversion; each command must print them in full and
    # leave the limit as it found it
    limit = sys.get_int_max_str_digits()
    flags = ["--stage", "6", "--h0", "16", "--folds", "4,4,4,4,2,2,2,2,2"]
    main(["gadget", "wd", *flags])
    num = capsys.readouterr().out.split("wd = ")[1].split("/")[0]
    assert len(num) > 4300
    main(["gadget", "stats", *flags])
    info = json.loads(capsys.readouterr().out)
    assert len(info["pi"]["columns"]) > 4300
    assert len(info["wd_value"]) > 4300
    dump = tmp_path / "g.json"
    main(["gadget", "dump", *flags, "--out", str(dump)])
    nodes = json.loads(dump.read_text())["pi"]["nodes"]
    assert max(len(n["columns"]) for n in nodes.values()) > 4300
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--coder", "mixture", "--kmax", "0"], "mixture0"),
        (["--coder", "mixture"], "mixture8"),
        (["--coder", "block", "--block", "0"], ValueError),
        (["--coder", "block", "--block", "-3"], ValueError),
        (["--coder", "block", "--block", "64"], "block64-lz78"),
        (["--coder", "lzwin", "--window", "-5"], ValueError),
        (["--coder", "lzwin", "--window", "0"], "lzwin"),
        (["--coder", "lzwin", "--window", "16"], "lzwin16"),
    ],
)
def test_coder_flags_taken_as_given(tmp_path, capsys, flags, name):
    src = tmp_path / "w.bits"
    write_bits_file(str(src), "0110" * 64)
    argv = ["encode", *flags, "--in", str(src), "--out", str(tmp_path / "w.code")]
    if name is ValueError:  # the coder rejects the flag, and main exits with its message
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    else:
        main(argv)
        assert capsys.readouterr().out.startswith(f"{name}: 256 symbols -> ")


def test_theorem1_cli_flow(tmp_path, capsys):
    main(["theorem1", "heights", "--sigma", "id", "--r", "1/256", "--stages", "3"])
    assert capsys.readouterr().out.split() == ["1", "23", "46", "70"]
    main(["theorem1", "build", "--h0", "16", "--folds", "4,4,4,4,2,2,2,2,2", "--stages", "7"])
    assert _sha256(capsys.readouterr().out.encode()) == THEOREM1_BUILD_STDOUT_SHA256
    out = tmp_path / "alpha.bits"
    trace = tmp_path / "alpha.json"
    sched = json.dumps(
        [
            {"kind": "sparse", "stage": 1, "parts": 4},
            {"kind": "incompressible", "stage": 2},
        ]
    )
    main(["theorem1", "alpha", "--h0", "16", "--folds", "4,4,4",
          "--schedule", sched, "--initial", "24", "--seed", "5",
          "--out", str(out), "--trace", str(trace)])
    bits = read_bits_file(str(out))
    meta = json.loads(trace.read_text())
    assert meta["length"] == len(bits)
    assert len(meta["fragments"]) == 3
    assert _sha256(out.read_bytes()) == ALPHA_BITS_SHA256
    assert _sha256(trace.read_bytes()) == ALPHA_TRACE_SHA256
    sample = tmp_path / "s.bits"
    main(["theorem1", "sample", "--h0", "16", "--folds", "4,4,4",
          "--seed", "9", "--len", "500", "--out", str(sample)])
    assert len(read_bits_file(str(sample))) == 500


def test_stage_failures_are_one_line_errors(tmp_path, capsys):
    # past the fold schedule, every command that builds stages stops with
    # the StageFailure message as its exit message, not a traceback
    src = tmp_path / "w.bits"
    write_bits_file(str(src), "".join(random.Random(4).choice("01") for _ in range(2048)))
    flags = ["--h0", "4", "--folds", "2"]
    for argv in (
        ["theorem1", "build", "--stages", "3", *flags],
        ["theorem1", "alpha", *flags, "--initial", "8", "--out", str(tmp_path / "a.bits")],
        ["theorem1", "sample", *flags, "--len", "500", "--out", str(tmp_path / "s.bits")],
        ["deficiency", "--measure", "theorem1", *flags, "--in", str(src), "--stride", "1024"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "fold schedule has no entry for stage 2", argv
    # build prints the stages it could build before it stops
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["stage 0", "stage 1"]
    assert not (tmp_path / "a.bits").exists() and not (tmp_path / "s.bits").exists()


def test_short_sigma_table_is_a_one_line_error(tmp_path, capsys):
    table = tmp_path / "sigma.json"
    table.write_text("[0, 1, 2, 3]")
    for argv in (
        ["theorem1", "heights", "--stages", "3"],
        ["theorem1", "build", "--mode", "faithful", "--h0", "2", "--stages", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--sigma", str(table)])
        assert exc.value.code == "sigma table has no entry for n=4", argv
    # build prints stage 0 before the table runs out
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["stage 0"]
    # a decreasing table is a one-line error too
    table.write_text("[0, 5, 3, 4, 9, 20, 40, 80]")
    with pytest.raises(SystemExit) as exc:
        main(["theorem1", "heights", "--sigma", str(table), "--stages", "2"])
    assert exc.value.code == "sigma must be nondecreasing"


def test_theorem1_rejects_negative_stages(capsys):
    for action in ("build", "heights"):
        with pytest.raises(SystemExit) as exc:
            main(["theorem1", action, "--sigma", "id", "--stages", "-2"])
        assert exc.value.code == "--stages -2 is negative", action
    assert capsys.readouterr().out == ""


def test_rejected_input_is_a_one_line_error(tmp_path, capsys):
    # malformed codewords, invalid parameters and missing files end in the
    # exception's message as the exit message, not a traceback, and write
    # no output
    seven = tmp_path / "seven.bits"
    write_bits_file(str(seven), "0110101")
    out = str(tmp_path / "o.bits")
    cases = [
        (["decode", "--coder", coder, "--in", str(seven), "--out", out], message)
        for coder, message in (
            ("lz78", "input exhausted inside delimited word"),
            ("lzwin", "input exhausted inside delimited word"),
            ("block", "inner block decoded to wrong length"),
            ("mixture", "input exhausted inside delimited word"),
        )
    ]
    cases += [
        (["theorem1", "build", "--r", "1/128", "--h0", "4", "--stages", "1"],
         "entropy bound -3 r log2 r exceeds epsilon"),
        (["theorem1", "build", "--h0", "0", "--stages", "1"], "h0 must be >= 1"),
        (["theorem1", "build", "--folds", "2,x", "--stages", "1"],
         "invalid literal for int() with base 10: 'x'"),
        (["source", "entropy", "--source", "bernoulli:3/2"], "transition probabilities must lie in [0, 1]"),
        (["theorem1", "sample", "--h0", "16", "--folds", "4,4,4", "--len", "0", "--out", out], "--len 0 is below 1"),
        (["theorem1", "sample", "--h0", "16", "--folds", "4,4,4", "--len", "-5", "--out", out], "--len -5 is below 1"),
        (["source", "sample", "--source", "flip:1/10", "--len", "-5", "--out", out], "--len -5 is below 1"),
        (["source", "robustness", "--source", "flip:1/10", "--len", "0"], "--len 0 is below 1"),
        (["encode", "--coder", "lz78", "--in", str(tmp_path / "missing.bits"), "--out", out],
         f"[Errno 2] No such file or directory: {str(tmp_path / 'missing.bits')!r}"),
    ]
    # a stride outside 1 to the word's length; mixture's --stride 0 means
    # n // 32, which is 1 here
    verbs = {
        "ratio-curve": ["ratio-curve", "--coder", "lz78"],
        "mixture": ["mixture"],
        "deficiency": ["deficiency", "--measure", "bernoulli:1/2"],
    }
    cases += [
        ([*argv, "--in", str(seven), "--stride", str(stride), "--csv", out], f"stride {stride} is not in [1, n = 7]")
        for verb, argv in verbs.items()
        for stride in (0, -5, 8)
        if (verb, stride) != ("mixture", 0)
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message, argv
    assert capsys.readouterr().out == "" and not os.path.exists(out)


def test_malformed_specs_are_one_line_errors(tmp_path, capsys):
    # zero denominators, schedule items without their keys and spec files
    # of the wrong shape end in one line that names the text, key or file
    out = str(tmp_path / "o.bits")
    obj, rowless, listed = (tmp_path / name for name in ("obj.json", "rowless.json", "listed.json"))
    obj.write_text('{"1": 1}')
    rowless.write_text('{"order": 0}')
    listed.write_text("[0, 1]")
    alpha = ["theorem1", "alpha", "--h0", "16", "--folds", "4,4,4", "--initial", "24", "--out", out]
    cases = [
        (["theorem1", "build", "--r", "1/0", "--stages", "1"], "zero denominator in '1/0'"),
        (["source", "entropy", "--source", "bernoulli:1/0"], "zero denominator in '1/0'"),
        ([*alpha, "--schedule", '[{"stage": 1}]'], "schedule item {'stage': 1} has no 'kind'"),
        ([*alpha, "--schedule", '[{"kind": "sparse"}]'], "schedule item {'kind': 'sparse'} has no 'stage'"),
        ([*alpha, "--schedule", "[3]"], "schedule item 3 is not an object"),
        ([*alpha, "--schedule", '{"kind": "sparse"}'], "schedule {'kind': 'sparse'} is not a list"),
        ([*alpha, "--schedule", '[{"kind": "sparse", "stage": 0}]'],
         "schedule item {'kind': 'sparse', 'stage': 0} needs a stage and parts of at least 1"),
        (["theorem1", "heights", "--sigma", str(obj), "--stages", "2"],
         f"{obj}: a sigma table is a JSON list of integers"),
    ]
    cases += [
        (["source", "entropy", "--source", f"markov:{path}"],
         f"{path}: a Markov spec is a JSON object with 'order' and a 'rows' object")
        for path in (rowless, listed)
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message, argv
    config = tmp_path / "cfg.json"
    for cfg, message in (
        ({"experiment": "robustness", "flip_p": "1/0"}, "zero denominator in '1/0'"),
        ({"experiment": "oscillation", "schedule": [{"stage": 3}]}, "schedule item {'stage': 3} has no 'kind'"),
    ):
        config.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "run", str(config), "--outdir", str(tmp_path / "res")])
        assert exc.value.code == message, cfg
    assert capsys.readouterr().out == "" and not os.path.exists(out)
    assert not (tmp_path / "res").exists()


def test_deficiency_cli(tmp_path, capsys):
    src = tmp_path / "w.bits"
    out = tmp_path / "d.csv"
    rng = random.Random(8)
    write_bits_file(str(src), "".join(rng.choice("01") for _ in range(4096)))
    main(["deficiency", "--measure", "bernoulli:1/2", "--code", "lz78",
          "--in", str(src), "--stride", "1024", "--csv", str(out)])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "dhat"]
    assert len(rows) == 5
    assert _sha256(out.read_bytes()) == DEFICIENCY_LZ78_CSV_SHA256
    mix = ["deficiency", "--measure", "flip:1/10", "--code", "mixture", "--kmax", "2",
           "--in", str(src), "--stride", "1024"]
    main(mix + ["--csv", str(out)])
    assert _sha256(out.read_bytes()) == DEFICIENCY_MIXTURE_CSV_SHA256
    capsys.readouterr()
    # without --csv the same text goes to stdout
    main(mix)
    assert _sha256(capsys.readouterr().out.encode()) == DEFICIENCY_MIXTURE_CSV_SHA256


def test_source_cli(tmp_path, capsys):
    main(["source", "entropy", "--source", "flip:1/10"])
    assert "0.4689" in capsys.readouterr().out
    rows_file = tmp_path / "markov.json"
    rows_file.write_text(json.dumps({"order": 1, "rows": {"0": "1/10", "1": "9/10"}}))
    main(["source", "entropy", "--source", f"markov:{rows_file}"])
    assert "0.4689" in capsys.readouterr().out
    out = tmp_path / "s.bits"
    main(["source", "sample", "--source", "bernoulli:1/4", "--seed", "7", "--len", "2000",
          "--out", str(out)])
    word = read_bits_file(str(out))
    assert len(word) == 2000
    assert 0.15 < word.count("1") / 2000 < 0.35


def test_source_robustness_cli_prints_the_experiment(capsys):
    main(["source", "robustness", "--source", "flip:1/10", "--seed", "3", "--len", "2048",
          "--blocks", "64,256"])
    lines = capsys.readouterr().out.splitlines()
    source = flip_chain(Fraction(1, 10))
    full, block_curves = robustness_experiment(source, LZ78Coder(), 2048, [64, 256], seed=3)
    assert lines == [
        f"flip(1/10): H = {source.entropy_rate():.6f}",
        f"full-sequence final ratio: {float(full[-1][2]):.6f}",
        f"block N=64: final ratio {float(block_curves[64][-1][2]):.6f}",
        f"block N=256: final ratio {float(block_curves[256][-1][2]):.6f}",
    ]


def test_source_robustness_cli_reports_the_whole_word(capsys):
    # the default stride 1000 // 32 = 31 does not divide 1000: the curves
    # still end at n, so the final ratios are those of all 1000 bits
    main(["source", "robustness", "--source", "flip:1/10", "--seed", "3", "--len", "1000",
          "--blocks", "64,256"])
    assert capsys.readouterr().out.splitlines()[1:] == [
        "full-sequence final ratio: 0.793000",
        "block N=64: final ratio 1.325000",
        "block N=256: final ratio 1.025000",
    ]


def test_experiment_configs_roundtrip_and_determinism(tmp_path):
    # a scaled-down oscillation config: exercises the whole pipeline twice
    cfg = merge_config(
        OSCILLATION_DEFAULTS,
        {
            "h0": 16,
            "fold_schedule": [4, 4, 4, 4, 2, 2],
            "initial_length": 24,
            "schedule": [
                {"kind": "sparse", "stage": 1, "parts": 8},
                {"kind": "incompressible", "stage": 2},
                {"kind": "sparse", "stage": 3, "parts": 3},
                {"kind": "incompressible", "stage": 4},
            ],
            "stride": 512,
            "min_length": 1000,
            "block_len": 512,
        },
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    s1 = run_experiment(cfg, str(out1))
    s2 = run_experiment(cfg, str(out2))
    assert s1["alpha_length"] == s2["alpha_length"]
    for name in sorted(os.listdir(out1)):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    summary = json.loads((out1 / "oscillation_summary.json").read_text())
    assert summary["config"]["h0"] == 16  # config echo


def test_experiment_cli_runs_small_deficiency(tmp_path, capsys):
    cfg = merge_config(
        DEFICIENCY_DEFAULTS,
        {
            "h0": 16,
            "schedule": [
                {"kind": "sparse", "stage": 1, "parts": 8},
                {"kind": "incompressible", "stage": 2},
            ],
            "initial_length": 24,
            "alpha_checkpoints": [256, 384],
            "control_checkpoints": [1500],
            "control_n": 1500,
        },
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    main(["experiment", "run", str(path), "--outdir", str(tmp_path / "res")])
    out = capsys.readouterr().out
    assert "deficiency" in out
    assert (tmp_path / "res" / "deficiency_summary.json").exists()


def test_experiment_cli_rejects_robustness_strides_outside_n(tmp_path):
    # every entry point that turns a stride into points rejects a stride of
    # 0, one below 0 and one past n with a one-line error, as does robustness
    # at n below its default stride of 65536; the small oscillation trace
    # has 1976 bits
    def one_line(message):
        return isinstance(message, str) and message.startswith("stride ") and "\n" not in message

    path = tmp_path / "cfg.json"
    configs = [("robustness", {"n": 1000})]
    for name, n, cfg in (
        ("oscillation", 1976, SMALL_RUNNER_CONFIGS["oscillation"]),
        ("universality", 2048, SMALL_RUNNER_CONFIGS["universality"]),
        ("robustness", 1000, {"n": 1000}),
    ):
        configs += [(name, dict(cfg, stride=stride)) for stride in (0, -5, n + 1)]
    for name, cfg in configs:
        path.write_text(json.dumps({"experiment": name, **cfg}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "run", str(path)])
        assert one_line(exc.value.code), (name, cfg)
    word = "0110101"
    for stride in (0, -5, 8):
        for curve in (lambda: ratio_curve(LZ78Coder(), word, stride),
                      lambda: deficiency_curve(word, bernoulli(Fraction(1, 2)), stride=stride)):
            with pytest.raises(ValueError) as exc:
                curve()
            assert one_line(str(exc.value)), stride


def test_source_named_runners_write_outdir(tmp_path):
    # source names such as bernoulli(1/2) contain '/', which becomes '_'
    run_robustness({"n": 4096, "stride": 1024, "block_lengths": [64]}, outdir=str(tmp_path / "rob"))
    assert sorted(os.listdir(tmp_path / "rob")) == [
        "robustness_bernoulli(1_2)_block64.csv",
        "robustness_bernoulli(1_2)_full.csv",
        "robustness_flip(1_10)_block64.csv",
        "robustness_flip(1_10)_full.csv",
        "robustness_summary.json",
    ]
    run_universality({"mixture_n": 500, "lz_n": 2048, "stride": 1024}, outdir=str(tmp_path / "uni"))
    assert sorted(os.listdir(tmp_path / "uni")) == [
        "universality_bernoulli(1_5)_lz78.csv",
        "universality_flip(1_10)_lz78.csv",
        "universality_markov2_lz78.csv",
        "universality_summary.json",
    ]
    for sub in ("rob", "uni"):
        for name in os.listdir(tmp_path / sub):
            if name.endswith(".csv"):
                with open(tmp_path / sub / name, newline="") as fh:
                    assert next(csv.reader(fh)) == CSV_HEADER
            else:
                assert "checks" in json.loads((tmp_path / sub / name).read_text())


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment({"experiment": "nope"})


# every runner at a config small enough to run twice in a few seconds
SMALL_RUNNER_CONFIGS = {
    "oscillation": {
        "h0": 16,
        "fold_schedule": [4, 4, 4, 4, 2, 2],
        "initial_length": 24,
        "schedule": [
            {"kind": "sparse", "stage": 1, "parts": 8},
            {"kind": "incompressible", "stage": 2},
            {"kind": "sparse", "stage": 3, "parts": 3},
        ],
        "stride": 512,
        "min_length": 1000,
        "block_len": 512,
    },
    "deficiency": {
        "h0": 16,
        "schedule": [
            {"kind": "sparse", "stage": 1, "parts": 8},
            {"kind": "incompressible", "stage": 2},
        ],
        "initial_length": 24,
        "alpha_checkpoints": [256, 384],
        "control_checkpoints": [500, 1000],
        "control_n": 1000,
    },
    "universality": {"mixture_n": 500, "lz_n": 2048, "stride": 1024},
    "robustness": {"n": 4096, "stride": 1024, "block_lengths": [64, 256]},
}


def _worker_pid(_job) -> int:
    return os.getpid()


def _assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_on_cpus(monkeypatch, cpus, fn, *args):
    """fn(*args) with the CPUs this process may use reported as ``cpus``."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        return fn(*args)


def test_parallel_map_runs_jobs_in_order_in_workers(monkeypatch):
    jobs = [(-3,), (1,), (-2,), (5,), (-4,)]
    assert _run_on_cpus(monkeypatch, {0, 1}, parallel_map, abs, jobs) == [3, 1, 2, 5, 4]
    pids = _run_on_cpus(monkeypatch, {0, 1}, parallel_map, _worker_pid, [(0,), (1,)])
    assert os.getpid() not in pids
    assert _run_on_cpus(monkeypatch, {0}, parallel_map, _worker_pid, [(0,), (1,)]) == [os.getpid()] * 2
    assert _run_on_cpus(monkeypatch, {0, 1}, parallel_map, abs, []) == []
    # a process running another thread is not forked
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        pids = _run_on_cpus(monkeypatch, {0, 1}, parallel_map, _worker_pid, [(0,), (1,)])
    finally:
        release.set()
        waiter.join(30)
    assert pids == [os.getpid()] * 2 and not waiter.is_alive()
    _assert_no_child_left()


@pytest.mark.parametrize("name", sorted(SMALL_RUNNER_CONFIGS))
def test_runners_identical_on_one_and_two_cpus(monkeypatch, tmp_path, name):
    outputs = []
    for cpus in ({0}, {0, 1}):
        outdir = tmp_path / str(len(cpus))
        cfg = dict(SMALL_RUNNER_CONFIGS[name], seed=11)
        summary = _run_on_cpus(monkeypatch, cpus, RUNNERS[name], cfg, str(outdir))
        _assert_no_child_left()
        files = {f: (outdir / f).read_bytes() for f in sorted(os.listdir(outdir))}
        outputs.append((json.dumps(summary, sort_keys=True), files))
    assert outputs[0] == outputs[1]
    assert f"{name}_summary.json" in outputs[0][1]


def test_runners_reject_words_too_short_to_measure(monkeypatch):
    # the small deficiency trace has 440 bits and its control word 1000
    deficiency = SMALL_RUNNER_CONFIGS["deficiency"]
    with pytest.raises(ValueError, match=r"alpha_checkpoints \[256, 99999\] do not all lie within the 440-bit word"):
        run_deficiency(dict(deficiency, alpha_checkpoints=[256, 99999]))
    with pytest.raises(ValueError, match=r"control_checkpoints \[500, 1001\] do not all lie within the 1000-bit word"):
        run_deficiency(dict(deficiency, control_checkpoints=[500, 1001]))
    universality = SMALL_RUNNER_CONFIGS["universality"]
    with pytest.raises(ValueError, match="mixture_n 0 must be at least 1"):
        run_universality(dict(universality, mixture_n=0))
    with pytest.raises(ValueError, match=r"stride 1024 is not in \[1, n = 0\]"):
        run_universality(dict(universality, lz_n=0))
    # an empty list of points measures nothing; robustness says so before
    # it samples
    for key in ("alpha_checkpoints", "control_checkpoints"):
        with pytest.raises(ValueError, match=f"^{key} is empty$"):
            run_deficiency(dict(deficiency, **{key: []}))
    monkeypatch.setattr(MarkovSource, "sample", None)
    with pytest.raises(ValueError, match="^block_lengths is empty$"):
        run_robustness(dict(SMALL_RUNNER_CONFIGS["robustness"], block_lengths=[]))


def test_failed_job_raises_as_in_the_serial_path(monkeypatch):
    for cpus in ({0}, {0, 1}):
        with pytest.raises(ValueError):
            _run_on_cpus(monkeypatch, cpus, parallel_map, int, [("1",), ("x",), ("3",)])
        _assert_no_child_left()
        # a block length of 0 fails inside robustness's per-source job
        with pytest.raises(ValueError):
            _run_on_cpus(monkeypatch, cpus, run_robustness,
                         {"n": 1024, "stride": 512, "block_lengths": [0]})
        _assert_no_child_left()


def _exit_with(status: int) -> int:
    if status:
        os._exit(status)
    return status


def _sleep_then_fail(seconds: float, error: str | None) -> float:
    time.sleep(seconds)
    if error:
        raise ValueError(error)
    return seconds


def _raise_unpicklable() -> None:
    raise ValueError(threading.Lock())


def _interrupt_caller(interrupt: bool) -> None:
    if interrupt:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(30)


def test_parallel_map_failures_leave_no_child(monkeypatch):
    def fails(fn, jobs, error, match):
        with pytest.raises(error, match=match) as info:
            _run_on_cpus(monkeypatch, {0, 1}, parallel_map, fn, jobs)
        _assert_no_child_left()
        return info.value

    fails(_exit_with, [(0,), (3,)], RuntimeError, "^a parallel_map child exited with status 3 before it replied$")
    # a failing job next to a slow one raises its own exception; the lowest
    # failing index wins, as in the serial path, even when it fails last
    fails(_sleep_then_fail, [(0.3, None), (0, "fast")], ValueError, "^fast$")
    fails(_sleep_then_fail, [(0.3, "slow"), (0, "fast")], ValueError, "^slow$")
    # a result that does not pickle is its job's one-line error
    error = fails(threading.Lock, [(), ()], TypeError, "pickle")
    assert "\n" not in str(error)
    # so is an exception that does not pickle
    error = fails(_raise_unpicklable, [(), ()], RuntimeError, "^ValueError.* does not pickle: ")
    assert "\n" not in str(error)
    # an interrupt of the calling process kills and reaps every child, so
    # neither sleeps out its 30 s
    start = time.monotonic()
    fails(_interrupt_caller, [(True,), (False,)], KeyboardInterrupt, None)
    assert time.monotonic() - start < 10


def test_parallel_map_queues_more_indices_than_a_pipe_holds(monkeypatch):
    # 20,000 four-byte indices are more than a 64 KiB pipe buffer, so writing
    # them before a child reads would block for good: an alarm ends the wait
    def expire(signum, frame):
        raise TimeoutError("parallel_map blocked for 60 s")

    jobs = [(-i,) for i in range(20_000)]
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        assert _run_on_cpus(monkeypatch, {0, 1}, parallel_map, abs, jobs) == list(range(20_000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def test_forking_runners_import_no_process_pool():
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from lzlab.experiments import parallel_map, run_universality\n"
            "assert os.getpid() not in parallel_map(os.getpid, [(), ()])\n"
            f"run_universality({SMALL_RUNNER_CONFIGS['universality']!r})\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"
