import csv
import hashlib
import json
import os
import random
import sys

import pytest

from lzlab.bitio import read_bits_file, write_bits_file
from lzlab.cli import main
from lzlab.experiments import (
    CSV_HEADER,
    DEFICIENCY_DEFAULTS,
    OSCILLATION_DEFAULTS,
    merge_config,
    run_experiment,
    run_robustness,
    run_universality,
)

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


def test_gadget_wd_prints_value(capsys):
    main(["gadget", "wd", "--stage", "1", "--h0", "2", "--folds", "2,2"])
    out = capsys.readouterr().out
    assert "wd =" in out


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
    if name is ValueError:
        with pytest.raises(ValueError):
            main(argv)
    else:
        main(argv)
        assert capsys.readouterr().out.startswith(f"{name}: 256 symbols -> ")


def test_theorem1_cli_flow(tmp_path, capsys):
    main(["theorem1", "heights", "--sigma", "id", "--r", "1/256", "--stages", "3"])
    assert capsys.readouterr().out.split() == ["1", "23", "46", "70"]
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
            "alpha_checkpoints": [512, 1024],
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
