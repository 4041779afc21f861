"""Golden digests of every coder's output on fixed seeded inputs, and of
the four experiment runners' results at small configs.

A refactor of a coder must reproduce these exactly: the sha256 of each
``encode`` codeword, of the ``prefix_bits`` list at fixed checkpoints, and
the mixture coders' ``payload_code_len``.  The checkpoints include 0, every
LZ78 phrase boundary, and a cut inside the input's final, incomplete LZ78
phrase.  The mixture coders are pinned once more on a 2^15-bit alpha prefix,
and LZ78's ``prefix_bits``, alone and in block realizations, on 2^15-bit
Markov samples at the robustness runner's checkpoints.
"""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from family import alpha_prefix
from lzlab import experiments
from lzlab.ktmix import MixtureCoder
from lzlab.lz import BlockCoder, LZ78Coder, LZWindowCoder, lz78_parse
from lzlab.sources import bernoulli, flip_chain

CODERS = {
    "lz78": LZ78Coder(),
    "lzwin": LZWindowCoder(),
    "lzwin64": LZWindowCoder(64),
    "block256-lz78": BlockCoder(256, LZ78Coder()),
    "mixture4": MixtureCoder(4),
    "mixture8": MixtureCoder(8),
}


def _cut_inside_last_phrase(x: str) -> str:
    """Shorten x so that its final LZ78 phrase is incomplete and at least 2
    symbols long: drop the last symbol of the last complete phrase of length
    >= 3 (its prefix is already in the dictionary, which is prefix-closed)."""
    pos = 0
    cut = None
    for ph in lz78_parse(x).phrases:
        ln = ph.ref_len + (ph.sym is not None)
        if ph.sym is not None and ln >= 3:
            cut = pos + ln - 1
        pos += ln
    return x[:cut]


def _inputs() -> dict[str, str]:
    return {
        "flip": _cut_inside_last_phrase(flip_chain(Fraction(1, 10)).sample(11, 2500)),
        "fair": _cut_inside_last_phrase(bernoulli(Fraction(1, 2)).sample(12, 2500)),
        "alpha": _cut_inside_last_phrase(alpha_prefix(8192)),
    }


INPUTS = _inputs()


def _checkpoints(x: str) -> list[int]:
    ends = []
    pos = 0
    for ph in lz78_parse(x).phrases:
        pos += ph.ref_len + (ph.sym is not None)
        ends.append(pos)
    n = len(x)
    return sorted({0, 1, 2, 7, n - 1, n} | set(range(0, n, 331)) | set(ends))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_values(coder_name: str, input_name: str) -> dict:
    coder = CODERS[coder_name]
    x = INPUTS[input_name]
    out = {
        "encode": _sha(coder.encode(x)),
        "prefix_bits": _sha(",".join(map(str, coder.prefix_bits(x, _checkpoints(x))))),
    }
    if hasattr(coder, "payload_code_len"):
        out["payload_code_len"] = coder.payload_code_len(x)
    return out


GOLDEN = {
    ('block256-lz78', 'alpha'): {'encode': 'cbcaaba430e0fa6d', 'prefix_bits': '8b083b490399ade9'},
    ('block256-lz78', 'fair'): {'encode': '383981b52ad1e8a4', 'prefix_bits': '0a344043f2a770ea'},
    ('block256-lz78', 'flip'): {'encode': '5b7e184a9e7cb27a', 'prefix_bits': '4f01b2de3ab0b75f'},
    ('lz78', 'alpha'): {'encode': '33ded4fffb61be6c', 'prefix_bits': '8900e8b6bf2f77e9'},
    ('lz78', 'fair'): {'encode': '73a48a846a9938fc', 'prefix_bits': '93732d6a4b53524e'},
    ('lz78', 'flip'): {'encode': '54fbaaba446e29c3', 'prefix_bits': '133a79d57ba4c049'},
    ('lzwin', 'alpha'): {'encode': 'd6374f78b1d24e2c', 'prefix_bits': '33da0f7b99c76a2f'},
    ('lzwin', 'fair'): {'encode': 'a9a03ff86b946a00', 'prefix_bits': '81319caa0a7e96ab'},
    ('lzwin', 'flip'): {'encode': '65223e93b45d449e', 'prefix_bits': '9e9a9d8f32ca5d61'},
    ('lzwin64', 'alpha'): {'encode': 'eb2dfc28957fc0f0', 'prefix_bits': 'afd6050cce49f7af'},
    ('lzwin64', 'fair'): {'encode': 'f1b036b9893c9a5e', 'prefix_bits': '4f67c9f4324c30d1'},
    ('lzwin64', 'flip'): {'encode': 'ba5a8f3074d88130', 'prefix_bits': 'eea8940be90d616f'},
    ('mixture4', 'alpha'): {'encode': 'f94e994cd52311e5', 'prefix_bits': 'a9045b9363a1ebaa', 'payload_code_len': 91},
    ('mixture4', 'fair'): {'encode': '1baaeba69027e5a9', 'prefix_bits': '512205c3bd217cd3', 'payload_code_len': 2507},
    ('mixture4', 'flip'): {'encode': '8c1c23aa3cb756f0', 'prefix_bits': 'f3890daaef309ada', 'payload_code_len': 1164},
    ('mixture8', 'alpha'): {'encode': '9dc72fd931730fac', 'prefix_bits': '8659dce92ff803ef', 'payload_code_len': 88},
    ('mixture8', 'fair'): {'encode': 'ec4f637eef79664e', 'prefix_bits': '139bb64417b27459', 'payload_code_len': 2507},
    ('mixture8', 'flip'): {'encode': 'af7f29325f295ba0', 'prefix_bits': 'cfadbfcd7de30d2b', 'payload_code_len': 1165},
}


def test_inputs_end_in_incomplete_phrase():
    for x in INPUTS.values():
        last = lz78_parse(x).phrases[-1]
        assert last.sym is None and last.ref_len >= 2
    assert 0 < INPUTS["alpha"].count("1") < len(INPUTS["alpha"]) // 4


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("coder_name", sorted(CODERS))
def test_golden_digest(coder_name, input_name):
    assert golden_values(coder_name, input_name) == GOLDEN[coder_name, input_name]


LONG_ALPHA = alpha_prefix(1 << 15)

# the mixture coders on a 2^15-bit alpha prefix, long enough that most of
# the mixture's orders reach weight 0 partway through
GOLDEN_LONG_ALPHA = {
    "mixture4": {'encode': '88fb629a89ec98b8', 'prefix_bits': '1690b9229f9789d2', 'payload_code_len': 2907},
    "mixture8": {'encode': 'e1ed649d9fca9946', 'prefix_bits': '668ead68caba3943', 'payload_code_len': 2548},
}


@pytest.mark.parametrize("coder_name", sorted(GOLDEN_LONG_ALPHA))
def test_golden_digest_long_alpha(coder_name):
    coder = CODERS[coder_name]
    x = LONG_ALPHA
    n = len(x)
    assert n == 1 << 15
    checkpoints = sorted({0, 1, n - 1, n} | set(range(0, n, 1000)))
    assert {
        "encode": _sha(coder.encode(x)),
        "prefix_bits": _sha(",".join(map(str, coder.prefix_bits(x, checkpoints)))),
        "payload_code_len": coder.payload_code_len(x),
    } == GOLDEN_LONG_ALPHA[coder_name]


# LZ78 and its block realizations at the robustness runner's scale: 2^15-bit
# samples, a checkpoint every 4096 bits
ROBUSTNESS_INPUTS = {
    "flip": flip_chain(Fraction(1, 10)).sample(13, 1 << 15),
    "fair": bernoulli(Fraction(1, 2)).sample(14, 1 << 15),
}
GOLDEN_LZ78_PREFIX = {
    ("lz78", "fair"): "a8e2f8d2de988f28",
    ("lz78", "flip"): "e841eb5f6f253327",
    ("block64-lz78", "fair"): "534d3afb3dccbda1",
    ("block64-lz78", "flip"): "076ccb2fb9a8abd4",
    ("block1024-lz78", "fair"): "21990e4c99908413",
    ("block1024-lz78", "flip"): "471bf9136c673b8b",
    ("block16384-lz78", "fair"): "f5e6579bc4f6f617",
    ("block16384-lz78", "flip"): "a8908c96b57d745f",
}


@pytest.mark.parametrize("input_name", sorted(ROBUSTNESS_INPUTS))
@pytest.mark.parametrize("block_len", [None, 64, 1024, 16384])
def test_golden_lz78_prefix_bits_at_robustness_scale(block_len, input_name):
    x = ROBUSTNESS_INPUTS[input_name]
    coder = LZ78Coder() if block_len is None else BlockCoder(block_len, LZ78Coder())
    checkpoints = [*range(0, len(x), 4096), len(x)]
    digest = _sha(",".join(map(str, coder.prefix_bits(x, checkpoints))))
    assert digest == GOLDEN_LZ78_PREFIX[coder.name, input_name]


# The runners at the configs of the benchmark's ``runners`` workload.
RUNNER_SEED = 20260810
RUNNER_CONFIGS = {
    "oscillation": {"h0": 16, "initial_length": 24, "min_length": 1 << 17},
    "deficiency": {
        "alpha_checkpoints": [768, 1024],
        "control_checkpoints": [750, 1000],
        "control_n": 1000,
    },
    "universality": {"mixture_n": 8000, "lz_n": 1 << 15, "stride": 4096},
    "robustness": {"n": 1 << 15, "stride": 4096},
}

# oscillation and deficiency: every result file, in name order, with its
# name; universality and robustness: the summary JSON as written
GOLDEN_RUNNERS = {
    "deficiency": "9248d7b022a089a2",
    "oscillation": "19552da16608f977",
    "robustness": "3bc0d692014248c4",
    "universality": "c0568dba03552b21",
}


def runner_digest(name: str, outdir: str) -> str:
    summary = experiments.RUNNERS[name](dict(RUNNER_CONFIGS[name], seed=RUNNER_SEED), outdir)
    h = hashlib.sha256()
    if name in ("oscillation", "deficiency"):
        for fname in sorted(os.listdir(outdir)):
            h.update(fname.encode() + b"\0")
            with open(os.path.join(outdir, fname), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    else:
        h.update((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(RUNNER_CONFIGS))
def test_golden_runner_results(name, tmp_path):
    assert runner_digest(name, str(tmp_path)) == GOLDEN_RUNNERS[name]


# universality and robustness: every CSV file the runner writes, by name
GOLDEN_RUNNER_CSVS = {
    "robustness": {
        "robustness_bernoulli(1_2)_block1024.csv": "662de4bc1aff16f1",
        "robustness_bernoulli(1_2)_block16384.csv": "8521d60e24c9b4e0",
        "robustness_bernoulli(1_2)_block64.csv": "2871db08d8bb5141",
        "robustness_bernoulli(1_2)_full.csv": "6ff8ddd3731c7628",
        "robustness_flip(1_10)_block1024.csv": "85c20f5b8a1e9273",
        "robustness_flip(1_10)_block16384.csv": "77da1f9276ee7949",
        "robustness_flip(1_10)_block64.csv": "0afa841136676a90",
        "robustness_flip(1_10)_full.csv": "c7cce161f9883990",
    },
    "universality": {
        "universality_bernoulli(1_5)_lz78.csv": "a402554b5285379c",
        "universality_flip(1_10)_lz78.csv": "4ee3652d7222525e",
        "universality_markov2_lz78.csv": "9ca06ffc4321abf9",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNNER_CSVS))
def test_golden_runner_csvs(name, tmp_path):
    experiments.RUNNERS[name](dict(RUNNER_CONFIGS[name], seed=RUNNER_SEED), str(tmp_path))
    got = {
        fname: hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()[:16]
        for fname in os.listdir(tmp_path)
        if fname.endswith(".csv")
    }
    assert got == GOLDEN_RUNNER_CSVS[name]
