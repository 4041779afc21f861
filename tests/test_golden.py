"""Golden digests of every coder's output on fixed seeded inputs.

A refactor of a coder must reproduce these exactly: the sha256 of each
``encode`` codeword, of the ``prefix_bits`` list at fixed checkpoints, and
the mixture coders' ``payload_code_len``.  The checkpoints include 0, every
LZ78 phrase boundary, and a cut inside the input's final, incomplete LZ78
phrase.  The mixture coders are pinned once more on a 2^15-bit alpha prefix.
"""

import hashlib
from fractions import Fraction

import pytest

from lzlab.construction import Construction, ConstructionParams, FragmentSpec, build_alpha
from lzlab.experiments import OSCILLATION_DEFAULTS
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


def _alpha_prefix(n: int) -> str:
    cfg = OSCILLATION_DEFAULTS
    params = ConstructionParams(r=Fraction(1, 256), h0=16, fold_schedule=tuple(cfg["fold_schedule"]))
    specs = [FragmentSpec(s["kind"], int(s["stage"]), int(s.get("parts", 1))) for s in cfg["schedule"]]
    return build_alpha(Construction(params), specs, initial_length=24, seed=7).bits[:n]


def _inputs() -> dict[str, str]:
    return {
        "flip": _cut_inside_last_phrase(flip_chain(Fraction(1, 10)).sample(11, 2500)),
        "fair": _cut_inside_last_phrase(bernoulli(Fraction(1, 2)).sample(12, 2500)),
        "alpha": _cut_inside_last_phrase(_alpha_prefix(8192)),
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


LONG_ALPHA = _alpha_prefix(1 << 15)

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
