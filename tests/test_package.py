"""The package namespace: 35 exports, each loaded from its home module the
first time it is used, so that ``import lzlab`` loads no submodule."""

import importlib
import os
import subprocess
import sys

import pytest

import lzlab

HOMES = {
    "bitio": ["decode_int", "encode_int", "pack_bits", "read_bits_file", "self_delimit", "unpack_bits",
              "write_bits_file"],
    "construction": ["Construction", "ConstructionParams", "FragmentSpec", "build_alpha", "entropy_upper_bound",
                     "heights_schedule"],
    "deficiency": ["deficiency_curve", "surrogate_deficiency"],
    "intervals": ["Column", "Gadget", "Interval"],
    "ktmix": ["MixtureCoder"],
    "lz": ["BlockCoder", "LZ78Coder", "LZWindowCoder", "compression_ratio", "lz78_parse", "ratio_curve"],
    "sources": ["MarkovSource", "bernoulli", "flip_chain", "robustness_experiment"],
    "symbolic": ["base_node", "find_rs", "mfold", "name_measure", "stack", "union"],
}


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    lzlab from the same place as this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lzlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout


def test_import_loads_no_submodule():
    out = _fresh("import sys, lzlab\n"
                 "print(lzlab.__version__, sorted(m for m in sys.modules if m.startswith('lzlab.')))")
    assert out.split() == [lzlab.__version__, "[]"]


def test_exports_are_their_home_modules_objects():
    assert sorted(lzlab.__all__) == sorted(name for names in HOMES.values() for name in names)
    assert len(lzlab.__all__) == 35
    for module, names in HOMES.items():
        home = importlib.import_module(f"lzlab.{module}")
        for name in names:
            assert getattr(lzlab, name) is getattr(home, name), name


def test_dir_lists_every_export():
    assert set(lzlab.__all__) <= set(dir(lzlab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        lzlab.no_such_export
    with pytest.raises(ImportError, match="no_such_export"):
        from lzlab import no_such_export


def test_submodule_and_star_imports():
    out = _fresh("from lzlab import cli, construction, experiments, lz\n"
                 "print(cli.__name__, construction.__name__, experiments.__name__, lz.__name__)\n"
                 "import lzlab\n"
                 "ns = {}\n"
                 "exec('from lzlab import *', ns)\n"
                 "print(all(ns[name] is getattr(lzlab, name) for name in lzlab.__all__), len(ns) - 1)")
    assert out.split() == ["lzlab.cli", "lzlab.construction", "lzlab.experiments", "lzlab.lz", "True", "35"]
