"""lzlab: universal coding, cutting-and-stacking measures, and deficiency experiments.

Importing the package loads none of its modules: each export below is
imported from its home module the first time it is used (PEP 562).
"""

from importlib import import_module

_EXPORTS = {
    "bitio": ("decode_int", "encode_int", "pack_bits", "read_bits_file", "self_delimit", "unpack_bits",
              "write_bits_file"),
    "construction": ("Construction", "ConstructionParams", "FragmentSpec", "build_alpha", "entropy_upper_bound",
                     "heights_schedule"),
    "deficiency": ("deficiency_curve", "surrogate_deficiency"),
    "intervals": ("Column", "Gadget", "Interval"),
    "ktmix": ("MixtureCoder",),
    "lz": ("BlockCoder", "LZ78Coder", "LZWindowCoder", "compression_ratio", "lz78_parse", "ratio_curve"),
    "sources": ("MarkovSource", "bernoulli", "flip_chain", "robustness_experiment"),
    "symbolic": ("base_node", "find_rs", "mfold", "name_measure", "stack", "union"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
