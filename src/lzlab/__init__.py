"""lzlab: universal coding, cutting-and-stacking measures, and deficiency experiments."""

from .bitio import decode_int, encode_int, pack_bits, read_bits_file, self_delimit, unpack_bits, write_bits_file
from .construction import Construction, ConstructionParams, FragmentSpec, build_alpha, entropy_upper_bound, heights_schedule
from .deficiency import deficiency_curve, surrogate_deficiency
from .intervals import Column, Gadget, Interval
from .ktmix import MixtureCoder
from .lz import BlockCoder, LZ78Coder, LZWindowCoder, compression_ratio, lz78_parse, ratio_curve
from .sources import MarkovSource, bernoulli, flip_chain, robustness_experiment
from .symbolic import base_node, find_rs, mfold, name_measure, stack, union

__version__ = "0.1.0"
