"""Compressed binary/ordinal tree codes via tree covering, a navigation
layer over the compressed form, entropy-optimal range-minimum queries, and
tree-source models with exact log-probabilities."""

from .bits import BitBuf, BitCursor, MalformedStream, gamma_decode, gamma_encode
from .cover import BinaryCover, CoverStats, decompose_binary, default_block, validate_cover
from .hypercodec import (
    HsBlob, ShapeCode, build_shape_code, hs_decode_binary, hs_decode_ordinal,
    hs_encode_binary, hs_encode_ordinal, read_hst, space_report, write_hst,
)
from .navigate import NavIndex, build_nav
from .rmq import RMQIndex, RunsProfile, cartesian_tree, rmq_build, runs_profile
from .trees import (
    BinaryTree, OrdinalTree, bp_decode_binary, bp_decode_ordinal, bp_encode_binary,
    bp_encode_ordinal, fcns, fcns_full, fcns_inverse,
)

__version__ = "0.1.0"
