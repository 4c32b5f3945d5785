"""Tree-source models: exact log-probabilities, samplers, empirical
entropies, subclass counting, and the depth-first arithmetic code."""

from .arith import dfs_arith_decode, dfs_arith_encode, dfs_code_length
from .counting import (
    catalan, count_subclass, is_avl, is_wb, iter_shapes, llrb_colorings,
    shape_to_tree,
)
from .entropy import (
    bst_entropy_closed_form, bst_entropy_limit, degree_entropy, shape_entropy,
    source_entropy_exhaustive, subtree_size_entropy, type_counts, type_entropy,
)
from .models import (
    AlmostPathSource, AvlByHeightSource, BinomialSource, BstSource,
    CompositionSource, DegreeDist, EmptyClassError, EntropyReport,
    FixedHeightSource, FixedSizeSource, FringeBalancedSource, LrmSource,
    SourceModel, TypeProcess, UniformSource, UniformSubclass,
    WeightBalancedSource, empirical_type_process, log_prob, parse_source,
)
from .sampling import derive_seed, sample

__all__ = [
    "AlmostPathSource", "AvlByHeightSource", "BinomialSource", "BstSource",
    "CompositionSource", "DegreeDist", "EmptyClassError", "EntropyReport",
    "FixedHeightSource", "FixedSizeSource", "FringeBalancedSource",
    "LrmSource", "SourceModel", "TypeProcess", "UniformSource",
    "UniformSubclass", "WeightBalancedSource",
    "bst_entropy_closed_form", "bst_entropy_limit", "catalan",
    "count_subclass", "degree_entropy", "derive_seed", "dfs_arith_decode",
    "dfs_arith_encode", "dfs_code_length", "empirical_type_process",
    "is_avl", "is_wb", "iter_shapes", "llrb_colorings", "log_prob",
    "parse_source", "sample", "shape_entropy", "shape_to_tree",
    "source_entropy_exhaustive", "subtree_size_entropy", "type_counts",
    "type_entropy",
]
