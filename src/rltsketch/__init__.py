"""rltsketch: compressed distance sketches for lp point sets.

Build a relative location tree over a point set, serialize it as a compact
bitstring, and answer (1 +/- eps)-distortion distance queries from the
bitstring alone. Deterministic lp pipeline plus a randomized Euclidean
pipeline (random projection + dithered grid quantization).
"""

from .codec import (DecodeError, SketchBits, build_lp_sketch, decode, encode, read_header,
                    size_report)
from .estimator import QueryContext
from .euclid import build_augmentations, build_euclidean_sketch, jl_transform
from .harness import (
    DistortionReport,
    GeneralMetric,
    InputError,
    embed_general_metric,
    evaluate,
    gen_lowerbound_euclidean,
    gen_lowerbound_general,
    ingest_array,
    ingest_points,
    recover_bits,
)
from .metric import (
    PointSet,
    lp_distance,
    pairwise_distances,
    randomized_grid_round,
    round_to_net,
    scale_points,
)
from .tree import RelativeLocationTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "DecodeError",
    "DistortionReport",
    "GeneralMetric",
    "InputError",
    "PointSet",
    "QueryContext",
    "RelativeLocationTree",
    "SketchBits",
    "build_augmentations",
    "build_euclidean_sketch",
    "build_lp_sketch",
    "build_tree",
    "decode",
    "embed_general_metric",
    "encode",
    "evaluate",
    "gen_lowerbound_euclidean",
    "gen_lowerbound_general",
    "ingest_array",
    "ingest_points",
    "jl_transform",
    "lp_distance",
    "pairwise_distances",
    "randomized_grid_round",
    "read_header",
    "recover_bits",
    "round_to_net",
    "scale_points",
    "size_report",
]
