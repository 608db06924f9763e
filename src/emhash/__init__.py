"""Supervised hashing by closed-form mean-field energy minimization.

Learns sign codes whose Hamming distances preserve label similarity by
solving the mean-field consistency equations of pairwise code energies
through a sigmoid linearization, in closed form, with anchor-column sampling
and a one-shot shared-matrix pass for out-of-anchor points.
"""

from .codec import ProjectionModel, encode_batch, fit_projection, round_codes
from .dataio import (
    Dataset,
    SimilarityView,
    full_similarity,
    load_feature_matrix,
    read_codes,
    sample_similarity_columns,
    standardize_features,
    synthesize_clusters,
    write_codes,
)
from .energy_models import TrainConfig, em_ksh_train, em_lfh_train, em_splh_train
from .evaluation import RankingResult, hamming_rank, mean_average_precision
from .mean_field import LinearizedSigmoid, fit_linearization

__version__ = "0.1.0"
