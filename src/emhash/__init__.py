"""Supervised hashing by closed-form mean-field energy minimization.

Learns sign codes whose Hamming distances preserve label similarity by
solving the mean-field consistency equations of pairwise code energies
through a sigmoid linearization, in closed form, with anchor-column sampling
and a one-shot shared-matrix pass for out-of-anchor points.
"""

from .codec import ProjectionModel, encode, encode_batch, fit_projection, round_codes
from .dataio import (
    Dataset,
    full_similarity,
    load_feature_matrix,
    read_codes,
    sample_similarity_columns,
    standardize_features,
    synthesize_clusters,
    write_codes,
)
from .energy_models import (
    SharedEig,
    SimilarityView,
    TrainConfig,
    batch_solve_shared,
    em_ksh_train,
    em_lfh_train,
    em_splh_train,
    ksh_anchor_system,
    ksh_energy,
    ksh_tail_systems,
    lfh_system,
    splh_energy,
    splh_system,
)
from .evaluation import RankingResult, average_precision, hamming_rank, mean_average_precision
from .mean_field import (
    LinearizedSigmoid,
    RowSystem,
    build_scale,
    check_condition,
    fit_linearization,
    renormalize_and_squash,
    solve_affine,
    solve_homogeneous,
    solve_row_system,
)

__version__ = "0.1.0"
