"""Learnable geometric features for point clouds.

Builds variable-bandwidth diffusion operators on point clouds, derives
per-point Gram fields of degree-k differential-form inner products from
them, and trains a small network of learnable forms whose comparison
matrices feed a binary classifier. Analytic manifolds, quadrature
oracles, and synthetic benchmark generators support validation end to
end.
"""

from .data import (
    GramField,
    PointCloud,
    load_dataset,
    measure_weights,
    multi_index_table,
    read_gram_cache,
    save_dataset,
    write_gram_cache,
)
from .errors import (
    CacheFormatError,
    ConfigurationError,
    ConfigurationWarning,
    DegenerateDensityError,
    DimensionEstimateError,
    IngestionError,
    InsufficientPointsError,
    IntegrationBlowupError,
    InvalidDegreeError,
    IsolatedPointError,
    MissingCacheError,
    NumericFailureError,
    OraclePrecisionError,
    PointFormsError,
    UndefinedMetricError,
)
from .gram import (
    carre_du_champ,
    comparison_matrix,
    compound_gram_field,
    coordinate_form,
    estimate_gram_memory,
    format_bytes,
    gram_field_1,
    minors,
)
from .graph import NeighborGraph, knn, pairwise_sq_dist
from .laplacian import (
    DensityEstimate,
    DiffusionOperator,
    LaplacianParams,
    apply_laplacian,
    auto_bandwidth_scale,
    build_laplacian,
    estimate_density,
    estimate_dimension,
)
from .network import (
    CloudSample,
    FormNetwork,
    PARAM_BUDGET,
    READOUTS,
    TrainConfig,
    TrainResult,
    auroc,
    evaluate,
    load_checkpoint,
    loss_and_grad,
    predict_logits,
    readout,
    readout_dim,
    readout_grad,
    save_checkpoint,
    split_samples,
    train,
)
from .oracle import (
    MANIFOLDS,
    AnalyticManifold,
    aggregate_metric,
    chart_quadrature,
    convergence_study,
    density_check,
    flat_torus,
    line_segment,
    oracle_global_inner_product,
    oracle_gram_1,
    oracle_gram_k,
    unit_circle,
    unit_sphere,
    von_mises_sampler,
)
from .tasks import (
    CirclesLinesConfig,
    DensityShiftConfig,
    RnaKineticsConfig,
    circles_field,
    gen_circles_lines,
    gen_density_shift,
    gen_rna_kinetics,
    integrate_ode,
    lines_field,
    rna_field,
    rna_steady_state,
)

__version__ = "0.1.0"
