"""Exact multiphoton interference probabilities for unitary linear-optical
networks with partially distinguishable photons and imperfect detectors."""

from .bosonsampling import (
    BSParams,
    gk_closed,
    gk_gaussian_model,
    j_entry,
    purity_closed,
    purity_direct,
)
from .errors import (
    DegenerateDetectionError,
    EngineError,
    IncompatibleRepresentationError,
    MultiphotonError,
    SizeLimitError,
    UnsupportedInputError,
    ValidationError,
)
from .jmatrix import (
    JMatrix,
    PurityResult,
    build_cycle_compressed,
    build_extreme,
    build_mixed,
    build_pure,
    mandel_visibility,
    purity,
    reduce_jmatrix,
)
from .network import enumerate_outputs, fourier, random_unitary, submatrix
from .permanent import permanent_laplace, permanent_naive, permanent_ryser
from .probability import (
    ENGINES,
    DistributionResult,
    GeneralEnsemble,
    ProbabilityResult,
    normalization_report,
    output_distribution,
    prob_classical,
    prob_general,
    prob_ideal_indistinguishable,
    prob_jmatrix,
    prob_oracle,
    prob_permanent_basis,
)
from .spectral import (
    DetectorModel,
    FiniteRankState,
    GaussianState,
    MixedState,
    SpanBasis,
    gk_trace,
    gram_matrix,
    orthonormalize,
    overlap,
)
from .symgroup import (
    Permutation,
    cycle_decomposition,
    cycle_index,
    enumerate_permutations,
    subgroup_members,
)
from .zeroprob import (
    GroupSpec,
    PhotonGroup,
    SuppressionRecord,
    prob_group_factorized,
    suppression_scan,
    three_photon_incompatibility,
    vanishing_smatrix_filter,
)

__version__ = "0.1.0"
