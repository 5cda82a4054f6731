"""Desk-scale workbench for lattice-coded secret communication over the
symmetric two-user Gaussian interference channel with an eavesdropper.

Construction-A nested lattice pairs, exact coset codebooks, dithered
modulo-lattice transmission, and brute-force verification of the one-bit
leakage bounds in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DegenerateCodebook,
    DimensionMismatch,
    EmptyCodebook,
    IoError,
    LatsecError,
    LayerNotNested,
    NonDivisibleBins,
    NonPositiveScale,
    NotPrime,
    NotUnimodular,
    ParseError,
    RankDeficientG,
    StageConditionViolated,
    SupportMismatch,
    UnityGain,
    ValidationError,
)
from .lattices import (
    ConstructionALattice,
    PointGrid,
    random_code_matrix,
    random_unimodular,
)
from .codebooks import (
    BinnedCodebook,
    Codebook,
    LayeredCodebook,
    build_layered,
    enumerate_codebook,
    scale_to_power,
)
from .infotheory import (
    JointBinSumDist,
    SumStructure,
    entropy_from_counts,
    joint_bin_sum,
    mutual_info_sum,
    sum_structure,
)
from .channel import (
    ChannelParams,
    Regime,
    Transcript,
    achievable_rate_weak,
    check_stage_conditions,
    classify_regime,
    decode_layered,
    decode_very_strong_batch,
    decode_weak,
    dither_sample,
    dithered_round,
    effective_noise_variance,
    encode_dithered,
    mmse_alpha,
    stage_condition_witnesses,
    transmit,
    trial_rng,
)
from .experiments import (
    BaselineComparison,
    BaselineRow,
    GridPoint,
    LayeredReport,
    LemmaReport,
    PipelineResult,
    SecrecyReport,
    engineered_gain,
    layered_reliability,
    noiseless_loopback,
    random_codebook_baseline,
    run_layered_suite,
    run_lemma_suite,
    run_loopback_suite,
    run_regime_pipeline,
    run_theorem1_suite,
    standard_grid,
    standard_layered_set,
    suite_passed,
    theorem_suite_passed,
    very_strong_reliability,
    weak_reliability,
)
from .config import ExperimentConfig, load_config, parse_config
from .cli import emit, main, render, run

import types as _types

__all__ = sorted(
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
