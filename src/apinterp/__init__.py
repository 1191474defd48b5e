"""Numerical interpolation-variety checks for weighted entire-function algebras."""

from .conditions import (
    BalayageProfile,
    ConditionReport,
    RegionSplit,
    ScanSpec,
    Sweep,
    TrendResult,
    balayage_profile,
    balayage_sup,
    balayage_value,
    classify_trend,
    condition_a_constants,
    condition_b_constants,
    default_radii,
    run_condition_report,
    split_regions,
)
from .errors import (
    ApInterpError,
    ConstructionError,
    DomainError,
    InputError,
    InvariantViolation,
    NumericError,
    TabulatedRangeError,
)
from .extension import (
    AnnulusCountingReport,
    CutoffSpec,
    InterpolationData,
    SeparationRadii,
    annulus_counting_report,
    dbar_defect,
    dbar_growth_report,
    load_jets,
    penalized_weight,
    save_jets,
    singular_weight,
    smooth_interpolant,
    subharmonic_audit,
)
from .generators import FamilySpec, expected_profile, generate
from .halfplane import (
    HalfPlaneVariety,
    HypDisk,
    blaschke_lower_bound_report,
    blaschke_sum,
    blaschke_sum_report,
    count_in_hyp_disk,
    green_function,
    hyperbolic_jensen,
    log_blaschke_abs,
    poisson_kernel,
    pseudo_distance,
)
from .regularization import (
    IntervalPartition,
    RegularizedWeight,
    build_partition,
    circular_mean_log,
    interval_mass_audit,
    laplacian_audit,
    mean_log_gap,
    measure_density,
    potential_correction,
    regularize,
    regularized_p,
)
from .variety import (
    Variety,
    WeightedPoint,
    count_in_disk,
    integrated_count,
    load_variety,
    local_density_constant,
    save_variety,
    separation_profile,
)
from .weights import (
    AxiomReport,
    BeurlingWeight,
    OmegaProfile,
    check_axioms,
    estimate_disk_constant,
    poisson_transform,
    verify_poisson_bound,
)

__version__ = "0.1.0"
