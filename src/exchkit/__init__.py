"""exchkit: exchangeable-process simulation and constructive verification of
the de Finetti machinery on desk-scale state spaces.

The package is organized bottom-up: spaces and events, measures with exact or
float arithmetic, kernels, process generators, empirical-measure checks, and
sequential convergence with deterministic subsequence extraction. The command
line entry point lives in :mod:`exchkit.cli`.
"""

from .convergence import (
    ExtractionResult,
    MarkovBoundResult,
    MeasureSequence,
    NoConvergenceAtTolError,
    NotTightError,
    RcdConstructionReport,
    UniformSmallnessReport,
    a_converges,
    construct_rcd_from_empiricals,
    extract_convergent_subsequence,
    markov_bound_check,
    uniform_smallness_check,
)
from .empirical import (
    ConditioningEvent,
    ConvergenceReport,
    DfIdentityReport,
    ExactIdentityResult,
    FullCondition,
    LatentCondition,
    SymmetricPrefixCondition,
    correction_factor,
    df_product_identity_check,
    df_product_identity_exact,
    ks_distance_uniform,
    slln_exchangeable_check,
)
from .kernels import (
    CylinderEvent,
    MarkovKernel,
    RcdReport,
    bernoulli_kernel,
    constant_kernel,
    geometric_kernel,
    kernel_mass,
    verify_rcd,
)
from .measures import (
    DEFAULT_EPS_SCHEDULE,
    GeometricComponent,
    ProbMeasure,
    RegularityReport,
    TightnessResult,
    classify_radon,
    mass,
    mix_measures,
    tv_distance,
)
from .processes import (
    BetaBernoulliProcess,
    ExchangeabilityResult,
    GridMixtureProcess,
    IIDProcess,
    MarkovChainProcess,
    PathSample,
    PolyaUrnProcess,
    ProcessGenerator,
    check_exchangeable,
    polya_beta_equivalence,
)
from .config import (
    SpecParseError,
    parse_event,
    parse_events,
    parse_generator,
    parse_grid,
    parse_measure,
    parse_number,
    parse_space,
)
from .rng import path_seed_labels, path_stream
from .spaces import (
    ClosedFamily,
    CompactFamily,
    EventSet,
    SpaceDescriptor,
    SpaceMismatchError,
    all_events,
    complement,
    countable,
    default_closed_family,
    default_compact_family,
    event_spec,
    finite,
)

__version__ = "0.1.0"
