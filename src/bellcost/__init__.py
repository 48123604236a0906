"""Information cost of measurement-dependent simulations of CHSH Bell violations.

The library evaluates, for a CHSH value S in [2, 4] and a causal structure
(retrocausal, causal, zigzag, one-sided, superdeterministic), the least
mutual information between the measurement settings and a hidden source
variable that a separable deterministic model needs in order to reach S.
It also builds the explicit optimal models, their non-signaling and
biased-setting lifts, a brute-force grid oracle that independently verifies
the curves, and a seeded round sampler with a perfectly predicting adversary.
"""

from .core import (
    SETTINGS,
    BellcostError,
    CausalClass,
    Correlations,
    DomainError,
    HiddenState,
    InvalidModel,
    MissingSetting,
    Model,
    NoFeasibleModel,
    OrderUnavailable,
    SettingDist,
    UndefinedCorrelator,
    binary_entropy,
    chsh_value,
    correlations_of,
    correlators,
    derived_marginal,
    is_factorized_per_lambda,
    is_nonsignaling,
    load_model,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    mutual_information,
    posterior_weights,
    save_model,
    shannon_entropy,
)
from .curves import (
    AppendixReport,
    Branch,
    ConjugatePair,
    CurvePoint,
    appendix_checks,
    conjugate,
    curve_point,
    curve_sweep,
    f_of_p,
    find_p0,
    i_1,
    i_1_curvature,
    i_2,
    i_2_pair,
    i_C,
    i_OS,
    i_R,
    i_SD,
    i_Z,
    s0,
    sweep_to_csv,
)
from .models import (
    Bias,
    OutcomeSigns,
    Table2Branch,
    biased_info,
    biased_lift,
    causal_pair_model,
    extreme_bias_example,
    flip_lift,
    one_sided_model,
    superdeterministic_model,
    table1_model,
    table2_model,
)
from .oracle import (
    BoundChainReport,
    SearchConfig,
    SearchResult,
    brute_force_min_info,
    verify_bound_chain,
)
from .simulate import (
    RNG_ALGORITHM,
    EmpiricalStats,
    RoundLog,
    RoundRecord,
    SampleOrder,
    chsh_standard_error,
    empirical_stats,
    rounds_from_csv,
    rounds_to_csv,
    sample_rounds,
)

__version__ = "1.0.0"
