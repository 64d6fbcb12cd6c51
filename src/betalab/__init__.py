"""Numerical laboratory for ergodic properties of beta-maps x -> b*x mod 1.

Certified orbits and greedy digits (precision, betashift), the absolutely
continuous invariant density and its Fourier data (parry), exponential-sum
decay along orbits with the matching rate formula (weyl), Markov digit
sources with interval/near-diagonal mass exponents (sources), self-similar
measures and their transform profiles (selfsimilar), and the staged marker
construction probing how far the near-diagonal floor is from polynomial
(coding).  The command-line front end lives in betalab.cli.
"""

from .betashift import (
    AdmissibilityResult,
    AdmissibilityRule,
    BExpansion,
    NumberClass,
    SpecConstants,
    admissibility_rule,
    classify,
    expansion_of_one,
    format_digits,
    greedy_expansion,
    is_admissible,
    parse_digits,
    specification_constants,
)
from .coding import (
    CodedProcess,
    ConstructionParams,
    NearDiagonalEstimate,
    Stage,
    ViolationReport,
    build_schedule,
    condition_violation_report,
    control_near_diagonal,
    estimate_near_diagonal,
    fit_polynomial_envelope,
    reverse_markov_bound,
    schedule_from_dict,
)
from .exactnum import Quadratic, ln_bounds, round_down, round_up, squarefree_split
from .parry import FourierCoefficient, ParryDensity, preimage_of_interval
from .precision import (
    AmbiguousBranch,
    BetaNumber,
    DescriptorError,
    Enclosure,
    PrecisionBudget,
    PrecisionExhausted,
    UndeterminedValue,
    orbit_with_digits,
    parse_beta,
    tb_apply,
    tb_orbit,
    tb_orbit_floats,
)
from .selfsimilar import (
    DecayWindows,
    InvarianceCheck,
    SelfSimilarMeasure,
    SingularityWitness,
    singularity_witness,
    ssm_decay_profile,
    ssm_fourier,
    ssm_fourier_many,
    ssm_invariance_check,
    ssm_sample,
    ssm_selfsim_residual,
    uniform_grid,
)
from .sources import (
    ConditionEstimates,
    ConditionalMeasure,
    GridMass,
    MarkovSource,
    chain_entropy,
    conditional_measure,
    ess_sup_interval_mass,
    fit_condition_exponents,
    iid_source,
    load_source,
    near_diagonal_mass,
    sample_digits,
    sample_point,
    source_from_dict,
    source_to_dict,
    stationary_distribution,
)
from .weyl import (
    DecayProfile,
    Lemma32Result,
    WeylSeries,
    empirical_fourier,
    invariance_defect,
    invariance_defects,
    lemma32_check,
    mean_decay_profile,
    multiplicatively_independent,
    optimize_exponent_grid,
    parry_distance,
    predicted_exponent,
    weyl_sums,
    wiener_atom_estimate,
)

__version__ = "0.1.0"
