"""Numerical laboratory for ergodic properties of beta-maps x -> b*x mod 1.

Certified orbits and greedy digits (precision, betashift), the absolutely
continuous invariant density and its Fourier data (parry), exponential-sum
decay along orbits with the matching rate formula (weyl), Markov digit
sources with interval/near-diagonal mass exponents (sources), self-similar
measures and their transform profiles (selfsimilar), and the staged marker
construction probing how far the near-diagonal floor is from polynomial
(coding).  The command-line front end lives in betalab.cli.

The package root exports what the README tour and the acceptance criteria
use, plus the errors callers catch; every other name is imported from its
submodule.
"""

from .betashift import classify
from .coding import (
    CodedProcess,
    build_schedule,
    control_near_diagonal,
    estimate_near_diagonal,
    fit_polynomial_envelope,
)
from .parry import ParryDensity, preimage_of_interval
from .precision import (
    DescriptorError,
    PrecisionExhausted,
    UndeterminedValue,
    orbit_with_digits,
    parse_beta,
)
from .selfsimilar import (
    SelfSimilarMeasure,
    singularity_witness,
    ssm_decay_profile,
    ssm_invariance_check,
    ssm_sample,
    ssm_selfsim_residual,
    uniform_grid,
)
from .sources import MarkovSource, ess_sup_interval_mass, iid_source
from .weyl import (
    invariance_defect,
    lemma32_check,
    mean_decay_profile,
    optimize_exponent_grid,
    predicted_exponent,
    weyl_sums,
)

__version__ = "0.1.0"
