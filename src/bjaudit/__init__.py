"""Decreasing rearrangements, E/K-functionals, and inequality audits.

The package is organized by subject rather than by call graph:

- params: the coupled (theta, q) <-> (s, tau) parameter quadruple and every
  closed-form constant, including the two inconsistent normalization factors
  that are deliberately kept side by side.
- measures / rearrange: finite measure spaces, simple functions, exact
  decreasing rearrangements, and Lorentz-type approximation quasinorms.
- functionals: best-approximation E-functionals and K-functionals for the
  (L^0, L^inf) couple, one 2^n split enumeration that serves as the exact
  oracle for E, K2 and K_inf, and the interpolation quasinorm.
- audit: pointwise inequality audits with margins, plus counterexample
  search.  Violations are reported, never raised.
- spectral / invgauss: the two worked applications at desk scale.
- cli: the `bjaudit` command.
"""

from .audit import (
    PROVIDER_KINDS,
    WEAK_L1_VARIANTS,
    AuditReport,
    ConstantProvider,
    SearchResult,
    audit_bernstein_right,
    audit_jackson,
    audit_q2,
    audit_weak_l1,
    counterexample_search,
    indicator_sweep,
    random_atoms,
    straddling_grid,
)
from .errors import (
    BJAuditError,
    DomainError,
    NumericError,
    QuadratureError,
    UsageError,
)
from .functionals import (
    KEnvelope,
    e_exhaustive,
    e_functional_L0Linf,
    e_functional_trig,
    interp_quasinorm,
    k_envelope,
    k2_exhaustive,
    k2_functional,
    k2_scalar,
    kinf_exhaustive,
    kinf_functional,
    load_trig_csv,
    truncation_profile,
)
from .invgauss import DemoResult, InvGaussParams, demo_pipeline, invgauss_density
from .measures import (
    DiscreteMeasureSpace,
    SimpleFunction,
    distribution_function,
    instance_csv_text,
    load_instance_csv,
    lp_norm,
    sorted_mass_profile,
)
from .params import (
    ApproxParams,
    c_big,
    c_exact,
    constant_consistency_report,
    n_factor_algebraic,
    n_factor_integral,
    params_from_s_tau,
    params_from_theta_q,
)
from .rearrange import (
    StepFunction,
    approx_quasinorm,
    decreasing_rearrangement,
    eval_step,
    lp_from_rearrangement,
    step_csv_text,
)
from .spectral import (
    SpectralModel,
    audit_spectral_bound,
    load_matrix_csv,
    load_state_csv,
    matrix_csv_text,
    spectral_instance,
    spectral_measure,
    spectral_rearrangement,
    state_csv_text,
)

__version__ = "0.1.0"
