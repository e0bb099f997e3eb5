"""Compressible flow with density-dependent, vacuum-degenerate viscosity:
a periodic-grid solver plus the numerical laboratory around it (coefficient
admissibility validation, entropy/bound diagnostics, spectral certification
of the entropy-balance derivations, and mollified-sequence stability
studies)."""

from .diagnostics import (
    EntropyLedger,
    MomentParams,
    TestField,
    apriori_bounds,
    bd_cross,
    bd_entropy,
    compactness_quantities,
    dissipation,
    energy,
    ledger_row,
    make_test_fields,
    moment_functional,
    moment_rhs,
    weak_form_residual,
)
from .grid import (
    PeriodicGrid,
    State,
    div,
    grad,
    integrate,
    lap,
    load_checkpoint,
    lp_norm,
    save_checkpoint,
    spectral_div,
    spectral_grad,
    spectral_lap,
)
from .harness import InitialDataSpec, StabilityStudy, generate_sequence, run_study
from .identities import (
    IdentityReport,
    ManufacturedField,
    gradient_flow_field,
    manufactured_field,
    run_all_identities,
    verify_bd_combination,
    verify_energy_step,
    verify_moment_derivation,
    verify_step2,
    verify_step3_cross,
)
from .presets import make_initial
from .solver import (
    NonAdmissibleLawError,
    SolverConfig,
    SolverError,
    Trajectory,
    rhs,
    run,
    run_members,
    stable_dt,
    step,
)
from .viscosity import (
    AdmissibilityParams,
    DomainError,
    LawError,
    TamperedLaw,
    ValidationReport,
    ViscosityLaw,
    find_max_nu,
    growth_envelope,
    validate,
)

__version__ = "0.1.0"
