"""Compressible flow with density-dependent, vacuum-degenerate viscosity:
a periodic-grid solver plus the numerical laboratory around it (coefficient
admissibility validation, entropy/bound diagnostics, spectral certification
of the entropy-balance derivations, and mollified-sequence stability
studies)."""

from .diagnostics import (
    EntropyLedger,
    MomentParams,
    TestField,
    ledger_row,
    make_test_fields,
    weak_form_residual,
)
from .grid import (
    PeriodicGrid,
    State,
    div,
    grad,
    integrate,
    load_checkpoint,
    lp_norm,
    save_checkpoint,
    spectral_div,
    spectral_grad,
)
from .harness import InitialDataSpec, StabilityStudy, generate_sequence, run_study
from .identities import (
    IdentityReport,
    ManufacturedField,
    gradient_flow_field,
    manufactured_field,
    run_all_identities,
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
