"""Entropy functionals, a priori bound trackers, and the per-run ledger.

Every functional is evaluated in a vacuum-safe form: no expression divides
by the density.  The two key rewritings are

* ``sqrt(rho) * grad(phi(rho)) = 2 h'(rho) * grad(sqrt(rho))``, so the
  weighted entropy velocity never needs ``grad(rho)/rho``, and
* ``h(rho)/sqrt(rho)`` (and ``g/sqrt(rho)``) set to zero on vacuum cells,
  which is the continuous limit for admissible coefficient growth.

A ledger row collects, at one instant:

* energy and its viscous dissipation rate,
* the weighted entropy functional and its pressure cross term,
* the velocity-moment functional and the bound on its growth rate,
* the three a priori bound sets (L2 momentum/density norms, weighted
  density gradients, plain weighted gradients), and
* the compactness quantities (pressure space-time integrand, the
  higher-integrability momentum norm, h/sqrt(rho) and psi in L^6).

Each functional has one definition, a method of the per-state bundle
``_Fields``; the public helpers, :func:`ledger_row` and the stability study's
hypothesis table are views of it.  The weak-form residual reads its fields
from the bundle of each retained state too, the weighted entropy velocity
and h/sqrt(rho) among them.  A bundle of a batch gives every column
for all its members at once, one Python float each, so the solver takes a
ledger row from the bundle it has already made for the state's energy.
Densities enter as ``max(rho, 0)``.

Ledger columns carry fixed wire-format tags (e.g. ``E_eq15``,
``X_BD_lemma31``); downstream tooling keys on those names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _json
from ._workspace import _harmonic_face, _Workspace
from .grid import (PeriodicGrid, State, _cutoff, _floats, _lp, _magnitude, _power,
                   _wave_vector, grad, integrate)
from .viscosity import _check_gamma


@dataclass(frozen=True)
class MomentParams:
    """Exponents for the velocity-moment functional and the
    higher-integrability momentum norm."""

    delta: float = 0.05
    alpha: float = 0.02

    def validate(self, nu: float):
        if not 0.0 < self.delta < min(nu / 4.0, 2.0):
            raise ValueError(
                f"delta must lie in (0, min(nu/4, 2)) = (0, {min(nu / 4.0, 2.0):g}), "
                f"got {self.delta}"
            )
        if not 0.0 < self.alpha < self.delta / 2.0:
            raise ValueError(
                f"alpha must lie in (0, delta/2) = (0, {self.delta / 2.0:g}), "
                f"got {self.alpha}"
            )


class _Fields:
    """One state's derived fields, each computed at most once, and the single
    definition of every functional on them: the one bundle of a state, where
    all its pointwise fields are made, h and g through the law's one path.
    The clamped density, the wet cells (rho > eps_vac) and the cutoff
    velocity m / rho are computed up front; the energy's fields (sqrt(rho),
    the weighted momentum sqrt(rho) u, its square and the pressure potential
    rho^gamma / (gamma - 1)) together when one of them is first asked for,
    and the others one by one when first asked for.  Every quotient by a
    power of the density goes through :func:`~bdns.grid._cutoff`, so that
    it vanishes on dry cells.

    The solver's bundles take its workspace ``work`` and write their fields
    into its buffers (see ``_Workspace.bundle_out``); the fields of the
    energy go to scratch lanes and hold until a kernel next runs.  Such a
    bundle is made once per state of the stage loop, by the first kernel
    that needs it, and makes the stage kernels' fields when it is made,
    each into a buffer of its own, since the stencils write the lanes: |u|
    and the sound speed c stacked (``waves``), the wave speed |u| + c
    (``speed``), the pressure rho^gamma (``rho_gamma``), h, the harmonic
    face viscosity of every axis (``h_face``) and, unless the law's g
    vanishes, g.  Its gamma is the config's, which ``AdmissibilityParams``
    has checked; any other bundle given a gamma checks it.

    The functionals that integrate a field return a float for one state and
    one value per member for a batch; the ledger columns, whose last steps
    (a root, a square root, a Hoelder product) are taken in Python floats,
    return one float per member either way.

    The weighted entropy velocity and h/sqrt(rho) are made on each access
    and kept by none: each reader takes them once, and a ledger row's peak
    memory does not hold them."""

    _ENERGY_FIELDS = frozenset(("sqrt_rho", "sqrt_rho_u", "sru2", "potential"))

    def __init__(self, state: State, grid: PeriodicGrid, law, gamma: float | None,
                 eps_vac: float, work: _Workspace | None = None):
        if not 0.0 < eps_vac < math.inf:  # NaN too: every cell would count as dry
            raise ValueError(f"eps_vac must be finite and positive, got {eps_vac}")
        if work is None:  # the solver's states have the workspace's shape
            state.check_shapes(grid)
            if gamma is not None:
                _check_gamma(gamma)
        self.state = state
        self.grid = grid
        self.law = law
        self.gamma = gamma
        out = self._out = {} if work is None else work.bundle_out
        rho = self.rho = np.maximum(state.rho, 0.0, out=out.get("rho"))
        wet = self.wet = np.greater(state.rho, eps_vac, out=out.get("wet"))
        # an overflowing velocity is no error here: stable_dt reports it
        with np.errstate(over="ignore"):
            u = self.u = _cutoff(state.mom, rho, wet, out.get("u"))
        if work is None:
            return
        # the stage kernels' fields, before any stencil writes a lane
        waves = self.waves = out["waves"]  # |u| and c, one square root for both
        umag, cs = waves
        np.add.reduce(np.square(u, out=out["u_sq"]), axis=0, out=umag)
        _power(rho, gamma - 1.0, cs)
        np.multiply(gamma, cs, out=cs)
        np.sqrt(waves, out=waves)
        self.speed = np.add(umag, cs, out=out["speed"])
        self.rho_gamma = _power(rho, gamma, out["rho_gamma"])
        self.h = law.h(rho, out["h"], out["h_term"])
        for s in work.axes:
            _harmonic_face(s)
        self.h_face = out["h_face"]
        if not work.g_vanishes:  # in the faces' scratch lanes, now free
            self.g = law.g(rho, out["g"], out["h_term"], out["g_spare"])

    def __getattr__(self, name: str):
        # called for an attribute not yet set: the energy's fields are made
        # together on first access, the pressure potential given gamma
        if name not in self._ENERGY_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        out = self._out
        sqrt_rho = self.sqrt_rho = np.sqrt(self.rho, out=out.get("sqrt_rho"))
        sru = self.sqrt_rho_u = _cutoff(self.state.mom, sqrt_rho, self.wet, out.get("sqrt_rho_u"))
        sq = np.square(sru, out=out.get("sru_sq"))  # |sqrt(rho) u|^2
        self.sru2 = np.add.reduce(sq, axis=0, out=out.get("sru2"))
        if self.gamma is not None:
            self.potential = np.divide(self.rho_gamma, self.gamma - 1.0,
                                       out=out.get("potential"))
        return object.__getattribute__(self, name)

    @cached_property
    def rho_gamma(self):
        """The pressure rho^gamma, for the energy and the weak form."""
        return _power(self.rho, self.gamma)

    @cached_property
    def g(self):
        """g(rho), evaluated at most once per bundle, for the dissipation and
        the weak-form residual; a solver bundle makes it up front unless the
        law's g vanishes (its kernels then skip the g term)."""
        return self.law.g(self.rho)

    @cached_property
    def grad_u(self):
        # grad_u[i, j] = d_i u_j
        u = self.u
        return np.stack([grad(u[j], self.grid) for j in range(self.grid.dim)], axis=1)

    @cached_property
    def grad_u_sq(self):
        return np.add.reduce(self.grad_u**2, axis=(0, 1))

    @cached_property
    def grad_sqrt_rho(self):
        return grad(self.sqrt_rho, self.grid)

    @cached_property
    def gsr2(self):
        return np.add.reduce(self.grad_sqrt_rho**2, axis=0)

    @cached_property
    def h(self):
        return self.law.h(self.rho)

    @cached_property
    def hp(self):
        return self.law.h_prime(self.rho)

    @property
    def entropy_velocity(self):
        """sqrt(rho) u + 2 h'(rho) grad(sqrt(rho)), the weighted entropy velocity."""
        return self.sqrt_rho_u + 2.0 * self.hp * self.grad_sqrt_rho

    @property
    def h_over_sqrt_rho(self):
        return _cutoff(self.h, self.sqrt_rho, self.wet)

    @cached_property
    def hp_grad_sqrt_rho_sq(self) -> float:
        """int h'^2 |grad sqrt(rho)|^2."""
        return integrate(self.hp**2 * self.gsr2, self.grid)

    @cached_property
    def pressure_weight(self) -> float:
        """int h' rho^{gamma-1} |grad sqrt(rho)|^2: the cross term over 4 gamma."""
        return integrate(self.hp * self.rho ** (self.gamma - 1.0) * self.gsr2, self.grid)

    # -- functionals ---------------------------------------------------------

    def energy(self) -> float:
        density = np.multiply(0.5, self.sru2, out=self._out.get("density"))
        return integrate(np.add(density, self.potential, out=density), self.grid)

    def dissipation(self) -> float:
        div_u = sum(self.grad_u[a, a] for a in range(self.grid.dim))
        return integrate(self.h * self.grad_u_sq + self.g * div_u**2, self.grid)

    def bd_entropy(self) -> float:
        return integrate(0.5 * np.add.reduce(self.entropy_velocity**2, axis=0) + self.potential,
                         self.grid)

    def bd_cross(self) -> float:
        return 4.0 * self.gamma * self.pressure_weight

    def moment(self, delta: float) -> float:
        umag = _magnitude(self.u)
        return integrate(self.sru2 * umag**delta, self.grid) / (2.0 + delta)

    def moment_rhs(self, delta: float) -> list[float]:
        p = 2.0 / (2.0 - delta)
        # rho^{2 gamma - delta/2} / h where h > 0, +inf on a wet cell with h = 0
        h = self.h
        ratio = _cutoff(self.rho ** (2.0 * self.gamma - delta / 2.0), h,
                        np.logical_and(self.wet, h > 0.0))
        ratio[np.logical_and(self.wet, h == 0.0)] = math.inf
        factor1 = _floats(integrate(ratio**p, self.grid))
        factor2 = _floats(integrate(self.sru2, self.grid))
        return [a ** ((2.0 - delta) / 2.0) * b ** (delta / 2.0) for a, b in zip(factor1, factor2)]

    def apriori(self) -> dict[str, list[float]]:
        grid, rho, gamma = self.grid, self.rho, self.gamma
        return {
            "sqrt_rho_u_L2_eq19": _lp(_magnitude(self.sqrt_rho_u), grid, 2),
            "rho_L1_eq19": _floats(integrate(rho, grid)),
            "rho_Lgamma_eq19": _lp(np.abs(rho), grid, gamma),
            "sqrt_h_grad_u_L2_eq19": _root(integrate(self.h * self.grad_u_sq, grid)),
            "hprime_grad_sqrt_rho_L2_eq20": _root(self.hp_grad_sqrt_rho_sq),
            "sqrt_hprime_rho_gm2_grad_rho_L2_eq20": _root(4.0 * self.pressure_weight),
            "sqrt_rho_grad_u_L2_eq21": _root(integrate(rho * self.grad_u_sq, grid)),
            "grad_sqrt_rho_L2_eq21": _lp(_magnitude(self.grad_sqrt_rho), grid, 2),
            "grad_rho_gamma_half_L2_eq21": _lp(_magnitude(grad(rho ** (gamma / 2.0), grid)),
                                               grid, 2),
        }

    def compactness(self, alpha: float) -> dict[str, list[float]]:
        grid, rho = self.grid, self.rho
        return {
            "rho_gamma_L53_lemma42": _floats(integrate(rho ** (5.0 * self.gamma / 3.0), grid)),
            "sqrt_rho_u_L2p2alpha_lemma43": _lp(_magnitude(self.sqrt_rho_u), grid,
                                                2.0 + 2.0 * alpha),
            "h_over_sqrt_rho_L6_lemma44": _lp(np.abs(self.h_over_sqrt_rho), grid, 6),
            "psi_L6_lemma44": _lp(np.abs(np.asarray(self.law.psi(rho))), grid, 6),
        }

    def ledger_columns(self, mp: MomentParams) -> dict[str, list[float]]:
        """Every ledger column but the time and the counters, one float per
        member, in the order of LEDGER_COLUMNS."""
        cross = np.add.reduce(self.sqrt_rho_u * 2.0 * self.hp * self.grad_sqrt_rho, axis=0)
        columns = {
            "E_eq15": _floats(self.energy()),
            "D_visc_eq15": _floats(self.dissipation()),
            "E_BD_lemma31": _floats(self.bd_entropy()),
            "X_BD_lemma31": _floats(self.bd_cross()),
            "BD_cross_term": _floats(integrate(cross, self.grid)),
            "M_delta_lemma32": _floats(self.moment(mp.delta)),
            "RHS_delta_lemma32": self.moment_rhs(mp.delta),
            **self.apriori(),
            **self.compactness(mp.alpha),
        }
        # the solver's bundle serves the next step too: it drops the fields
        # that only a ledger row reads
        for name in ("hp", "grad_u", "grad_u_sq", "grad_sqrt_rho", "gsr2"):
            vars(self).pop(name, None)
        return columns


def _root(value) -> list[float]:
    """sqrt(max(x, 0)) of each member's value, in Python floats."""
    return [math.sqrt(max(x, 0.0)) for x in _floats(value)]


def _row(t: float, columns: dict[str, list[float]], k: int, clamp_count: int,
         cutoff_count: int) -> dict[str, float]:
    """The ledger row of member ``k`` of ``columns`` at time ``t``."""
    return {"t": t, **{name: values[k] for name, values in columns.items()},
            "clamp_count": float(clamp_count), "cutoff_count": float(cutoff_count)}


def energy(state: State, grid: PeriodicGrid, gamma: float, eps_vac: float) -> float:
    """Total energy: kinetic (via the weighted momentum) plus pressure potential."""
    return _Fields(state, grid, None, gamma, eps_vac).energy()


def dissipation(state: State, grid: PeriodicGrid, law, eps_vac: float) -> float:
    """Viscous dissipation rate: int h |grad u|^2 + g (div u)^2."""
    return _Fields(state, grid, law, None, eps_vac).dissipation()


def bd_entropy(state: State, grid: PeriodicGrid, law, gamma: float, eps_vac: float) -> float:
    """Weighted entropy functional, vacuum-safe form of
    int rho |u + grad(phi(rho))|^2 / 2 + rho^gamma/(gamma-1)."""
    return _Fields(state, grid, law, gamma, eps_vac).bd_entropy()


def bd_cross(state: State, grid: PeriodicGrid, law, gamma: float, eps_vac: float) -> float:
    """Pressure cross term int grad(phi) . grad(rho^gamma), computed through
    the sqrt-density chain rule as 4*gamma*int h' rho^{gamma-1} |grad sqrt(rho)|^2,
    which is nonnegative for any law with h' >= 0."""
    return _Fields(state, grid, law, gamma, eps_vac).bd_cross()


def moment_functional(state: State, grid: PeriodicGrid, delta: float, eps_vac: float) -> float:
    """int rho |u|^{2+delta} / (2+delta), computed as |sqrt(rho)u|^2 |u|^delta."""
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    return _Fields(state, grid, None, None, eps_vac).moment(delta)


def moment_rhs(state: State, grid: PeriodicGrid, law, gamma: float, delta: float,
               eps_vac: float) -> float:
    """Bound on the moment growth rate: the Hoelder product of the weighted
    pressure factor and the kinetic energy.  On vacuum cells
    rho^{2 gamma - delta/2} / h(rho) is taken as zero, and on a wet cell
    where h = 0 as +inf, with no division taken."""
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    (value,) = _Fields(state, grid, law, gamma, eps_vac).moment_rhs(delta)
    return value


COMPACTNESS_COLUMNS = (
    "rho_gamma_L53_lemma42",
    "sqrt_rho_u_L2p2alpha_lemma43",
    "h_over_sqrt_rho_L6_lemma44",
    "psi_L6_lemma44",
)

# how each bound enters the uniform-in-time statement: sup over time, or
# L2-in-time accumulation of the instantaneous value
TIME_AGGREGATION = {
    "sqrt_rho_u_L2_eq19": "sup",
    "rho_L1_eq19": "sup",
    "rho_Lgamma_eq19": "sup",
    "sqrt_h_grad_u_L2_eq19": "l2",
    "hprime_grad_sqrt_rho_L2_eq20": "sup",
    "sqrt_hprime_rho_gm2_grad_rho_L2_eq20": "l2",
    "sqrt_rho_grad_u_L2_eq21": "l2",
    "grad_sqrt_rho_L2_eq21": "sup",
    "grad_rho_gamma_half_L2_eq21": "l2",
}

APRIORI_COLUMNS = tuple(TIME_AGGREGATION)


def apriori_bounds(state: State, grid: PeriodicGrid, law, gamma: float,
                   eps_vac: float) -> dict[str, float]:
    """Instantaneous values of the three a priori bound sets."""
    return {name: value for name, (value,) in
            _Fields(state, grid, law, gamma, eps_vac).apriori().items()}


def compactness_quantities(state: State, grid: PeriodicGrid, law, gamma: float,
                           mp: MomentParams, eps_vac: float) -> dict[str, float]:
    """Quantities controlling strong convergence: the space-time pressure
    integrand, the improved momentum integrability norm, and the L6 norms of
    h/sqrt(rho) and psi(rho)."""
    return {name: value for name, (value,) in
            _Fields(state, grid, law, gamma, eps_vac).compactness(mp.alpha).items()}


LEDGER_COLUMNS = (
    "t",
    "E_eq15",
    "D_visc_eq15",
    "E_BD_lemma31",
    "X_BD_lemma31",
    "BD_cross_term",
    "M_delta_lemma32",
    "RHS_delta_lemma32",
    *APRIORI_COLUMNS,
    *COMPACTNESS_COLUMNS,
    "clamp_count",
    "cutoff_count",
)


def ledger_row(state: State, grid: PeriodicGrid, law, gamma: float, mp: MomentParams,
               eps_vac: float, clamp_count: int = 0, cutoff_count: int = 0) -> dict[str, float]:
    """One full diagnostics row, every column taken from one field bundle."""
    columns = _Fields(state, grid, law, gamma, eps_vac).ledger_columns(mp)
    return _row(state.t, columns, 0, clamp_count, cutoff_count)


@dataclass
class EntropyLedger:
    """Time series of every tracked functional for one run."""

    metadata: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)

    def append(self, row: dict):
        self.rows.append(row)

    @property
    def times(self) -> np.ndarray:
        return np.array([r["t"] for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])

    def cumulative_integral(self, name: str) -> np.ndarray:
        """Trapezoid cumulative integral of a column over ledger time."""
        t = self.times
        y = self.column(name)
        out = np.zeros_like(y)
        if len(t) > 1:
            out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
        return out

    def aggregate_bounds(self) -> dict[str, float]:
        """Collapse each a priori bound column to its uniform-in-time scalar."""
        t = self.times
        out = {}
        for name, kind in TIME_AGGREGATION.items():
            y = self.column(name)
            if kind == "sup":
                out[name] = float(np.max(y))
            else:
                out[name] = float(math.sqrt(np.trapezoid(y**2, t))) if len(t) > 1 else 0.0
        return out

    def to_csv(self, path):
        cols = [c for c in LEDGER_COLUMNS if self.rows and c in self.rows[0]]
        with open(path, "w") as fh:
            meta = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            fh.write(f"# {meta}\n")
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{row[c]:.17g}" for c in cols) + "\n")

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(_json.dumps({"metadata": self.metadata}, sort_keys=True) + "\n")
            for row in self.rows:
                fh.write(_json.dumps(row, sort_keys=True) + "\n")


class TestField:
    """Space-time test field w(t) * Phi(x) with w(T) = 0 and band-limited,
    zero-mean Phi given by stored trigonometric modes.

    ``modes`` is a sequence of (component, amplitude, wavevector, phase);
    each contributes amplitude * cos(2 pi k . x / L + phase) to Phi_component.
    All spatial derivatives are evaluated in closed form.
    """

    __test__ = False  # not a pytest class

    def __init__(self, dim: int, modes, t_end: float):
        self.dim = dim
        self.modes = [(int(c), float(a), tuple(int(k) for k in kvec), float(p))
                      for c, a, kvec, p in modes]
        self.t_end = float(t_end)
        for c, a, kvec, p in self.modes:
            if not 0 <= c < dim:
                raise ValueError(f"component {c} out of range for dim {dim}")
            if all(k == 0 for k in kvec):
                raise ValueError("test-field modes must have zero spatial mean")

    def w(self, t: float) -> float:
        return math.cos(0.5 * math.pi * t / self.t_end)

    def w_prime(self, t: float) -> float:
        return -0.5 * math.pi / self.t_end * math.sin(0.5 * math.pi * t / self.t_end)

    @property
    def band_limit(self) -> int:
        return max(max(abs(k) for k in kvec) for _, _, kvec, _ in self.modes)

    def spatial(self, grid: PeriodicGrid):
        """Returns (Phi, dPhi, lap_Phi, grad_div_Phi) with
        dPhi[i, j] = d_i Phi_j, lap_Phi[j] = sum_i d_ii Phi_j and
        grad_div_Phi[i] = d_i (div Phi)."""
        xs = grid.coords()
        phi = grid.zeros_vector()
        dphi = np.zeros((grid.dim, grid.dim, *grid.sizes))
        lap_phi = grid.zeros_vector()
        grad_div = grid.zeros_vector()
        for c, a, kvec, p in self.modes:
            kw = [2.0 * math.pi * kvec[i] / grid.lengths[i] for i in range(grid.dim)]
            arg = sum(kw[i] * xs[i] for i in range(grid.dim)) + p
            cos_a, sin_a = a * np.cos(arg), a * np.sin(arg)
            phi[c] += cos_a
            k2 = sum(k * k for k in kw)
            lap_phi[c] += -k2 * cos_a
            for i in range(grid.dim):
                dphi[i, c] += -kw[i] * sin_a
                # d_i d_c Phi_c contribution to grad(div Phi)
                grad_div[i] += -kw[i] * kw[c] * cos_a
        return phi, dphi, lap_phi, grad_div


def make_test_fields(dim: int, t_end: float, seed: int = 0, count: int = 3,
                     kmax: int = 3) -> list[TestField]:
    """Fixed seeded family of band-limited test fields."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        modes = []
        for c in range(dim):
            for _ in range(2):
                kvec = _wave_vector(rng, dim, kmax)
                amp = float(rng.uniform(0.3, 1.0))
                phase = float(rng.uniform(0.0, 2.0 * math.pi))
                modes.append((c, amp, kvec, phase))
        fields.append(TestField(dim, modes, t_end))
    return fields


def weak_form_residual(trajectory, grid: PeriodicGrid, law, gamma: float,
                       test_field: TestField, eps_vac: float) -> float:
    """Absolute residual of the time-integrated weak momentum balance along a
    trajectory, with the diffusion pairings rewritten so that second
    derivatives land on the test field and no term divides by the density.

    Each retained state gives two integrals, of the time-derivative pairing
    and of the summed space terms, both from its one field bundle.  Time
    integration is the trapezoid rule over the stored checkpoints; the test
    field must vanish at the final checkpoint time.
    """
    times = trajectory.times
    states = trajectory.states
    if len(times) < 2:
        raise ValueError("trajectory needs at least two checkpoints")
    if abs(test_field.w(times[-1])) > 1e-12:
        raise ValueError("test field must vanish at the final time")

    phi, dphi, lap_phi, grad_div = test_field.spatial(grid)
    div_phi = sum(dphi[a, a] for a in range(grid.dim))

    dt_terms, space_terms = [], []
    for st in states:
        f = _Fields(st, grid, law, gamma, eps_vac)
        sru = f.sqrt_rho_u
        # momentum . dphi/dt, with m written as sqrt(rho) * (sqrt(rho) u)
        dt_terms.append(integrate(np.add.reduce(f.sqrt_rho * sru * phi, axis=0), grid))
        # the diffusion pairings carry the minus sign of the weak form folded
        # in.  Convection and the gradient part of the shear pairing sum to
        # (sqrt(rho) u + 2 h' grad sqrt(rho)) (x) sqrt(rho) u : grad Phi
        space = np.einsum("i...,j...,ij...->...", f.entropy_velocity, sru, dphi)
        # pressure and the g' part of the second-coefficient pairing
        g_part = 2.0 * law.g_prime(f.rho) * np.add.reduce(sru * f.grad_sqrt_rho, axis=0)
        space += (f.rho_gamma + g_part) * div_phi
        # the shear and second-coefficient pairings with second derivatives of Phi
        g_over_sqrt_rho = _cutoff(f.g, f.sqrt_rho, f.wet)
        space += np.add.reduce(sru * (f.h_over_sqrt_rho * lap_phi + g_over_sqrt_rho * grad_div),
                               axis=0)
        space_terms.append(integrate(space, grid))

    wp = np.array([test_field.w_prime(t) for t in times])
    w = np.array([test_field.w(t) for t in times])

    time_integral = np.trapezoid(np.array(dt_terms) * wp + np.array(space_terms) * w, times)
    initial = test_field.w(times[0]) * integrate(np.sum(states[0].mom * phi, axis=0), grid)
    return float(abs(initial + time_integral))
