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
hypothesis table are views of it.  Densities enter as ``max(rho, 0)``.

Ledger columns carry fixed wire-format tags (e.g. ``E_eq15``,
``X_BD_lemma31``); downstream tooling keys on those names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import PeriodicGrid, State, _power, derived, grad, integrate, lp_norm


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


@dataclass
class _EnergyScratch:
    """Buffers that a bundle writes the energy's fields into instead of
    allocating them, each of the density's shape (``sru`` of the momentum's,
    ``wet`` boolean); a buffer left None is allocated.  The solver passes its
    workspace's, so that the per-step energy allocates no field."""

    rho: np.ndarray | None = None
    wet: np.ndarray | None = None
    sqrt_rho: np.ndarray | None = None
    sru: np.ndarray | None = None
    sru2: np.ndarray | None = None
    pressure: np.ndarray | None = None
    density: np.ndarray | None = None


class _Fields:
    """One state's derived fields, each computed at most once, and the single
    definition of every functional on them.  With ``scratch`` the fields of
    the energy are written into its buffers."""

    def __init__(self, state: State, grid: PeriodicGrid, law, gamma: float | None,
                 eps_vac: float, scratch: _EnergyScratch | None = None):
        if eps_vac <= 0:
            raise ValueError("eps_vac must be positive")
        state.check_shapes(grid)
        self.state = state
        self.grid = grid
        self.law = law
        self.gamma = gamma
        self.eps_vac = eps_vac
        self._out = scratch or _EnergyScratch()
        self.rho = np.maximum(state.rho, 0.0, out=self._out.rho)
        self.wet = np.greater(state.rho, eps_vac, out=self._out.wet)

    @cached_property
    def d(self):
        return derived(self.state, self.grid, self.eps_vac)

    @cached_property
    def sru2(self):
        # |sqrt(rho) u|^2, through m / sqrt(rho) on wet cells
        sru = self.over_sqrt_rho(self.state.mom, self._out.sru)
        return np.sum(np.square(sru, out=sru), axis=0, out=self._out.sru2)

    @cached_property
    def grad_u(self):
        # grad_u[i, j] = d_i u_j
        u = self.d.u
        return np.stack([grad(u[j], self.grid) for j in range(self.grid.dim)], axis=1)

    @cached_property
    def grad_u_sq(self):
        return np.sum(self.grad_u**2, axis=(0, 1))

    @cached_property
    def grad_sqrt_rho(self):
        return grad(self.d.sqrt_rho, self.grid)

    @cached_property
    def gsr2(self):
        return np.sum(self.grad_sqrt_rho**2, axis=0)

    @cached_property
    def h(self):
        return self.law.h(self.rho)

    @cached_property
    def hp(self):
        return self.law.h_prime(self.rho)

    @cached_property
    def pressure(self):
        p = _power(self.rho, self.gamma, self._out.pressure)
        return np.divide(p, self.gamma - 1.0, out=p)

    def over_sqrt_rho(self, q, out=None):
        """q / sqrt(rho) on wet cells, zero on vacuum cells; into ``out`` when
        given."""
        out = np.divide(q, np.sqrt(self.rho, out=self._out.sqrt_rho), out=out, where=self.wet)
        np.copyto(out, 0.0, where=~self.wet)
        return out

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
        density = np.multiply(0.5, self.sru2, out=self._out.density)
        return integrate(np.add(density, self.pressure, out=density), self.grid)

    def dissipation(self) -> float:
        div_u = sum(self.grad_u[a, a] for a in range(self.grid.dim))
        return integrate(self.h * self.grad_u_sq + self.law.g(self.rho) * div_u**2, self.grid)

    def bd_entropy(self) -> float:
        # sqrt(rho) u + 2 h'(rho) grad(sqrt(rho)), the weighted entropy velocity
        bdv = self.d.sqrt_rho_u + 2.0 * self.hp * self.grad_sqrt_rho
        return integrate(0.5 * np.sum(bdv**2, axis=0) + self.pressure, self.grid)

    def bd_cross(self) -> float:
        return 4.0 * self.gamma * self.pressure_weight

    def moment(self, delta: float) -> float:
        umag = np.sqrt(np.sum(self.d.u**2, axis=0))
        return integrate(self.sru2 * umag**delta, self.grid) / (2.0 + delta)

    def moment_rhs(self, delta: float) -> float:
        wet = self.wet
        p = 2.0 / (2.0 - delta)
        num = np.where(wet, self.rho, 0.0) ** (2.0 * self.gamma - delta / 2.0)
        den = np.where(wet, self.h, 1.0)
        factor1 = integrate(np.where(wet, num / den, 0.0) ** p, self.grid)
        factor2 = integrate(self.sru2, self.grid)
        return factor1 ** ((2.0 - delta) / 2.0) * factor2 ** (delta / 2.0)

    def apriori(self) -> dict[str, float]:
        grid, rho, gamma = self.grid, self.rho, self.gamma
        return {
            "sqrt_rho_u_L2_eq19": lp_norm(self.d.sqrt_rho_u, grid, 2),
            "rho_L1_eq19": integrate(rho, grid),
            "rho_Lgamma_eq19": lp_norm(rho, grid, gamma),
            "sqrt_h_grad_u_L2_eq19": math.sqrt(
                max(integrate(self.h * self.grad_u_sq, grid), 0.0)
            ),
            "hprime_grad_sqrt_rho_L2_eq20": math.sqrt(max(self.hp_grad_sqrt_rho_sq, 0.0)),
            "sqrt_hprime_rho_gm2_grad_rho_L2_eq20": math.sqrt(
                max(4.0 * self.pressure_weight, 0.0)
            ),
            "sqrt_rho_grad_u_L2_eq21": math.sqrt(max(integrate(rho * self.grad_u_sq, grid), 0.0)),
            "grad_sqrt_rho_L2_eq21": lp_norm(self.grad_sqrt_rho, grid, 2),
            "grad_rho_gamma_half_L2_eq21": lp_norm(grad(rho ** (gamma / 2.0), grid), grid, 2),
        }

    def compactness(self, alpha: float) -> dict[str, float]:
        grid, rho = self.grid, self.rho
        return {
            "rho_gamma_L53_lemma42": integrate(rho ** (5.0 * self.gamma / 3.0), grid),
            "sqrt_rho_u_L2p2alpha_lemma43": lp_norm(self.d.sqrt_rho_u, grid, 2.0 + 2.0 * alpha),
            "h_over_sqrt_rho_L6_lemma44": lp_norm(self.over_sqrt_rho(self.h), grid, 6),
            "psi_L6_lemma44": lp_norm(np.asarray(self.law.psi(rho)), grid, 6),
        }


def energy(state: State, grid: PeriodicGrid, gamma: float, eps_vac: float, *,
           _scratch: _EnergyScratch | None = None) -> float:
    """Total energy: kinetic (via the weighted momentum) plus pressure potential."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    return _Fields(state, grid, None, gamma, eps_vac, _scratch).energy()


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
    rho^{2 gamma - delta/2} / h(rho) is taken as zero."""
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    return _Fields(state, grid, law, gamma, eps_vac).moment_rhs(delta)


APRIORI_COLUMNS = (
    "sqrt_rho_u_L2_eq19",
    "rho_L1_eq19",
    "rho_Lgamma_eq19",
    "sqrt_h_grad_u_L2_eq19",
    "hprime_grad_sqrt_rho_L2_eq20",
    "sqrt_hprime_rho_gm2_grad_rho_L2_eq20",
    "sqrt_rho_grad_u_L2_eq21",
    "grad_sqrt_rho_L2_eq21",
    "grad_rho_gamma_half_L2_eq21",
)

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


def apriori_bounds(state: State, grid: PeriodicGrid, law, gamma: float,
                   eps_vac: float) -> dict[str, float]:
    """Instantaneous values of the three a priori bound sets."""
    return _Fields(state, grid, law, gamma, eps_vac).apriori()


def compactness_quantities(state: State, grid: PeriodicGrid, law, gamma: float,
                           mp: MomentParams, eps_vac: float) -> dict[str, float]:
    """Quantities controlling strong convergence: the space-time pressure
    integrand, the improved momentum integrability norm, and the L6 norms of
    h/sqrt(rho) and psi(rho)."""
    return _Fields(state, grid, law, gamma, eps_vac).compactness(mp.alpha)


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
    f = _Fields(state, grid, law, gamma, eps_vac)
    cross = np.sum(f.d.sqrt_rho_u * 2.0 * f.hp * f.grad_sqrt_rho, axis=0)
    return {
        "t": state.t,
        "E_eq15": f.energy(),
        "D_visc_eq15": f.dissipation(),
        "E_BD_lemma31": f.bd_entropy(),
        "X_BD_lemma31": f.bd_cross(),
        "BD_cross_term": integrate(cross, grid),
        "M_delta_lemma32": f.moment(mp.delta),
        "RHS_delta_lemma32": f.moment_rhs(mp.delta),
        **f.apriori(),
        **f.compactness(mp.alpha),
        "clamp_count": float(clamp_count),
        "cutoff_count": float(cutoff_count),
    }


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
            fh.write(json.dumps({"metadata": self.metadata}, sort_keys=True) + "\n")
            for row in self.rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


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
                while True:
                    kvec = tuple(int(k) for k in rng.integers(-kmax, kmax + 1, size=dim))
                    if any(k != 0 for k in kvec):
                        break
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

    Time integration is the trapezoid rule over the stored checkpoints; the
    test field must vanish at the final checkpoint time.
    """
    times = trajectory.times
    states = trajectory.states
    if len(times) < 2:
        raise ValueError("trajectory needs at least two checkpoints")
    t_final = times[-1]
    if abs(test_field.w(t_final)) > 1e-12:
        raise ValueError("test field must vanish at the final time")

    phi, dphi, lap_phi, grad_div = test_field.spatial(grid)
    div_phi = sum(dphi[a, a] for a in range(grid.dim))

    instants = []
    for st in states:
        f = _Fields(st, grid, law, gamma, eps_vac)
        sru = f.d.sqrt_rho_u
        rho = f.rho
        sqrt_rho = f.d.sqrt_rho
        gsr = f.grad_sqrt_rho
        h_ov = f.over_sqrt_rho(f.h)
        g_ov = f.over_sqrt_rho(law.g(rho))
        gp = law.g_prime(rho)

        # momentum . dphi/dt, with m written as sqrt(rho) * (sqrt(rho) u)
        term_dt = integrate(np.sum(sqrt_rho * sru * phi, axis=0), grid)
        # convection against grad(test)
        conv = np.zeros(grid.sizes)
        for i in range(grid.dim):
            for j in range(grid.dim):
                conv += sru[i] * sru[j] * dphi[i, j]
        term_conv = integrate(conv, grid)
        term_press = integrate(rho**gamma * div_phi, grid)
        # shear diffusion pairing (both pieces already carry the minus sign
        # of the weak form folded in)
        term_h = integrate(np.sum(h_ov * sru * lap_phi, axis=0), grid)
        hm = np.zeros(grid.sizes)
        for i in range(grid.dim):
            for j in range(grid.dim):
                hm += sru[j] * 2.0 * f.hp * gsr[i] * dphi[i, j]
        term_h += integrate(hm, grid)
        # second-coefficient pairing
        term_g = integrate(np.sum(g_ov * sru * grad_div, axis=0), grid)
        term_g += integrate(np.sum(sru * 2.0 * gp * gsr, axis=0) * div_phi, grid)

        instants.append((term_dt, term_conv + term_press + term_h + term_g))

    dt_terms = np.array([x[0] for x in instants])
    space_terms = np.array([x[1] for x in instants])
    wp = np.array([test_field.w_prime(t) for t in times])
    w = np.array([test_field.w(t) for t in times])

    time_integral = np.trapezoid(dt_terms * wp + space_terms * w, times)
    m0 = states[0].mom
    initial = test_field.w(times[0]) * integrate(np.sum(m0 * phi, axis=0), grid)
    return float(abs(initial + time_integral))
