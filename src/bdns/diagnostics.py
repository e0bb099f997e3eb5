"""Entropy functionals, a priori bound trackers, and the per-run ledger.

Every functional is evaluated in a vacuum-safe form: no expression divides
by the density.  The two key rewritings are

* ``sqrt(rho) * grad(phi(rho)) = 2 h'(rho) * grad(sqrt(rho))``, so the
  weighted entropy velocity never needs ``grad(rho)/rho``, and
* ``h(rho)/sqrt(rho)`` (and ``g/sqrt(rho)``) set to zero on vacuum cells,
  which is the continuous limit for admissible coefficient growth.

Each column of a ledger row (energy, entropy, moment, a priori and
compactness estimates at one instant) is declared once, in ``_ENTROPY``,
``_APRIORI`` or ``_COMPACTNESS``: its tag, its integrands, its last step in
Python floats and an a priori bound's time aggregation.  One evaluator,
:meth:`_Fields.columns`, writes each integrand once into its row of one
block, reduces the block in one call and takes the last steps, one float per
member of a batch; the energy is the bundle's, integrated once per instant
for the solver's per-step energy and ``E_eq15`` alike.  Densities enter as
``max(rho, 0)``.  The tags (e.g. ``E_eq15``) are a wire format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _json
from ._draws import _Draws
from .grid import (PeriodicGrid, State, _cutoff, _ddx, _floats, _magnitude, _power,
                   _wave_vector, grad, integrate)
from .viscosity import _check_delta, _check_gamma


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
        self._check_alpha()

    def _check_alpha(self):
        if not 0.0 < self.alpha < self.delta / 2.0:
            raise ValueError(
                f"alpha must lie in (0, delta/2) = (0, {self.delta / 2.0:g}), "
                f"got {self.alpha}"
            )


class _Fields:
    """One state's derived fields, each computed at most once: the one bundle
    of a state, which holds all its pointwise fields, h and g made through
    the law's one path.  The clamped density, the wet cells (rho > eps_vac),
    the dry cells (their complement) and the cutoff velocity m / rho are
    computed up front; the energy's fields (sqrt(rho), the weighted momentum
    sqrt(rho) u, its square and the pressure potential
    rho^gamma / (gamma - 1)) together when one of them is first asked for,
    and the others one by one.  Every quotient by a power of the density
    goes through :func:`~bdns.grid._cutoff`, so that it vanishes on dry
    cells: a solver bundle's under the solver's error state, any other
    bundle's under one of its own.

    The solver's bundles take its workspace's buffer dict ``out`` (see
    ``_Workspace.bundle_out``) and write their fields into it; the energy's
    go to scratch lanes and hold until a kernel next runs.  This class makes
    the clamped density, the wet and dry cells, the cutoff velocity and the
    energy's fields of every bundle; ``solver._bundle`` makes the stage
    kernels' fields of a solver bundle (|u| and c, the wave speed,
    rho^gamma, h, its harmonic faces and g) right after it.  Its gamma is
    the config's, which ``AdmissibilityParams`` has checked; any other
    bundle given a gamma checks it."""

    _ENERGY_FIELDS = frozenset(("sqrt_rho", "sqrt_rho_u", "sru2", "potential"))
    _energy = None  # the energy, once computed

    def __init__(self, state: State, grid: PeriodicGrid, law, gamma: float | None,
                 eps_vac: float, out: dict | None = None):
        if not 0.0 < eps_vac < math.inf:  # NaN too: every cell would count as dry
            raise ValueError(f"eps_vac must be finite and positive, got {eps_vac}")
        if out is None:  # the solver's states have the workspace's shape
            state.check_shapes(grid)
            if gamma is not None:
                _check_gamma(gamma)
            out = {}
        self.state, self.grid, self.law, self.gamma, self._out = state, grid, law, gamma, out
        rho = self.rho = np.maximum(state.rho, 0.0, out=out.get("rho"))
        wet = self.wet = np.greater(state.rho, eps_vac, out=out.get("wet"))
        self.dry = np.logical_not(wet, out=out.get("dry"))
        self.u = _cutoff(state.mom, rho, self.dry, out.get("u"))

    def __getattr__(self, name: str):
        # called for an attribute not yet set: the energy's fields are made
        # together on first access, the pressure potential given gamma
        if name not in self._ENERGY_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        out = self._out
        sqrt_rho = self.sqrt_rho = np.sqrt(self.rho, out=out.get("sqrt_rho"))
        sru = self.sqrt_rho_u = _cutoff(self.state.mom, sqrt_rho, self.dry, out.get("sqrt_rho_u"))
        sq = np.square(sru, out=out.get("sru_sq"))  # |sqrt(rho) u|^2
        self.sru2 = np.add.reduce(sq, axis=0, out=out.get("sru2"))
        if self.gamma is not None:
            self.potential = np.divide(self.rho_gamma, self.gamma - 1.0,
                                       out=out.get("potential"))
        return object.__getattribute__(self, name)

    @cached_property
    def rho_gamma(self):
        """The pressure rho^gamma, for the energy, rho_Lgamma_eq19 and the weak form."""
        return _power(self.rho, self.gamma)

    @cached_property
    def g(self):
        """g(rho), for the dissipation and the weak form; ``solver._bundle``
        makes it up front unless the law's g vanishes (its kernels then skip it)."""
        return self.law.g(self.rho)

    @cached_property
    def h(self):
        return self.law.h(self.rho)

    def energy(self) -> float:
        """The energy, kinetic (via the weighted momentum) plus pressure
        potential, integrated once per bundle: a float for one state, one
        value per member for a batch."""
        if self._energy is None:
            density = np.multiply(0.5, self.sru2, out=self._out.get("density"))
            self._energy = integrate(np.add(density, self.potential, out=density), self.grid)
        return self._energy

    def columns(self, mp: MomentParams | None = None, declared: dict | None = None
                ) -> dict[str, list[float]]:
        """The ``declared`` columns (every ledger column by default), one float
        per member each.  The integrands that read one gradient's fields are
        written together, from an instant of their own, whose fields then go."""
        declared = _LEDGER if declared is None else declared
        gradient = {i: c.gradient for c in declared.values() for i in c.integrands}
        values = {_Fields.energy: _floats(self.energy())} if _Fields.energy in gradient else {}
        integrands = sorted((i for i in gradient if i not in values), key=gradient.get)
        block = np.empty((len(integrands), *self.rho.shape))
        rows = iter(block)
        for _, group in itertools.groupby(integrands, key=gradient.get):
            x = _Instant(self, mp)
            for integrand in group:
                integrand(x, next(rows))
        totals = np.reshape(integrate(block, self.grid), (len(integrands), -1)).tolist()
        values.update(zip(integrands, totals))
        return {tag: [c.last(x, *v) for v in zip(*(values[i] for i in c.integrands))]
                for tag, c in declared.items()}


class _Instant:
    """The fields that the ledger and the weak form read beyond the bundle
    ``f`` of a state, each made at most once, with the moment exponents
    ``mp``: a solver's bundle, which serves the next step too, keeps none."""

    def __init__(self, f: _Fields, mp: MomentParams | None = None):
        self.f, self.mp, self.gamma = f, mp, f.gamma

    @cached_property
    def grad_u_terms(self):
        """|grad u|^2, div u and h |grad u|^2; the entries d_i u_j of grad u,
        never held together, are summed in the order of a reduction over them."""
        u, grid = self.f.u, self.f.grid
        sq, div_u = 0.0, 0
        for i, j in itertools.product(range(grid.dim), repeat=2):
            d_ij = _ddx(u[j], grid, i)
            sq = sq + np.square(d_ij)
            if i == j:
                div_u = div_u + d_ij
        return sq, div_u, self.f.h * sq

    @cached_property
    def hp(self):
        return self.f.law.h_prime(self.f.rho)

    @cached_property
    def grad_sqrt_rho(self):
        return grad(self.f.sqrt_rho, self.f.grid)

    @cached_property
    def gsr2(self):
        return np.add.reduce(self.grad_sqrt_rho**2, axis=0)

    @cached_property
    def sru_mag(self):  # |sqrt(rho) u|
        return np.sqrt(self.f.sru2)

    @property
    def entropy_velocity(self):
        """sqrt(rho) u + 2 h'(rho) grad(sqrt(rho)), the weighted entropy velocity."""
        return self.f.sqrt_rho_u + 2.0 * self.hp * self.grad_sqrt_rho

    @property
    def h_over_sqrt_rho(self):
        return _cutoff(self.f.h, self.f.sqrt_rho, self.f.dry)


def _pressure_weight(x: _Instant, out):  # h' rho^{gamma-1} |grad sqrt(rho)|^2
    np.multiply(x.hp * x.f.rho ** (x.gamma - 1.0), x.gsr2, out=out)


def _hp_grad_sqrt_rho_sq(x: _Instant, out):  # h'^2 |grad sqrt(rho)|^2
    np.multiply(x.hp**2, x.gsr2, out=out)


def _holder_pressure(x: _Instant, out):
    # (rho^{2 gamma - delta/2} / h)^{2/(2-delta)}, the ratio 0 on vacuum cells
    # and +inf on a wet cell where h = 0; the cutoff's allocating form, which
    # holds its own error state, as a ledger row outside the solver holds none
    f, delta = x.f, x.mp.delta
    np.copyto(out, _cutoff(f.rho ** (2.0 * x.gamma - delta / 2.0), f.h,
                           np.logical_not(np.logical_and(f.wet, f.h > 0.0))))
    out[np.logical_and(f.wet, f.h == 0.0)] = math.inf
    out **= 2.0 / (2.0 - delta)


def _root(x: _Instant, value: float) -> float:
    return math.sqrt(max(value, 0.0))


class _Column(NamedTuple):
    """A column: its integrands (functions ``(instant, out)``, or the
    bundle's energy), its last step on an instant and a member's integrals,
    an a priori bound's time aggregation (``sup``, or ``l2`` for the norm in
    L2 in time), and the gradient whose fields its integrands read."""

    integrands: tuple
    last: Callable[..., float] = lambda x, value: value
    aggregation: str | None = None
    gradient: str = ""


def _norm(magnitude: Callable, p, aggregation: str | None = None, gradient: str = ""
          ) -> _Column:
    """The L^p norm of what ``magnitude(instant, out)`` writes; ``p`` is a
    number or a function of the instant."""
    exponent = p if callable(p) else lambda x: p

    def integrand(x, out):
        magnitude(x, out)
        out **= exponent(x)
    return _Column((integrand,), lambda x, value: value ** (1.0 / exponent(x)), aggregation,
                   gradient)


_GRAD_U, _GRAD_SQRT_RHO = "grad_u", "grad_sqrt_rho"  # the gradients that integrands read
_ENTROPY = {
    "E_eq15": _Column((_Fields.energy,)),
    "D_visc_eq15": _Column((lambda x, out: np.add(  # h |grad u|^2 + g (div u)^2
        x.grad_u_terms[2], x.f.g * x.grad_u_terms[1]**2, out=out),), gradient=_GRAD_U),
    "E_BD_lemma31": _Column((lambda x, out: np.add(  # |entropy velocity|^2 / 2 + potential
        0.5 * np.add.reduce(x.entropy_velocity**2, axis=0), x.f.potential, out=out),),
        gradient=_GRAD_SQRT_RHO),
    "X_BD_lemma31": _Column((_pressure_weight,), lambda x, v: 4.0 * x.gamma * v,
                            gradient=_GRAD_SQRT_RHO),
    "BD_cross_term": _Column((lambda x, out: np.add.reduce(  # sqrt(rho) u . 2 h' grad sqrt(rho)
        x.f.sqrt_rho_u * 2.0 * x.hp * x.grad_sqrt_rho, axis=0, out=out),), gradient=_GRAD_SQRT_RHO),
    # |sqrt(rho) u|^2 |u|^delta = rho |u|^{2+delta}
    "M_delta_lemma32": _Column((lambda x, out: np.multiply(
        x.f.sru2, _magnitude(x.f.u) ** x.mp.delta, out=out),), lambda x, v: v / (2.0 + x.mp.delta)),
    # the Hoelder product of the weighted pressure factor and the kinetic energy
    "RHS_delta_lemma32": _Column((_holder_pressure, lambda x, out: np.copyto(out, x.f.sru2)),
                                 lambda x, a, b: (a ** ((2.0 - x.mp.delta) / 2.0)
                                                  * b ** (x.mp.delta / 2.0))),
}
_APRIORI = {
    "sqrt_rho_u_L2_eq19": _norm(lambda x, out: np.copyto(out, x.sru_mag), 2, "sup"),
    "rho_L1_eq19": _Column((lambda x, out: np.copyto(out, x.f.rho),), aggregation="sup"),
    "rho_Lgamma_eq19": _Column((lambda x, out: np.copyto(out, x.f.rho_gamma),),
                               lambda x, v: v ** (1.0 / x.gamma), "sup"),
    "sqrt_h_grad_u_L2_eq19": _Column((lambda x, out: np.copyto(out, x.grad_u_terms[2]),),
                                     _root, "l2", _GRAD_U),
    "hprime_grad_sqrt_rho_L2_eq20": _Column((_hp_grad_sqrt_rho_sq,), _root, "sup",
                                            _GRAD_SQRT_RHO),
    "sqrt_hprime_rho_gm2_grad_rho_L2_eq20": _Column(
        (_pressure_weight,), lambda x, v: _root(x, 4.0 * v), "l2", _GRAD_SQRT_RHO),
    "sqrt_rho_grad_u_L2_eq21": _Column(
        (lambda x, out: np.multiply(x.f.rho, x.grad_u_terms[0], out=out),), _root, "l2",
        _GRAD_U),
    "grad_sqrt_rho_L2_eq21": _norm(lambda x, out: np.sqrt(x.gsr2, out=out), 2, "sup",
                                   _GRAD_SQRT_RHO),
    "grad_rho_gamma_half_L2_eq21": _norm(
        lambda x, out: _magnitude(grad(x.f.rho ** (x.gamma / 2.0), x.f.grid), out), 2, "l2"),
}
_COMPACTNESS = {
    # the instantaneous integrand of the space-time pressure norm
    "rho_gamma_L53_lemma42": _Column((lambda x, out: _power(x.f.rho, 5.0 * x.gamma / 3.0, out),)),
    "sqrt_rho_u_L2p2alpha_lemma43": _norm(lambda x, out: np.copyto(out, x.sru_mag),
                                          lambda x: 2.0 + 2.0 * x.mp.alpha),
    "h_over_sqrt_rho_L6_lemma44": _norm(lambda x, out: np.abs(x.h_over_sqrt_rho, out=out), 6),
    "psi_L6_lemma44": _norm(lambda x, out: np.abs(x.f.law.psi(x.f.rho), out=out), 6),
}
_LEDGER = {**_ENTROPY, **_APRIORI, **_COMPACTNESS}

APRIORI_COLUMNS = tuple(_APRIORI)
COMPACTNESS_COLUMNS = tuple(_COMPACTNESS)
TIME_AGGREGATION = {tag: column.aggregation for tag, column in _APRIORI.items()}
LEDGER_COLUMNS = ("t", *_LEDGER, "clamp_count", "cutoff_count")
# the stability study's initial-data checks, by their names in its hypothesis table
HYPOTHESES = {"energy": _ENTROPY["E_eq15"],
              "grad_h_over_rho": _Column((_hp_grad_sqrt_rho_sq,), lambda x, v: 4.0 * v,
                                         gradient=_GRAD_SQRT_RHO),
              "moment": _ENTROPY["M_delta_lemma32"]}


def _row(t: float, columns: dict[str, list[float]], k: int, clamp_count: int,
         cutoff_count: int) -> dict[str, float]:
    """The ledger row of member ``k`` of ``columns`` at time ``t``."""
    return {"t": t, **{name: values[k] for name, values in columns.items()},
            "clamp_count": float(clamp_count), "cutoff_count": float(cutoff_count)}


def ledger_row(state: State, grid: PeriodicGrid, law, gamma: float, mp: MomentParams,
               eps_vac: float, clamp_count: int = 0, cutoff_count: int = 0) -> dict[str, float]:
    """Every ledger column of one state by tag, from one evaluation of one
    field bundle.  It refuses a batch, and moment exponents outside delta in
    (0, 2) and alpha in (0, delta/2), the ranges that need no nu."""
    if np.ndim(state.t):
        raise ValueError(f"ledger_row takes one state, not a batch of {np.size(state.t)} members")
    _check_delta(mp.delta)
    mp._check_alpha()
    columns = _Fields(state, grid, law, gamma, eps_vac).columns(mp)
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
    All spatial derivatives are evaluated in closed form.  ``t_end`` = T
    must be finite and positive.
    """

    __test__ = False  # not a pytest class

    def __init__(self, dim: int, modes, t_end: float):
        self.dim = dim
        self.modes = [(int(c), float(a), tuple(int(k) for k in kvec), float(p))
                      for c, a, kvec, p in modes]
        self.t_end = float(t_end)
        if not 0.0 < self.t_end < math.inf:  # NaN too
            raise ValueError(f"t_end must be finite and positive, got {t_end}")
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
    """Fixed seeded family of band-limited test fields.  A dimension other
    than 1 or 2 is refused before the first draw."""
    if dim not in (1, 2):  # the grids' dimensions; a field of no component has no modes
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    rng = _Draws(seed)
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
    if test_field.dim != grid.dim:
        raise ValueError(f"a test field of dimension {test_field.dim} "
                         f"on a grid of dimension {grid.dim}")
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
        x = _Instant(f)
        sru = f.sqrt_rho_u
        # momentum . dphi/dt, with m written as sqrt(rho) * (sqrt(rho) u)
        dt_terms.append(integrate(np.add.reduce(f.sqrt_rho * sru * phi, axis=0), grid))
        # the diffusion pairings carry the minus sign of the weak form folded
        # in.  Convection and the gradient part of the shear pairing sum to
        # (sqrt(rho) u + 2 h' grad sqrt(rho)) (x) sqrt(rho) u : grad Phi
        space = np.einsum("i...,j...,ij...->...", x.entropy_velocity, sru, dphi)
        # pressure and the g' part of the second-coefficient pairing
        g_part = 2.0 * law.g_prime(f.rho) * np.add.reduce(sru * x.grad_sqrt_rho, axis=0)
        space += (f.rho_gamma + g_part) * div_phi
        # the shear and second-coefficient pairings with second derivatives of Phi
        g_over_sqrt_rho = _cutoff(f.g, f.sqrt_rho, f.dry)
        space += np.add.reduce(sru * (x.h_over_sqrt_rho * lap_phi + g_over_sqrt_rho * grad_div),
                               axis=0)
        space_terms.append(integrate(space, grid))

    wp = np.array([test_field.w_prime(t) for t in times])
    w = np.array([test_field.w(t) for t in times])

    time_integral = np.trapezoid(np.array(dt_terms) * wp + np.array(space_terms) * w, times)
    initial = test_field.w(times[0]) * integrate(np.sum(states[0].mom * phi, axis=0), grid)
    return float(abs(initial + time_integral))
