"""Spectral certification of the entropy-balance derivations.

Each checker evaluates one algebraic step of the entropy machinery on a
closed-form, band-limited manufactured field, with every time derivative
eliminated through the equations of motion themselves:

    dt(rho)   := -div(rho u)
    dt(rho u) := -div(rho u x u) - grad(rho^gamma)
                 + div(h grad u) + grad(g div u)

so that what remains is a purely spatial algebraic identity.  Spatial
derivatives are Fourier collocation; on band-limited fields the residual of
a true identity sits at the aliasing/round-off floor and must fall by
orders of magnitude under grid doubling.  A broken premise (for instance a
coefficient pair violating g = rho h' - h) leaves a grid-independent
residual, which is how the checks certify that each hypothesis is actually
used.

Equality checks report normalized residuals; inequality steps report their
slack, which must stay nonnegative up to the same normalized floor.  No
solver code is involved anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import _json
from .grid import PeriodicGrid, _wave_vector, integrate, spectral_grad, spectral_div
from .viscosity import TamperedLaw, _check_gamma, find_max_nu

TOL_ABS = 1e-8
ORDER_MIN = 4.0
RESIDUAL_FLOOR = 1e-13
# A scale below this share of the field's natural magnitude (``_Ctx.natural``)
# is round-off: the terms of a true identity whose integrands cancel by the
# orthogonality of the field's modes.  Measured against this floor, their
# defect, about 1e-15 of the natural magnitude, reads about 1e-9, not O(1).
SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class ManufacturedField:
    """Closed-form band-limited (rho, u) on the torus.

    ``rho = rho_mean + sum amp * cos(2 pi k.x / L + phase)`` and likewise per
    velocity component.  The analytic positivity margin
    ``rho_mean - sum |amp|`` must be positive.
    """

    dim: int
    rho_mean: float
    rho_modes: tuple
    u_mean: tuple
    u_modes: tuple  # one tuple of modes per component

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if len(self.u_mean) != self.dim or len(self.u_modes) != self.dim:
            raise ValueError("u_mean/u_modes must have one entry per component")
        if self.rho_min <= 0:
            raise ValueError(
                f"density positivity margin {self.rho_min:g} must be positive"
            )

    @property
    def rho_min(self) -> float:
        return self.rho_mean - sum(abs(a) for a, _, _ in self.rho_modes)

    @property
    def band_limit(self) -> int:
        ks = [1]
        for a, kvec, _ in self.rho_modes:
            ks.append(max(abs(k) for k in kvec))
        for comp in self.u_modes:
            for a, kvec, _ in comp:
                ks.append(max(abs(k) for k in kvec))
        return max(ks)

    @property
    def speed_margin(self) -> float:
        """Analytic lower bound on |u| from the stored coefficients (the best
        single-component bound |mean| - sum|amp|)."""
        return max(
            abs(self.u_mean[c]) - sum(abs(a) for a, _, _ in self.u_modes[c])
            for c in range(self.dim)
        )

    def _eval_modes(self, modes, mean, xs, lengths):
        out = np.full(xs[0].shape, float(mean))
        for a, kvec, phase in modes:
            arg = sum(2.0 * math.pi * kvec[i] * xs[i] / lengths[i] for i in range(self.dim))
            out = out + a * np.cos(arg + phase)
        return out

    def evaluate(self, grid: PeriodicGrid):
        if grid.dim != self.dim:
            raise ValueError("grid dimension mismatch")
        xs = grid.coords()
        rho = self._eval_modes(self.rho_modes, self.rho_mean, xs, grid.lengths)
        u = np.stack([
            self._eval_modes(self.u_modes[c], self.u_mean[c], xs, grid.lengths)
            for c in range(self.dim)
        ])
        return rho, u


def manufactured_field(dim: int, seed: int = 0, n_modes: int = 2, kmax: int = 2,
                       rho_mean: float = 1.0, rho_amp: float = 0.3,
                       u_mean: float | tuple = 1.5, u_amp: float = 0.4) -> ManufacturedField:
    """Fixed seeded Fourier sums; coefficients are reproducible bit-for-bit.

    The default velocity mean keeps |u| bounded away from zero, which the
    velocity-moment check needs (it raises fractional powers of |u|).
    """
    rng = np.random.default_rng(seed)

    def draw_modes(total_amp):
        amps = rng.uniform(0.4, 1.0, size=n_modes)
        amps *= total_amp / np.sum(amps)
        # each mode draws its wave vector, then its phase
        return tuple((float(a), _wave_vector(rng, dim, kmax),
                      float(rng.uniform(0.0, 2.0 * math.pi))) for a in amps)

    if np.isscalar(u_mean):
        u_mean = tuple(float(u_mean) * (1.0 if c == 0 else -0.7) for c in range(dim))
    return ManufacturedField(
        dim=dim,
        rho_mean=float(rho_mean),
        rho_modes=draw_modes(rho_amp),
        u_mean=tuple(float(x) for x in u_mean),
        u_modes=tuple(draw_modes(u_amp) for _ in range(dim)),
    )


def gradient_flow_field(dim: int, seed: int = 0, n_modes: int = 2, kmax: int = 2,
                        rho_mean: float = 1.0, rho_amp: float = 0.3,
                        amp: float = 0.3, length: float = 1.0) -> ManufacturedField:
    """Manufactured field whose velocity is an exact gradient u = grad(chi);
    for such fields the symmetrization slack of the combined entropy
    inequality vanishes identically."""
    base = manufactured_field(dim, seed=seed, n_modes=n_modes, kmax=kmax,
                              rho_mean=rho_mean, rho_amp=rho_amp, u_amp=0.0)
    rng = np.random.default_rng(seed + 1)
    chi_modes = []
    for _ in range(n_modes):
        kvec = _wave_vector(rng, dim, kmax)
        chi_modes.append((float(rng.uniform(0.5, 1.0) * amp), kvec,
                          float(rng.uniform(0.0, 2.0 * math.pi))))
    # d_j of a*cos(arg + p) is (a*kw_j)*cos(arg + p + pi/2)
    u_modes = []
    for c in range(dim):
        comp = []
        for a, kvec, p in chi_modes:
            kw = 2.0 * math.pi * kvec[c] / length
            if kw != 0.0:
                comp.append((-a * kw * 1.0, kvec, p + 0.5 * math.pi))
        u_modes.append(tuple(comp))
    return ManufacturedField(dim, base.rho_mean, base.rho_modes,
                             tuple(0.0 for _ in range(dim)), tuple(u_modes))


class _Ctx:
    """All spectral quantities for one field on one grid, each computed at
    most once and shared by every checker run on that grid.  A tensor term
    is one whole array and each spectral derivative one forward and one
    inverse transform of it, whatever the number of its components."""

    def __init__(self, mf: ManufacturedField, law, gamma: float, n: int):
        self.grid = PeriodicGrid(tuple(n for _ in range(mf.dim)))
        if mf.band_limit > n // 8:
            raise ValueError(
                f"field band limit {mf.band_limit} exceeds Nyquist/4 of a {n}-cell grid"
            )
        self.law = law
        self.gamma = gamma
        self.rho, self.u = mf.evaluate(self.grid)
        self.dim = mf.dim

    # raw fields ------------------------------------------------------------
    @cached_property
    def m(self):
        return self.rho * self.u

    @cached_property
    def h(self):
        return self.law.h(self.rho)

    @cached_property
    def hp(self):
        return self.law.h_prime(self.rho)

    @cached_property
    def g(self):
        return self.law.g(self.rho)

    @cached_property
    def phi(self):
        return self.law.phi(self.rho)

    @cached_property
    def phi_p(self):
        return self.hp / self.rho

    # spectral derivatives ----------------------------------------------------
    @cached_property
    def grad_u(self):
        """grad_u[i, j] = d_i u_j: the gradient of u as a stack of scalar fields."""
        return spectral_grad(self.u, self.grid)

    @cached_property
    def grad_u_sq(self):
        return np.sum(self.grad_u**2, axis=(0, 1))

    @cached_property
    def div_u(self):
        return np.trace(self.grad_u)

    @cached_property
    def w(self):
        """grad(phi(rho))"""
        return spectral_grad(self.phi, self.grid)

    @cached_property
    def lap_phi(self):
        """lap(phi) = div(grad phi), from the cached grad phi."""
        return spectral_div(self.w, self.grid)

    @cached_property
    def grad_p(self):
        return spectral_grad(self.rho**self.gamma, self.grid)

    @cached_property
    def div_m(self):
        return spectral_div(self.m, self.grid)

    @cached_property
    def dt_rho(self):
        return -self.div_m

    @cached_property
    def visc_h_term(self):
        """div(h grad u), component j = sum_i d_i(h d_i u_j): the divergence
        over i of the whole tensor."""
        return spectral_div(self.h * self.grad_u, self.grid)

    @cached_property
    def visc_g_term(self):
        """grad(g div u); exact zeros when the law's g is identically 0."""
        if self.law.g_vanishes:
            return np.zeros_like(self.u)
        return spectral_grad(self.g * self.div_u, self.grid)

    @cached_property
    def conv_term(self):
        """div(rho u x u), component j = sum_i d_i(rho u_i u_j): the divergence
        over i of the whole tensor m_i u_j."""
        return spectral_div(self.m[:, np.newaxis] * self.u, self.grid)

    @cached_property
    def dt_m(self):
        return -self.conv_term - self.grad_p + self.visc_h_term + self.visc_g_term

    # composite rates ---------------------------------------------------------
    def int_(self, f):
        return integrate(f, self.grid)

    @cached_property
    def natural(self):
        """int rho (|grad u|^2 + |grad phi|^2): the size of the velocity and
        density gradients every identity's terms are built from."""
        return self.int_(self.rho * (self.grad_u_sq + np.sum(self.w**2, axis=0)))

    def norm(self, value: float, scale: float) -> float:
        """|value| relative to the scale of an identity's terms, floored at
        the round-off level of the natural magnitude (see SCALE_FLOOR)."""
        return abs(value) / max(scale, SCALE_FLOOR * self.natural, 1e-30)

    @cached_property
    def d_dt_kinetic(self):
        """d/dt int rho|u|^2/2 via the chain rule through (rho, m)."""
        udm = np.sum(self.u * self.dt_m, axis=0)
        u2 = np.sum(self.u**2, axis=0)
        return self.int_(udm - 0.5 * u2 * self.dt_rho)

    @cached_property
    def d_dt_pressure(self):
        gam = self.gamma
        return gam / (gam - 1.0) * self.int_(self.rho ** (gam - 1.0) * self.dt_rho)

    @cached_property
    def grad_phi_rate(self):
        """dt grad(phi) = grad(phi'(rho) dt rho)."""
        return spectral_grad(self.phi_p * self.dt_rho, self.grid)

    @cached_property
    def d_dt_half_sq(self):
        """d/dt int rho |grad phi|^2 / 2."""
        w2 = np.sum(self.w**2, axis=0)
        return self.int_(0.5 * w2 * self.dt_rho + self.rho * np.sum(self.w * self.grad_phi_rate, axis=0))

    @cached_property
    def d_dt_cross(self):
        """d/dt int rho u . grad phi."""
        return self.int_(np.sum(self.dt_m * self.w, axis=0)) + self.int_(
            np.sum(self.m * self.grad_phi_rate, axis=0)
        )

    @cached_property
    def visc_h(self):
        """int h |grad u|^2."""
        return self.int_(self.h * self.grad_u_sq)

    @cached_property
    def visc_g(self):
        """int g (div u)^2."""
        return self.int_(self.g * self.div_u**2)



@dataclass
class IdentityReport:
    """Residual/slack record for one identity across a grid sequence."""

    identity: str
    grids: list[int]
    residuals: dict[str, list[float]] = field(default_factory=dict)
    slacks: dict[str, list[float]] = field(default_factory=dict)
    orders: dict[str, float] = field(default_factory=dict)
    terms: list[dict] = field(default_factory=list)
    tol_abs: float = TOL_ABS
    order_min: float = ORDER_MIN

    def finalize(self):
        if not self.grids or any(b <= a for a, b in zip(self.grids, self.grids[1:])):
            raise ValueError(
                f"grid sequence must be nonempty and strictly increasing, got {self.grids}"
            )
        for name, series in self.residuals.items():
            self.orders[name] = fitted_order(self.grids, series)
        return self

    @property
    def verdict(self) -> bool:
        """Every residual finite, and at the round-off floor or converging at
        order_min; every slack finite and nonnegative up to tol_abs."""
        for name, series in self.residuals.items():
            if not all(map(math.isfinite, series)):
                return False
            if series[-1] >= self.tol_abs and self.orders.get(name, 0.0) < self.order_min:
                return False
        for series in self.slacks.values():
            if not all(s >= -self.tol_abs for s in series):  # NaN too
                return False
        return True

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "grids": list(self.grids),
            "residuals": {k: list(v) for k, v in self.residuals.items()},
            "slacks": {k: list(v) for k, v in self.slacks.items()},
            "order": dict(self.orders),
            "verdict": "pass" if self.verdict else "fail",
        }

    def dumps(self) -> str:
        return _json.dumps(self.to_json(), indent=2, sort_keys=True)


def fitted_order(grids, residuals) -> float:
    """Least-squares slope of -log(residual) against log(cells)."""
    if len(grids) < 2:
        return 0.0
    x = np.log(np.asarray(grids, dtype=float))
    y = -np.log(np.maximum(np.asarray(residuals, dtype=float), RESIDUAL_FLOOR * 1e-3))
    return float(np.polyfit(x, y, 1)[0])


def _certify(mf: ManufacturedField, law, gamma: float, grids, checks) -> list[IdentityReport]:
    """One finalized report per (identity name, body) in checks.  Each grid
    gets one spectral context, shared by all the bodies; a body returns the
    (residuals, slacks, terms) of its identity on that grid."""
    _check_gamma(gamma)
    reports = [IdentityReport(name, list(grids)) for name, _ in checks]
    for n in grids:
        c = _Ctx(mf, law, gamma, n)
        for rep, (_, body) in zip(reports, checks):
            residuals, slacks, terms = body(c)
            for name, value in residuals.items():
                rep.residuals.setdefault(name, []).append(value)
            for name, value in slacks.items():
                rep.slacks.setdefault(name, []).append(value)
            rep.terms.append(terms)
    return [rep.finalize() for rep in reports]


def _energy_step(c: _Ctx):
    lhs = c.d_dt_kinetic + c.d_dt_pressure
    rhs = -c.visc_h - c.visc_g
    scale = max(abs(c.d_dt_kinetic), abs(c.d_dt_pressure), abs(c.visc_h), abs(c.visc_g))
    terms = {
        "d_dt_kinetic": c.d_dt_kinetic,
        "d_dt_pressure": c.d_dt_pressure,
        "visc_h": c.visc_h,
        "visc_g": c.visc_g,
    }
    return {"equality": c.norm(lhs - rhs, scale)}, {}, terms


def verify_energy_step(mf: ManufacturedField, law, gamma: float, grids) -> IdentityReport:
    """Energy balance: d/dt of kinetic + pressure energy against the viscous
    dissipation, under PDE substitution."""
    return _certify(mf, law, gamma, grids, [("energy_step", _energy_step)])[0]


def _grad_phi_transport(c: _Ctx):
    w = c.w
    quad = np.einsum("ij...,i...,j...->...", c.grad_u, w, w)  # d_i u_j d_i phi d_j phi
    t1 = -c.int_(c.rho * quad)
    t2 = c.int_(c.rho**2 * c.phi_p * c.lap_phi * c.div_u)
    w2 = np.sum(w**2, axis=0)
    t3 = c.int_(c.rho * w2 * c.div_u)
    lhs = c.d_dt_half_sq
    rhs = t1 + t2 + t3
    scale = max(abs(t1), abs(t2), abs(t3), abs(lhs))
    return {"equality": c.norm(lhs - rhs, scale)}, {}, {"lhs": lhs, "t1": t1, "t2": t2, "t3": t3}


def verify_step2(mf: ManufacturedField, law, grids) -> IdentityReport:
    """Transport identity for the weighted density-gradient energy
    d/dt int rho |grad phi|^2 / 2 (three-term right-hand side)."""
    # the identity does not involve the pressure, so any gamma serves
    return _certify(mf, law, 2.0, grids, [("grad_phi_transport", _grad_phi_transport)])[0]


def _cross_term_expansion(c: _Ctx):
    w = c.w
    # (a) d/dt int rho u . grad phi = int grad phi . dt m + int (div m)^2 phi'
    direct = c.d_dt_cross
    via_ibp = c.int_(np.sum(w * c.dt_m, axis=0)) + c.int_(c.phi_p * c.div_m**2)
    scale_a = max(abs(direct), abs(via_ibp))

    # (b1) int grad(g div u) . grad phi = - int g lap(phi) div u
    lhs_g = c.int_(np.sum(c.visc_g_term * w, axis=0))
    rhs_g = -c.int_(c.g * c.lap_phi * c.div_u)
    scale_g = max(abs(lhs_g), abs(rhs_g))

    # (b2) int div(h grad u) . grad phi expanded into three terms
    lhs_h = c.int_(np.sum(c.visc_h_term * w, axis=0))
    grad_h = spectral_grad(c.h, c.grid)
    mix = np.einsum("i...,ji...,j...->...", grad_h, c.grad_u, w)  # d_i h d_j u_i d_j phi
    rhs_h = (
        c.int_(mix)
        - c.int_(np.sum(grad_h * w, axis=0) * c.div_u)
        - c.int_(c.h * c.lap_phi * c.div_u)
    )
    scale_h = max(abs(lhs_h), abs(rhs_h))
    residuals = {
        "cross_derivative": c.norm(direct - via_ibp, scale_a),
        "g_pairing": c.norm(lhs_g - rhs_g, scale_g),
        "h_pairing": c.norm(lhs_h - rhs_h, scale_h),
    }
    return residuals, {}, {"cross_direct": direct, "g_lhs": lhs_g, "h_lhs": lhs_h}


def verify_step3_cross(mf: ManufacturedField, law, gamma: float, grids) -> IdentityReport:
    """Cross-term derivative identity plus the two diffusion integration-by-
    parts rewritings used to expand grad(phi) . dt(rho u)."""
    return _certify(mf, law, gamma, grids, [("cross_term_expansion", _cross_term_expansion)])[0]


def _bd_combination(c: _Ctx):
    w = c.w
    # int h d_i u_j d_j u_i
    transpose = c.int_(c.h * np.einsum("ij...,ji...->...", c.grad_u, c.grad_u))
    x_bd = c.int_(np.sum(w * c.grad_p, axis=0))  # int grad(phi) . grad(rho^gamma)
    dissipation = c.int_(c.h * c.grad_u_sq + c.g * c.div_u**2)

    lhs4 = -c.int_(np.sum(w * c.conv_term, axis=0)) + c.int_(c.phi_p * c.div_m**2)
    rhs4 = c.visc_g + transpose
    scale = max(abs(lhs4), abs(rhs4), c.visc_h)
    sym = c.visc_h - transpose
    d_ebd = c.d_dt_kinetic + c.d_dt_pressure + c.d_dt_cross + c.d_dt_half_sq
    balance = dissipation - (d_ebd + x_bd)
    slacks = {
        "symmetry_slack": sym / max(c.visc_h, 1e-30),
        "entropy_balance_slack": balance / max(abs(dissipation), abs(x_bd), 1e-30),
    }
    terms = {
        "lhs4": lhs4, "rhs4": rhs4, "visc_h": c.visc_h, "visc_g": c.visc_g,
        "d_dt_entropy": d_ebd, "x_bd": x_bd,
    }
    return {"step4_chain": c.norm(lhs4 - rhs4, scale)}, slacks, terms


def verify_bd_combination(mf: ManufacturedField, law, gamma: float, grids) -> IdentityReport:
    """Combined entropy balance.  The equality chain

        -int grad(phi).div(rho u x u) + int phi'(div(rho u))^2
            = int g (div u)^2 + int h d_i u_j d_j u_i

    holds only under the structural relation g = rho h' - h; with a tampered
    pair its residual stays O(1) under refinement.  The inequality part is
    the nonnegative symmetrization slack int h (|grad u|^2 - d_i u_j d_j u_i),
    and the combined statement bounds d/dt of the weighted entropy plus the
    pressure cross term by the viscous dissipation."""
    return _certify(mf, law, gamma, grids, [("bd_combination", _bd_combination)])[0]


def _moment_balance(c: _Ctx, delta: float, nu: float):
    N = c.dim
    umag = np.sqrt(np.sum(c.u**2, axis=0))
    ud = umag**delta
    u_du = np.einsum("j...,ij...->i...", c.u, c.grad_u)  # component i: u . d_i u

    # d/dt int rho |u|^{2+delta}/(2+delta) by the chain rule
    udm = np.sum(c.u * c.dt_m, axis=0)
    d_dt_m = c.int_(
        ud * udm - (1.0 + delta) / (2.0 + delta) * umag ** (2.0 + delta) * c.dt_rho
    )
    v_h = c.int_(c.h * ud * c.grad_u_sq)
    # delta * int h |u|^{delta-2} sum_i (u . d_i u)^2
    proj = np.sum(u_du**2, axis=0)
    v_h_delta = delta * c.int_(c.h * umag ** (delta - 2.0) * proj)
    v_g = c.int_(c.g * ud * c.div_u**2)
    # delta * int g |u|^{delta-2} (div u) sum_{jk} u_j u_k d_j u_k
    cross = np.sum(c.u * u_du, axis=0)
    v_g_delta = delta * c.int_(c.g * umag ** (delta - 2.0) * c.div_u * cross)
    pressure = c.int_(ud * np.sum(c.u * c.grad_p, axis=0))

    resid = d_dt_m + v_h + v_h_delta + v_g + v_g_delta + pressure
    scale = max(abs(d_dt_m), v_h, abs(pressure))

    # inequality links
    div_slack = c.int_(c.h * ud * (N * c.grad_u_sq - c.div_u**2))

    gu_mag = np.sqrt(c.grad_u_sq)
    cs_lhs = c.int_(c.rho**c.gamma * ud * gu_mag)
    press_bound = (math.sqrt(N) + delta) * cs_lhs

    weighted = c.int_(c.rho ** (2.0 * c.gamma) / c.h * ud)
    cs_bound = math.sqrt(max(v_h, 0.0)) * math.sqrt(max(weighted, 0.0))

    p_exp = 2.0 / (2.0 - delta)
    hold_bound = c.int_(
        (c.rho ** (2.0 * c.gamma - delta / 2.0) / c.h) ** p_exp
    ) ** ((2.0 - delta) / 2.0) * c.int_(c.rho * umag**2) ** (delta / 2.0)

    end_slack = hold_bound - (d_dt_m + 0.25 * nu * v_h)
    slacks = {
        "div_bound_slack": div_slack / max(v_h * N, 1e-30),
        "pressure_ibp_slack": (press_bound - abs(pressure)) / max(press_bound, 1e-30),
        "cauchy_schwarz_slack": (cs_bound - cs_lhs) / max(cs_bound, 1e-30),
        "holder_slack": (hold_bound - weighted) / max(hold_bound, 1e-30),
        "end_to_end_slack": end_slack / max(hold_bound, abs(d_dt_m), 1e-30),
    }
    terms = {
        "d_dt_moment": d_dt_m, "v_h": v_h, "v_h_delta": v_h_delta,
        "v_g": v_g, "v_g_delta": v_g_delta, "pressure": pressure,
        "moment_rhs": hold_bound, "nu": nu,
    }
    return {"equality": c.norm(resid, scale)}, slacks, terms


def _moment_check(mf: ManufacturedField, law, gamma: float, delta: float, nu: float | None):
    """The moment checker's (identity name, body), after the prechecks that
    must pass before any grid work."""
    _check_gamma(gamma)
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    if nu is not None and not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if nu is not None and not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie strictly in (0,1), got {nu}")
    if nu is None:
        # a tampered pair fails condition (10) for every nu: the negative
        # control takes the nu of the law it wraps
        base = law.base if isinstance(law, TamperedLaw) else law
        nu = find_max_nu(base, gamma=max(gamma, 1.5), N=mf.dim)
        if nu is None:
            raise ValueError("law admits no feasible nu; pass one explicitly")
    if delta >= nu / 4.0:
        raise ValueError(f"delta must stay below nu/4 = {nu / 4.0:g}, got {delta}")
    if mf.speed_margin <= 0.0:
        raise ValueError(
            "moment check needs |u| bounded away from zero "
            "(fractional powers of the speed lose smoothness at u = 0)"
        )
    return f"moment_balance_delta_{delta:g}", partial(_moment_balance, delta=delta, nu=nu)


def verify_moment_derivation(mf: ManufacturedField, law, gamma: float, delta: float,
                             grids, nu: float | None = None) -> IdentityReport:
    """Velocity-moment balance: multiplying the momentum equation by
    u |u|^delta gives an exact identity (checked as a residual) and a chain
    of inequalities (each checked as a nonnegative slack) ending in

        d/dt int rho |u|^{2+delta}/(2+delta) + (nu/4) int h |u|^delta |grad u|^2
            <= (int (rho^{2 gamma - delta/2}/h)^{2/(2-delta)})^{(2-delta)/2}
               (int rho |u|^2)^{delta/2}.
    """
    return _certify(mf, law, gamma, grids, [_moment_check(mf, law, gamma, delta, nu)])[0]


def run_all_identities(mf: ManufacturedField, law, gamma: float, grids,
                       delta: float = 0.05, nu: float | None = None) -> list[IdentityReport]:
    """Every checker on one field, sharing one spectral context per grid;
    used by the command-line driver."""
    checks = [
        ("energy_step", _energy_step),
        ("grad_phi_transport", _grad_phi_transport),
        ("cross_term_expansion", _cross_term_expansion),
        ("bd_combination", _bd_combination),
        _moment_check(mf, law, gamma, delta, nu),
    ]
    return _certify(mf, law, gamma, grids, checks)
