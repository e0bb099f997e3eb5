"""Explicit time integration of the degenerate-viscosity flow equations.

The state (rho, m) evolves in conservative form on a periodic grid:

* mass flux and momentum convection use a local Lax-Friedrichs flux on
  piecewise-linear (MUSCL) reconstructed states, second order on smooth
  fields while keeping reconstructed densities nonnegative near dry cells;
* the pressure gradient grad(rho^gamma) and the degenerate viscous terms
  div(h(rho) grad u) and grad(g(rho) div u) are centered, the shear part in
  compact flux form with face-averaged h so its energy contribution is
  sign-definite;
* velocity is reconstructed with a hard vacuum cutoff (u = 0 wherever
  rho <= eps_vac), so convective and viscous contributions vanish on dry
  cells.

Time stepping is strong-stability-preserving RK2 by default (classical RK4
optional).  Negative densities are clamped to zero and momentum on
sub-cutoff cells is zeroed; both events are counted and reported, never
silent.  A forcing hook on the momentum equation exists solely for
manufactured-solution testing and is zero in physical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics
from .diagnostics import EntropyLedger, MomentParams, ledger_row
from .grid import PeriodicGrid, State, derived, grad
from .viscosity import AdmissibilityParams, ViscosityLaw, validate

INTEGRATORS = ("RK2_SSP", "RK4")
LIMITERS = ("mc", "minmod", "van_albada", "none")
DT_FLOOR_FACTOR = 1e-12


class SolverError(RuntimeError):
    """Aborted run (non-finite fields or timestep underflow)."""


class NonAdmissibleLawError(ValueError):
    """The configured law fails validation and no override was given."""


@dataclass
class SolverConfig:
    law: ViscosityLaw
    params: AdmissibilityParams
    grid: PeriodicGrid
    t_end: float
    cfl: float = 0.4
    integrator: str = "RK2_SSP"
    eps_vac: float | None = None
    ledger_stride: int = 10
    moment: MomentParams = field(default_factory=MomentParams)
    limiter: str = "mc"
    forcing: Callable | None = None
    allow_non_admissible: bool = False

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0,1), got {self.cfl}")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.limiter not in LIMITERS:
            raise ValueError(f"limiter must be one of {LIMITERS}")
        if self.ledger_stride < 1:
            raise ValueError("ledger_stride must be >= 1")

    @property
    def gamma(self) -> float:
        return self.params.gamma


@dataclass
class Trajectory:
    """Checkpointed run output: states every ledger stride plus counters."""

    times: list[float] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    final_state: State | None = None
    step_count: int = 0
    clamp_count: int = 0
    vacuum_zero_count: int = 0
    initial_vacuum_momentum_zeroed: int = 0
    step_times: list[float] = field(default_factory=list)
    step_energies: list[float] = field(default_factory=list)
    non_admissible: bool = False


def _resolve_eps_vac(config: SolverConfig, initial: State) -> float:
    if config.eps_vac is not None:
        return config.eps_vac
    peak = float(np.max(initial.rho))
    if peak <= 0.0:
        return 1e-10
    return 1e-10 * peak


def _limited_slope(q: np.ndarray, axis: int, h: float, limiter: str) -> np.ndarray:
    dminus = (q - np.roll(q, 1, axis=axis)) / h
    dplus = (np.roll(q, -1, axis=axis) - q) / h
    central = 0.5 * (dminus + dplus)
    if limiter == "none":
        return central
    if limiter == "van_albada":
        # smooth limiter: second order at smooth extrema, damped at fronts
        denom = dminus * dminus + dplus * dplus
        slope = dminus * dplus * (dminus + dplus) / np.where(denom > 0.0, denom, 1.0)
        return np.where((denom > 0.0) & (dminus * dplus > 0.0), slope, 0.0)
    same = dminus * dplus > 0.0
    if limiter == "minmod":
        mag = np.minimum(np.abs(dminus), np.abs(dplus))
    else:  # monotonized central
        mag = np.minimum(np.abs(central), 2.0 * np.minimum(np.abs(dminus), np.abs(dplus)))
    return np.where(same, np.sign(central) * mag, 0.0)


def _face_states(q: np.ndarray, axis: int, h: float, limiter: str):
    """Left/right reconstructions at face i+1/2 for every i."""
    sl = _limited_slope(q, axis, h, limiter)
    q_left = q + 0.5 * h * sl
    q_right = np.roll(q, -1, axis=axis) - 0.5 * h * np.roll(sl, -1, axis=axis)
    return q_left, q_right


def _face_velocity(rho_face: np.ndarray, m_face: np.ndarray, eps_vac: float) -> np.ndarray:
    wet = rho_face > eps_vac
    return np.where(wet, m_face / np.where(wet, rho_face, 1.0), 0.0)


def _harmonic_face(h_cell: np.ndarray, axis: int) -> np.ndarray:
    right = np.roll(h_cell, -1, axis=axis)
    s = h_cell + right
    return np.where(s > 0.0, 2.0 * h_cell * right / np.where(s > 0.0, s, 1.0), 0.0)


def rhs(state: State, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt)."""
    grid = config.grid
    state.check_shapes(grid)
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("rhs needs a resolved eps_vac on the config")
    gamma = config.gamma
    rho = state.rho
    mom = state.mom
    d = derived(state, grid, eps_vac)

    drho = grid.zeros()
    dmom = grid.zeros_vector()

    # local wave speed |u| + sound speed, per cell
    cs = np.sqrt(gamma * np.maximum(rho, 0.0) ** (gamma - 1.0))
    speed = np.sqrt(np.sum(d.u**2, axis=0)) + cs

    for axis in range(grid.dim):
        h = grid.spacing[axis]
        a_face = np.maximum(speed, np.roll(speed, -1, axis=axis))
        rho_l, rho_r = _face_states(rho, axis, h, config.limiter)
        rho_l = np.maximum(rho_l, 0.0)
        rho_r = np.maximum(rho_r, 0.0)
        m_l = np.empty_like(mom)
        m_r = np.empty_like(mom)
        for j in range(grid.dim):
            m_l[j], m_r[j] = _face_states(mom[j], axis, h, config.limiter)
        u_ax_l = _face_velocity(rho_l, m_l[axis], eps_vac)
        u_ax_r = _face_velocity(rho_r, m_r[axis], eps_vac)

        # mass: local Lax-Friedrichs on the reconstructed states
        flux_rho = 0.5 * (m_l[axis] + m_r[axis]) - 0.5 * a_face * (rho_r - rho_l)
        drho -= (flux_rho - np.roll(flux_rho, 1, axis=axis)) / h

        # momentum convection, upwinded the same way
        for j in range(grid.dim):
            flux_m = 0.5 * (m_l[j] * u_ax_l + m_r[j] * u_ax_r) - 0.5 * a_face * (m_r[j] - m_l[j])
            dmom[j] -= (flux_m - np.roll(flux_m, 1, axis=axis)) / h

    # pressure gradient, centered
    dmom -= grad(np.maximum(rho, 0.0) ** gamma, grid)

    # shear viscosity in compact flux form; harmonic face coefficient so the
    # flux degenerates with the density at dry faces
    h_cell = config.law.h(np.maximum(rho, 0.0))
    for axis in range(grid.dim):
        h_sp = grid.spacing[axis]
        h_face = _harmonic_face(h_cell, axis)
        for j in range(grid.dim):
            du_face = (np.roll(d.u[j], -1, axis=axis) - d.u[j]) / h_sp
            visc_flux = h_face * du_face
            dmom[j] += (visc_flux - np.roll(visc_flux, 1, axis=axis)) / h_sp

    # second-coefficient term grad(g * div u), centered
    g_cell = config.law.g(np.maximum(rho, 0.0))
    if np.any(g_cell != 0.0):
        div_u = grid.zeros()
        for axis in range(grid.dim):
            div_u += (np.roll(d.u[axis], -1, axis=axis) - np.roll(d.u[axis], 1, axis=axis)) / (
                2.0 * grid.spacing[axis]
            )
        dmom += grad(g_cell * div_u, grid)

    if config.forcing is not None:
        dmom = dmom + config.forcing(state.t, grid)
    return drho, dmom


def stable_dt(state: State, config: SolverConfig) -> float:
    """Explicit stability bound: cfl times the harsher of the advective limit
    dx/(max|u| + max c) and the diffusive limit of the actual viscous stencil,
    min over wet cells of rho_i / sum_faces(h_face/dx^2).  On constant states
    the diffusive limit reduces to dx^2 min(rho)/(2 dim max h); near vacuum
    the local form stays bounded where the global min/max pairing would
    underflow (the viscous rate at a cell scales with h/rho there, not with
    max h / min rho)."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("stable_dt needs a resolved eps_vac on the config")
    gamma = config.gamma
    dx = min(grid.spacing)
    rho = np.maximum(state.rho, 0.0)
    d = derived(state, grid, eps_vac)
    umax = float(np.max(np.sqrt(np.sum(d.u**2, axis=0))))
    cmax = float(np.max(np.sqrt(gamma * rho ** (gamma - 1.0))))
    wet = rho > eps_vac
    if not np.any(wet):
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        return config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref)
    adv = dx / (umax + cmax) if umax + cmax > 0 else math.inf
    h_cell = config.law.h(rho)
    rate = np.zeros(grid.sizes)
    for axis in range(grid.dim):
        h_face = _harmonic_face(h_cell, axis)
        rate += (h_face + np.roll(h_face, 1, axis=axis)) / grid.spacing[axis] ** 2
    with np.errstate(divide="ignore"):
        diff_all = np.where(rate > 0.0, rho / np.where(rate > 0.0, rate, 1.0), math.inf)
    diff = float(np.min(diff_all[wet]))
    dt = config.cfl * min(adv, diff)
    if not math.isfinite(dt) or dt <= 0:
        raise SolverError(f"no finite stable timestep (adv={adv}, diff={diff})")
    return dt


def _apply_floors(rho: np.ndarray, mom: np.ndarray, eps_vac: float):
    """Clamp negative densities and zero momentum on sub-cutoff cells.
    Returns (clamped cells, zeroed cells)."""
    neg = rho < 0.0
    n_clamp = int(np.count_nonzero(neg))
    if n_clamp:
        rho[neg] = 0.0
    dry = rho <= eps_vac
    carrying = dry & np.any(mom != 0.0, axis=0)
    n_zero = int(np.count_nonzero(carrying))
    if n_zero:
        mom[:, carrying] = 0.0
    return n_clamp, n_zero


def _check_finite(state: State, where: str):
    if not (np.all(np.isfinite(state.rho)) and np.all(np.isfinite(state.mom))):
        bad_rho = int(np.count_nonzero(~np.isfinite(state.rho)))
        bad_mom = int(np.count_nonzero(~np.isfinite(state.mom)))
        raise SolverError(
            f"non-finite fields {where} (t={state.t:.6g}): "
            f"{bad_rho} density cells, {bad_mom} momentum entries; "
            f"max|rho|={np.nanmax(np.abs(state.rho)):.3g}"
        )


def step(state: State, config: SolverConfig, dt: float):
    """One explicit step.  Returns (new state, clamped cells, zeroed cells),
    the counts summed over every stage."""
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("step needs a resolved eps_vac on the config")
    clamps = zeros = 0

    def floored(t: float, rho: np.ndarray, mom: np.ndarray, where: str) -> State:
        # every stage state passes through here: floors, counts, finiteness
        nonlocal clamps, zeros
        out = State(t, rho, mom)
        c, z = _apply_floors(out.rho, out.mom, eps_vac)
        clamps += c
        zeros += z
        _check_finite(out, where)
        return out

    if config.integrator == "RK2_SSP":
        dr, dm = rhs(state, config)
        s1 = floored(state.t + dt, state.rho + dt * dr, state.mom + dt * dm, "after stage 1")
        dr, dm = rhs(s1, config)
        new = floored(
            state.t + dt,
            0.5 * state.rho + 0.5 * (s1.rho + dt * dr),
            0.5 * state.mom + 0.5 * (s1.mom + dt * dm),
            "after step",
        )
    else:  # RK4
        ks = [rhs(state, config)]
        for n, c in enumerate((0.5, 0.5, 1.0), start=2):
            kr, km = ks[-1]
            s = floored(state.t + c * dt, state.rho + c * dt * kr, state.mom + c * dt * km,
                        f"after stage {n}")
            ks.append(rhs(s, config))
        (k1r, k1m), (k2r, k2m), (k3r, k3m), (k4r, k4m) = ks
        new = floored(
            state.t + dt,
            state.rho + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            state.mom + dt / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            "after step",
        )
    return new, clamps, zeros


def run(config: SolverConfig, initial: State) -> tuple[Trajectory, EntropyLedger]:
    """Advance to t_end, recording the diagnostics ledger every
    ``ledger_stride`` steps (plus the initial and final instants)."""
    grid = config.grid
    initial.check_shapes(grid)
    eps_vac = _resolve_eps_vac(config, initial)
    cfg = replace(config, eps_vac=eps_vac)
    cfg.moment.validate(cfg.params.nu)

    traj = Trajectory()
    report = validate(cfg.law, cfg.params)
    if not report.overall:
        if not cfg.allow_non_admissible:
            raise NonAdmissibleLawError(
                f"law {cfg.law.describe()} fails validation "
                f"({[r.condition for r in report.records if r.applicable and not r.passed]}); "
                "pass allow_non_admissible=True to run anyway"
            )
        traj.non_admissible = True

    state = initial.copy()
    if np.any(state.rho < 0.0):
        raise ValueError("initial density must be nonnegative")
    _, zeroed = _apply_floors(state.rho, state.mom, eps_vac)
    traj.initial_vacuum_momentum_zeroed = zeroed
    _check_finite(state, "in initial data")

    ledger = EntropyLedger(
        metadata={
            "law": cfg.law.describe(),
            "nu": cfg.params.nu,
            "gamma": cfg.gamma,
            "delta": cfg.moment.delta,
            "alpha": cfg.moment.alpha,
            "eps_vac": eps_vac,
            "cells": "x".join(str(n) for n in grid.sizes),
            "integrator": cfg.integrator,
            "cfl": cfg.cfl,
            "ledger_stride": cfg.ledger_stride,
        }
    )

    def record(st: State):
        traj.times.append(st.t)
        traj.states.append(st.copy())
        ledger.append(
            ledger_row(st, grid, cfg.law, cfg.gamma, cfg.moment, eps_vac,
                       clamp_count=traj.clamp_count, cutoff_count=traj.vacuum_zero_count)
        )

    record(state)
    traj.step_times.append(state.t)
    traj.step_energies.append(diagnostics.energy(state, grid, cfg.gamma, eps_vac))

    dt_floor = DT_FLOOR_FACTOR * cfg.t_end
    t_tol = 1e-12 * cfg.t_end
    while state.t < cfg.t_end - t_tol:
        dt = stable_dt(state, cfg)
        if dt < dt_floor:
            raise SolverError(f"timestep underflow: required dt {dt:.3g} < floor {dt_floor:.3g}")
        dt = min(dt, cfg.t_end - state.t)
        state, clamps, zeros = step(state, cfg, dt)
        traj.step_count += 1
        traj.clamp_count += clamps
        traj.vacuum_zero_count += zeros
        traj.step_times.append(state.t)
        traj.step_energies.append(diagnostics.energy(state, grid, cfg.gamma, eps_vac))
        if traj.step_count % cfg.ledger_stride == 0 or state.t >= cfg.t_end - t_tol:
            record(state)

    traj.final_state = state
    return traj, ledger
