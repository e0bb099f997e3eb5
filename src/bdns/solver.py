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

Every stencil is a slice view of a field padded once per axis with a
periodic halo (two ghost cells for the limited slopes, one for faces), and
fluxes live on the n + 1 faces of an axis, so a flux difference is
``f[1:] - f[:-1]``.  The fields that depend on the state alone (clamped
density, cutoff velocity, wave speed, face viscosity, g) are computed once
per state in a private bundle that ``run`` shares between ``stable_dt`` and
the first stage of ``step``.  Each cell value takes the same operations,
in the same order, as the plain per-cell formula, so the layout changes no
result.

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
from .grid import _CUTS, PeriodicGrid, State, _Cut, _halo, div, grad
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


def _limited_slope(dminus: np.ndarray, dplus: np.ndarray, limiter: str) -> np.ndarray:
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


def _face_states(q: np.ndarray, cut: _Cut, h: float, limiter: str):
    """Left/right reconstructions on the n + 1 faces of the cut's axis, face k
    lying between cells k - 1 and k."""
    qp = _halo(q, cut, 2)
    diff = (qp[cut.hi] - qp[cut.lo]) / h  # diff[k] is the backward difference of cell k - 1
    half_slope = 0.5 * h * _limited_slope(diff[cut.lo], diff[cut.hi], limiter)
    qc = qp[cut.mid]  # cells -1 .. n
    return qc[cut.lo] + half_slope[cut.lo], qc[cut.hi] - half_slope[cut.hi]


def _face_velocity(rho_face: np.ndarray, m_face: np.ndarray, eps_vac: float) -> np.ndarray:
    wet = rho_face > eps_vac
    return np.where(wet, m_face / np.where(wet, rho_face, 1.0), 0.0)


def _harmonic_face(h_cell: np.ndarray, cut: _Cut) -> np.ndarray:
    """Harmonic mean of h on the n + 1 faces of the cut's axis; zero at a face
    with a dry side."""
    hp = _halo(h_cell, cut, 1)
    left, right = hp[cut.lo], hp[cut.hi]
    s = left + right
    pos = s > 0.0
    return np.where(pos, 2.0 * left * right / np.where(pos, s, 1.0), 0.0)


class _StageFields:
    """Fields of one state that both ``stable_dt`` and ``rhs`` need: the
    clamped density, the cutoff velocity (zero where rho <= eps_vac), the
    largest |u| and sound speed, the wave speed |u| + c per cell, the
    harmonic face viscosity of every axis and g(rho) (None when it is zero in
    every cell).  ``run`` builds one per step and hands it to ``stable_dt``
    and then to ``step``, which releases it after the first stage; it is
    never stored on the state."""

    def __init__(self, state: State, config: SolverConfig):
        eps_vac = config.eps_vac
        if eps_vac <= 0:
            raise ValueError("eps_vac must be positive")
        state.check_shapes(config.grid)
        gamma = config.gamma
        rho = state.rho
        self.rho = np.maximum(rho, 0.0)
        self.wet = rho > eps_vac
        self.u = np.where(self.wet, state.mom / np.where(self.wet, rho, 1.0), 0.0)
        umag = np.sqrt((self.u**2).sum(axis=0))
        cs = np.sqrt(gamma * self.rho ** (gamma - 1.0))
        self.umax = float(umag.max())
        self.cmax = float(cs.max())
        self.speed = umag + cs
        h_cell = config.law.h(self.rho)
        self.h_face = tuple(_harmonic_face(h_cell, cut) for cut in _CUTS[config.grid.dim])
        g_cell = config.law.g(self.rho)
        self.g = g_cell if (g_cell != 0.0).any() else None

    def release(self):
        """Drop every array, so that at most one bundle is alive per run."""
        self.__dict__.clear()


def rhs(state: State, config: SolverConfig, *, _fields: _StageFields | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt)."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("rhs needs a resolved eps_vac on the config")
    f = _StageFields(state, config) if _fields is None else _fields

    drho = grid.zeros()
    dmom = grid.zeros_vector()
    for axis, (cut, h) in enumerate(zip(_CUTS[grid.dim], grid.spacing)):
        sp = _halo(f.speed, cut, 1)
        half_a = 0.5 * np.maximum(sp[cut.lo], sp[cut.hi])
        rho_l, rho_r = _face_states(state.rho, cut, h, config.limiter)
        np.maximum(rho_l, 0.0, out=rho_l)
        np.maximum(rho_r, 0.0, out=rho_r)
        m_l, m_r = zip(*(_face_states(m, cut, h, config.limiter) for m in state.mom))
        u_ax_l = _face_velocity(rho_l, m_l[axis], eps_vac)
        u_ax_r = _face_velocity(rho_r, m_r[axis], eps_vac)

        # mass: local Lax-Friedrichs on the reconstructed states
        flux_rho = 0.5 * (m_l[axis] + m_r[axis]) - half_a * (rho_r - rho_l)
        drho -= (flux_rho[cut.hi] - flux_rho[cut.lo]) / h

        # momentum convection, upwinded the same way
        for j in range(grid.dim):
            flux_m = 0.5 * (m_l[j] * u_ax_l + m_r[j] * u_ax_r) - half_a * (m_r[j] - m_l[j])
            dmom[j] -= (flux_m[cut.hi] - flux_m[cut.lo]) / h

    # pressure gradient, centered
    dmom -= grad(f.rho**config.gamma, grid)

    # shear viscosity in compact flux form; harmonic face coefficient so the
    # flux degenerates with the density at dry faces
    for cut, h, h_face in zip(_CUTS[grid.dim], grid.spacing, f.h_face):
        for j in range(grid.dim):
            up = _halo(f.u[j], cut, 1)
            visc_flux = h_face * ((up[cut.hi] - up[cut.lo]) / h)
            dmom[j] += (visc_flux[cut.hi] - visc_flux[cut.lo]) / h

    # second-coefficient term grad(g * div u), centered
    if f.g is not None:
        dmom += grad(f.g * div(f.u, grid), grid)

    if config.forcing is not None:
        dmom = dmom + config.forcing(state.t, grid)
    return drho, dmom


def stable_dt(state: State, config: SolverConfig, *, _fields: _StageFields | None = None
              ) -> float:
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
    f = _StageFields(state, config) if _fields is None else _fields
    dx = min(grid.spacing)
    if not f.wet.any():
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        return config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref)
    adv = dx / (f.umax + f.cmax) if f.umax + f.cmax > 0 else math.inf
    rate = np.zeros(grid.sizes)
    for cut, h, h_face in zip(_CUTS[grid.dim], grid.spacing, f.h_face):
        rate += (h_face[cut.hi] + h_face[cut.lo]) / h**2
    with np.errstate(divide="ignore"):
        diff_all = np.where(rate > 0.0, f.rho / np.where(rate > 0.0, rate, 1.0), math.inf)
    diff = float(diff_all[f.wet].min())
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
    carrying = dry & (mom != 0.0).any(axis=0)
    n_zero = int(np.count_nonzero(carrying))
    if n_zero:
        mom[:, carrying] = 0.0
    return n_clamp, n_zero


def _check_finite(state: State, where: str):
    if not (np.isfinite(state.rho).all() and np.isfinite(state.mom).all()):
        bad_rho = int(np.count_nonzero(~np.isfinite(state.rho)))
        bad_mom = int(np.count_nonzero(~np.isfinite(state.mom)))
        raise SolverError(
            f"non-finite fields {where} (t={state.t:.6g}): "
            f"{bad_rho} density cells, {bad_mom} momentum entries; "
            f"max|rho|={np.nanmax(np.abs(state.rho)):.3g}"
        )


def step(state: State, config: SolverConfig, dt: float, *,
         _fields: _StageFields | None = None):
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

    if _fields is None:
        k1 = rhs(state, config)
    else:
        # the caller's bundle of this state serves the first stage only: free
        # its arrays before a later stage builds a bundle of its own
        k1 = rhs(state, config, _fields=_fields)
        _fields.release()
    if config.integrator == "RK2_SSP":
        dr, dm = k1
        s1 = floored(state.t + dt, state.rho + dt * dr, state.mom + dt * dm, "after stage 1")
        dr, dm = rhs(s1, config)
        new = floored(
            state.t + dt,
            0.5 * state.rho + 0.5 * (s1.rho + dt * dr),
            0.5 * state.mom + 0.5 * (s1.mom + dt * dm),
            "after step",
        )
    else:  # RK4
        ks = [k1]
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
        fields = _StageFields(state, cfg)
        dt = stable_dt(state, cfg, _fields=fields)
        if dt < dt_floor:
            raise SolverError(f"timestep underflow: required dt {dt:.3g} < floor {dt_floor:.3g}")
        dt = min(dt, cfg.t_end - state.t)
        state, clamps, zeros = step(state, cfg, dt, _fields=fields)
        traj.step_count += 1
        traj.clamp_count += clamps
        traj.vacuum_zero_count += zeros
        traj.step_times.append(state.t)
        traj.step_energies.append(diagnostics.energy(state, grid, cfg.gamma, eps_vac))
        if traj.step_count % cfg.ledger_stride == 0 or state.t >= cfg.t_end - t_tol:
            record(state)

    traj.final_state = state
    return traj, ledger
