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
per state in a private bundle that ``run_members`` shares between
``stable_dt`` and the first stage of ``step``.  Each cell value takes the
same operations, in the same order, as the plain per-cell formula, so the
layout changes no result.

Stencils and reductions index the grid axes from the end, so the same
kernel advances one state or a batch of ensemble members stacked on a
leading axis (see :class:`~bdns.grid.State`), each member with its own dt.
:func:`run_members` steps a batch in one loop and gives every member exactly
the trajectory and ledger of its own :func:`run`, which is its batch of one.

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
from .grid import _CUTS, PeriodicGrid, State, _Cut, _grid_axes, _halo, div, grad
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
    """Fields of one state (or batch) that both ``stable_dt`` and ``rhs``
    need: the clamped density, the cutoff velocity (zero where rho <= eps_vac),
    the largest |u| and sound speed of each member, the wave speed |u| + c per
    cell, the harmonic face viscosity of every axis and g(rho) (None when it
    is zero in every cell, and never evaluated for a law whose g vanishes
    identically).  ``run_members`` builds one per step and hands it to
    ``stable_dt`` and then to ``step``, which releases it after the first
    stage; it is never stored on the state."""

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
        self.umax = umag.max(axis=config.grid.axes)
        self.cmax = cs.max(axis=config.grid.axes)
        self.speed = umag + cs
        law = config.law
        h_cell = law.h(self.rho)
        self.h_face = tuple(_harmonic_face(h_cell, cut) for cut in _CUTS[config.grid.dim])
        self.g = None
        if not law.g_vanishes:
            g_cell = law.g(self.rho)
            if (g_cell != 0.0).any():
                self.g = g_cell

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

    drho = np.zeros(state.rho.shape)
    dmom = np.zeros(state.mom.shape)
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
        if np.ndim(state.t) == 0:
            force = config.forcing(state.t, grid)
        else:  # each member at its own time
            force = np.stack([config.forcing(t, grid) for t in state.t.tolist()], axis=1)
        dmom = dmom + force
    return drho, dmom


def stable_dt(state: State, config: SolverConfig, *, _fields: _StageFields | None = None
              ) -> float | np.ndarray:
    """Explicit stability bound: cfl times the harsher of the advective limit
    dx/(max|u| + max c) and the diffusive limit of the actual viscous stencil,
    min over wet cells of rho_i / sum_faces(h_face/dx^2).  On constant states
    the diffusive limit reduces to dx^2 min(rho)/(2 dim max h); near vacuum
    the local form stays bounded where the global min/max pairing would
    underflow (the viscous rate at a cell scales with h/rho there, not with
    max h / min rho).

    A batch gets one bound per member, NaN for a member whose own call raises
    SolverError for want of a finite positive bound."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("stable_dt needs a resolved eps_vac on the config")
    f = _StageFields(state, config) if _fields is None else _fields
    dx = min(grid.spacing)
    rate = np.zeros(f.rho.shape)
    for cut, h, h_face in zip(_CUTS[grid.dim], grid.spacing, f.h_face):
        rate += (h_face[cut.hi] + h_face[cut.lo]) / h**2
    with np.errstate(divide="ignore"):
        adv = dx / (f.umax + f.cmax)  # inf where nothing moves
        diff_all = np.where(rate > 0.0, f.rho / np.where(rate > 0.0, rate, 1.0), math.inf)
    diff = diff_all.min(axis=grid.axes, where=f.wet, initial=math.inf)
    dt = config.cfl * np.minimum(adv, diff)
    wet = f.wet.any(axis=grid.axes)
    if not wet.all():
        # an all-dry member: the viscous bound of a cell at the cutoff density
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        dt = np.where(wet, dt, config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref))
    if np.ndim(dt):
        return np.where(wet & ~(np.isfinite(dt) & (dt > 0)), math.nan, dt)
    if wet and not (math.isfinite(dt) and dt > 0):
        raise SolverError(f"no finite stable timestep (adv={float(adv)}, diff={float(diff)})")
    return float(dt)


def _count(mask: np.ndarray, axes: tuple[int, ...]):
    """Set cells of ``mask``: an int for one state, one count per member for a
    batch."""
    if mask.ndim == len(axes):
        return int(np.count_nonzero(mask))
    return np.count_nonzero(mask, axis=axes)


def _apply_floors(rho: np.ndarray, mom: np.ndarray, eps_vac: float):
    """Clamp negative densities and zero momentum on sub-cutoff cells.
    Returns (clamped cells, zeroed cells), per member for a batch."""
    axes = _grid_axes(len(mom))
    neg = rho < 0.0
    n_clamp = _count(neg, axes)
    if neg.any():
        rho[neg] = 0.0
    dry = rho <= eps_vac
    carrying = dry & (mom != 0.0).any(axis=0)
    n_zero = _count(carrying, axes)
    if carrying.any():
        mom[:, carrying] = 0.0
    return n_clamp, n_zero


def _member(state: State, k: int) -> State:
    """Member ``k`` of a batch, as views; one state is its own member 0."""
    if np.ndim(state.t) == 0:
        return state
    return State(float(state.t[k]), state.rho[k], state.mom[:, k])


def _check_finite(state: State, where: str) -> dict[int, SolverError]:
    """Map the row of each member with a non-finite field (row 0 for one
    state) to the error that aborts its run; empty when every field is
    finite."""
    axes = _grid_axes(len(state.mom))
    finite = np.isfinite(state.rho).all(axis=axes) & np.isfinite(state.mom).all(axis=(0, *axes))
    if finite.all():
        return {}
    failures = {}
    for k in np.flatnonzero(~finite).tolist():
        member = _member(state, k)
        bad_rho = int(np.count_nonzero(~np.isfinite(member.rho)))
        bad_mom = int(np.count_nonzero(~np.isfinite(member.mom)))
        failures[k] = SolverError(
            f"non-finite fields {where} (t={member.t:.6g}): "
            f"{bad_rho} density cells, {bad_mom} momentum entries; "
            f"max|rho|={np.nanmax(np.abs(member.rho)):.3g}"
        )
    return failures


def step(state: State, config: SolverConfig, dt, *, _fields: _StageFields | None = None,
         _failures: dict | None = None):
    """One explicit step of one state, or of a batch with one dt per member.
    Returns (new state, clamped cells, zeroed cells), the counts summed over
    every stage, per member for a batch.  A stage that leaves a non-finite
    field raises SolverError (in a batch, that of its first such member).

    ``run_members`` passes a dict as ``_failures`` to keep a batch going:
    the row of each member whose fields turn non-finite is mapped to its
    error and set to vacuum for the rest of the step, so that it computes
    nothing further; that member's new state and counts are meaningless."""
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("step needs a resolved eps_vac on the config")
    batch = np.ndim(state.t) > 0
    # dt times a field: each member's dt scales every cell of that member
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim) if batch else dt
    clamps = zeros = 0

    def floored(t, rho: np.ndarray, mom: np.ndarray, where: str) -> State:
        # every stage state passes through here: floors, counts, finiteness
        nonlocal clamps, zeros
        out = State(t, rho, mom)
        c, z = _apply_floors(out.rho, out.mom, eps_vac)
        clamps += c
        zeros += z
        for k, exc in _check_finite(out, where).items():
            if _failures is None or not batch:
                raise exc
            _failures.setdefault(k, exc)
            out.rho[k] = 0.0
            out.mom[:, k] = 0.0
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
        s1 = floored(state.t + dt, state.rho + w * dr, state.mom + w * dm, "after stage 1")
        dr, dm = rhs(s1, config)
        new = floored(
            state.t + dt,
            0.5 * state.rho + 0.5 * (s1.rho + w * dr),
            0.5 * state.mom + 0.5 * (s1.mom + w * dm),
            "after step",
        )
    else:  # RK4
        ks = [k1]
        for n, c in enumerate((0.5, 0.5, 1.0), start=2):
            kr, km = ks[-1]
            s = floored(state.t + c * dt, state.rho + c * w * kr, state.mom + c * w * km,
                        f"after stage {n}")
            ks.append(rhs(s, config))
        (k1r, k1m), (k2r, k2m), (k3r, k3m), (k4r, k4m) = ks
        new = floored(
            state.t + dt,
            state.rho + w / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            state.mom + w / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            "after step",
        )
    return new, clamps, zeros


def run(config: SolverConfig, initial: State) -> tuple[Trajectory, EntropyLedger]:
    """Advance to t_end, recording the diagnostics ledger every
    ``ledger_stride`` steps (plus the initial and final instants)."""
    (result,) = run_members(config, [initial])
    if isinstance(result, Exception):
        raise result
    return result


def run_members(config: SolverConfig, initials: list[State]
                ) -> list[tuple[Trajectory, EntropyLedger] | Exception]:
    """Advance several initial states to t_end together, as :func:`run` does
    each: one entry per state, its (trajectory, ledger) or the exception its
    own ``run`` raises.  Members that share eps_vac advance as one batch, so
    that each numpy call of a step serves all of them; every member keeps its
    own dt, its own forcing times and its own ledger stride, and leaves the
    batch when it reaches t_end or fails.  The law is validated once."""
    grid = config.grid
    results: list = [None] * len(initials)
    eps: dict[int, float] = {}
    for i, initial in enumerate(initials):
        try:
            initial.check_shapes(grid)
            eps[i] = _resolve_eps_vac(config, initial)
        except Exception as exc:  # noqa: BLE001 - the member fails as its run would
            results[i] = exc
    try:
        config.moment.validate(config.params.nu)
        report = validate(config.law, config.params)
        if not (report.overall or config.allow_non_admissible):
            raise NonAdmissibleLawError(
                f"law {config.law.describe()} fails validation "
                f"({[r.condition for r in report.records if r.applicable and not r.passed]}); "
                "pass allow_non_admissible=True to run anyway"
            )
    except Exception as exc:  # noqa: BLE001 - every member fails alike
        return [exc if res is None else res for res in results]

    batches: dict[float, list] = {}
    for i, eps_vac in eps.items():
        cfg = replace(config, eps_vac=eps_vac)
        try:
            started = _start(cfg, initials[i], not report.overall)
        except Exception as exc:  # noqa: BLE001 - the member fails as its run would
            results[i] = exc
            continue
        batches.setdefault(eps_vac, []).append((i, *started))
    for eps_vac, members in batches.items():
        _advance(replace(config, eps_vac=eps_vac), members, results)
    return results


def _start(cfg: SolverConfig, initial: State, non_admissible: bool):
    """A member's floored copy of its initial state, and its trajectory and
    ledger holding the initial instant."""
    grid = cfg.grid
    state = initial.copy()
    if np.any(state.rho < 0.0):
        raise ValueError("initial density must be nonnegative")
    _, zeroed = _apply_floors(state.rho, state.mom, cfg.eps_vac)
    for exc in _check_finite(state, "in initial data").values():
        raise exc
    traj = Trajectory(initial_vacuum_momentum_zeroed=zeroed, non_admissible=non_admissible)
    ledger = EntropyLedger(
        metadata={
            "law": cfg.law.describe(),
            "nu": cfg.params.nu,
            "gamma": cfg.gamma,
            "delta": cfg.moment.delta,
            "alpha": cfg.moment.alpha,
            "eps_vac": cfg.eps_vac,
            "cells": "x".join(str(n) for n in grid.sizes),
            "integrator": cfg.integrator,
            "cfl": cfg.cfl,
            "ledger_stride": cfg.ledger_stride,
        }
    )
    _record(cfg, traj, ledger, state.copy())
    traj.step_times.append(state.t)
    traj.step_energies.append(diagnostics.energy(state, grid, cfg.gamma, cfg.eps_vac))
    return state, traj, ledger


def _record(cfg: SolverConfig, traj: Trajectory, ledger: EntropyLedger, st: State):
    """Keep ``st`` (a state the trajectory owns) and its ledger row."""
    traj.times.append(st.t)
    traj.states.append(st)
    ledger.append(
        ledger_row(st, cfg.grid, cfg.law, cfg.gamma, cfg.moment, cfg.eps_vac,
                   clamp_count=traj.clamp_count, cutoff_count=traj.vacuum_zero_count)
    )


def _advance(cfg: SolverConfig, members: list, results: list):
    """Step started members, given as (index, state, trajectory, ledger), to
    t_end, filling ``results``.  One member steps as a single state, more as
    a batch: states stacked on a leading axis, times and dt vectors."""
    grid = cfg.grid
    if len(members) == 1:
        state = members[0][1]
    else:
        starts = [st for _, st, _, _ in members]
        state = State(np.array([st.t for st in starts], dtype=float),
                      np.stack([st.rho for st in starts]),
                      np.stack([st.mom for st in starts], axis=1))
    batch = np.ndim(state.t) > 0
    rows = [(i, traj, ledger) for i, _, traj, ledger in members]  # one per batch row
    dt_floor = DT_FLOOR_FACTOR * cfg.t_end
    t_tol = 1e-12 * cfg.t_end

    def leave(gone, outcome):
        """Settle the members at rows ``gone`` and drop them from the batch;
        returns the rows kept."""
        nonlocal rows, state
        for k in gone:
            results[rows[k][0]] = outcome(k)
        keep = [k for k in range(len(rows)) if k not in gone]
        if gone and batch and keep:
            state = State(state.t[keep], state.rho[keep], state.mom[:, keep])
        rows = [rows[k] for k in keep]
        return keep

    def finished(k):
        _, traj, ledger = rows[k]
        traj.final_state = _member(state, k).copy() if batch else state
        return traj, ledger

    while rows:
        t = np.atleast_1d(state.t)
        done = np.flatnonzero(t >= cfg.t_end - t_tol).tolist()
        if done:
            leave(done, finished)
            continue
        try:
            fields = _StageFields(state, cfg)
            dt = np.atleast_1d(stable_dt(state, cfg, _fields=fields))
            if not (dt >= dt_floor).all():
                fields.release()
                failed = _dt_failures(state, cfg, dt, dt_floor)
                leave(list(failed), failed.get)
                continue
            failed = {}
            state, clamps, zeros = step(state, cfg, np.minimum(dt, cfg.t_end - t) if batch
                                        else min(float(dt[0]), cfg.t_end - state.t),
                                        _fields=fields, _failures=failed)
            clamps, zeros = np.atleast_1d(clamps), np.atleast_1d(zeros)
            if failed:
                keep = leave(list(failed), failed.get)
                if not rows:
                    return
                clamps, zeros = clamps[keep], zeros[keep]
            t = np.atleast_1d(state.t)
            energy = np.atleast_1d(diagnostics.energy(state, grid, cfg.gamma, cfg.eps_vac))
            for k, (_, traj, ledger) in enumerate(rows):
                traj.step_count += 1
                traj.clamp_count += int(clamps[k])
                traj.vacuum_zero_count += int(zeros[k])
                traj.step_times.append(float(t[k]))
                traj.step_energies.append(float(energy[k]))
                if traj.step_count % cfg.ledger_stride == 0 or t[k] >= cfg.t_end - t_tol:
                    _record(cfg, traj, ledger, _member(state, k).copy())
        except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
            leave(list(range(len(rows))), lambda k: exc)


def _dt_failures(state: State, cfg: SolverConfig, dt: np.ndarray, dt_floor: float
                 ) -> dict[int, SolverError]:
    """The rows of ``state`` without a usable timestep, each with its error."""
    failed = {}
    for k in np.flatnonzero(np.isnan(dt)).tolist():
        # only a batch marks a member without a stable dt: its own call says why
        try:
            stable_dt(_member(state, k), cfg)
        except SolverError as exc:
            failed[k] = exc
    for k in np.flatnonzero(dt < dt_floor).tolist():
        failed[k] = SolverError(f"timestep underflow: required dt {dt[k]:.3g} "
                                f"< floor {dt_floor:.3g}")
    return failed
