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
``f[1:] - f[:-1]``; the density and the momentum components are
reconstructed together, stacked on a leading axis.  The fields that depend
on the state alone (clamped density, wave speed, face viscosity, g) are
computed once per state in a private bundle that ``run_members`` shares
between ``stable_dt`` and the first stage of ``step``.

Every field-sized array of a step (the stage states, the new state, the
stage derivatives, the bundle, the stencil scratch and the fields of the
per-step ``diagnostics.energy``) is written with ``out=`` into one private
workspace, allocated when ``run_members`` starts a batch and rebuilt when a
member leaves it, so that a step allocates no field beyond what the
viscosity law's own evaluation allocates; the stencils of every axis share
its scratch.  ``run_members`` hands it to the kernels as their private
``_work`` keyword; without it, the public ``rhs``, ``stable_dt`` and
``step`` run the same code on a throwaway workspace, whose arrays the
caller then owns.  Each cell value takes the same
operations, in the same order, as the plain per-cell formula, so neither
the layout nor the workspace changes a result.

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
from ._workspace import _face_states, _face_velocity, _Workspace
from .grid import PeriodicGrid, State, _ddx, _grid_axes, _halo, _power
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


def rhs(state: State, config: SolverConfig, *, _work: _Workspace | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt)."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("rhs needs a resolved eps_vac on the config")
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    f = work.fields.of(state, config)

    drho, dmom = work.drho, work.dmom
    drho.fill(0.0)
    dmom.fill(0.0)
    for axis, (s, h) in enumerate(zip(work.axes, grid.spacing)):
        cut, half_a = s.cut, s.half_a
        left, right = _face_states(state.rho, state.mom, h, config.limiter, s)
        sp = _halo(f.speed, cut, 1, s.speed)
        np.multiply(0.5, np.maximum(sp[cut.lo], sp[cut.hi], out=half_a), out=half_a)
        rho_l, rho_r, m_l, m_r = left[0], right[0], left[1:], right[1:]
        np.maximum(rho_l, 0.0, out=rho_l)
        np.maximum(rho_r, 0.0, out=rho_r)

        # mass: local Lax-Friedrichs on the reconstructed states,
        # 0.5 * (m_l + m_r) - half_a * (rho_r - rho_l)
        flux, jump, d = s.flux_rho, s.jump, s.d_rho
        np.multiply(0.5, np.add(m_l[axis], m_r[axis], out=flux), out=flux)
        np.multiply(half_a, np.subtract(rho_r, rho_l, out=jump), out=jump)
        np.subtract(flux, jump, out=flux)
        np.subtract(flux[cut.hi], flux[cut.lo], out=d)
        np.subtract(drho, np.divide(d, h, out=d), out=drho)

        # momentum convection, upwinded the same way, every component at once:
        # 0.5 * (m_l * u_l + m_r * u_r) - half_a * (m_r - m_l), built in m_l
        u_ax_l = _face_velocity(rho_l, m_l[axis], eps_vac, s.u_l, s.wet)
        u_ax_r = _face_velocity(rho_r, m_r[axis], eps_vac, s.u_r, s.wet)
        jump, d = s.jump_m, s.d_mom
        np.multiply(half_a, np.subtract(m_r, m_l, out=jump), out=jump)
        flux = np.multiply(m_l, u_ax_l, out=m_l)
        np.add(flux, np.multiply(m_r, u_ax_r, out=m_r), out=flux)
        np.multiply(0.5, flux, out=flux)
        np.subtract(flux, jump, out=flux)
        np.subtract(flux[cut.hi], flux[cut.lo], out=d)
        np.subtract(dmom, np.divide(d, h, out=d), out=dmom)

    # pressure gradient, centered
    pressure = _power(f.rho, config.gamma, work.pressure)
    for a, s in enumerate(work.axes):
        np.subtract(dmom[a], _ddx(pressure, grid, a, s.pad, work.diff_c), out=dmom[a])

    # shear viscosity in compact flux form; harmonic face coefficient so the
    # flux degenerates with the density at dry faces
    u = f.velocity(state, work.u)
    for s, h, h_face in zip(work.axes, grid.spacing, f.h_face):
        cut, flux, d = s.cut, s.face_v, work.shear
        up = _halo(u, cut, 1, s.pad_v)
        np.subtract(up[cut.hi], up[cut.lo], out=flux)
        np.multiply(h_face, np.divide(flux, h, out=flux), out=flux)
        np.subtract(flux[cut.hi], flux[cut.lo], out=d)
        np.add(dmom, np.divide(d, h, out=d), out=dmom)

    # second-coefficient term grad(g * div u), centered
    if f.g is not None:
        div_u = work.div_u
        div_u.fill(0.0)
        for a, s in enumerate(work.axes):
            np.add(div_u, _ddx(u[a], grid, a, s.pad, work.diff_c), out=div_u)
        np.multiply(f.g, div_u, out=div_u)
        for a, s in enumerate(work.axes):
            np.add(dmom[a], _ddx(div_u, grid, a, s.pad, work.diff_c), out=dmom[a])

    if config.forcing is not None:
        if np.ndim(state.t) == 0:
            np.add(dmom, config.forcing(state.t, grid), out=dmom)
        else:  # each member at its own time
            for k, t in enumerate(state.t.tolist()):
                np.add(dmom[:, k], config.forcing(t, grid), out=dmom[:, k])
    return drho, dmom


def stable_dt(state: State, config: SolverConfig, *, _work: _Workspace | None = None
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
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    f = work.fields.of(state, config)
    dx = min(grid.spacing)
    rate, term, diff_all = work.rate, work.term, work.diff_all
    rate.fill(0.0)
    for s, h, h_face in zip(work.axes, grid.spacing, f.h_face):
        cut = s.cut
        np.add(h_face[cut.hi], h_face[cut.lo], out=term)
        np.add(rate, np.divide(term, h**2, out=term), out=rate)
    pos = np.greater(rate, 0.0, out=work.cell_mask)
    with np.errstate(divide="ignore"):
        adv = dx / (f.umax + f.cmax)  # inf where nothing moves
        np.divide(f.rho, rate, out=diff_all, where=pos)
    np.copyto(diff_all, math.inf, where=np.logical_not(pos, out=pos))
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
        finite_rho = np.isfinite(member.rho)
        bad_rho = int(np.count_nonzero(~finite_rho))
        bad_mom = int(np.count_nonzero(~np.isfinite(member.mom)))
        peak = (f"max finite |rho|={np.abs(member.rho[finite_rho]).max():.3g}"
                if finite_rho.any() else "no finite density")
        failures[k] = SolverError(
            f"non-finite fields {where} (t={member.t:.6g}): "
            f"{bad_rho} density cells, {bad_mom} momentum entries; {peak}"
        )
    return failures


def step(state: State, config: SolverConfig, dt, *, _work: _Workspace | None = None,
         _failures: dict | None = None):
    """One explicit step of one state, or of a batch with one dt per member.
    Returns (new state, clamped cells, zeroed cells), the counts summed over
    every stage, per member for a batch.  A stage that leaves a non-finite
    field raises SolverError (in a batch, that of its first such member).

    Every stage state and the new state are written into the workspace
    ``_work``, in the state buffer that does not hold ``state`` (a throwaway
    workspace for a public call, whose arrays the caller then owns).

    ``run_members`` passes a dict as ``_failures`` to keep a batch going:
    the row of each member whose fields turn non-finite is mapped to its
    error and set to vacuum for the rest of the step, so that it computes
    nothing further; that member's new state and counts are meaningless."""
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("step needs a resolved eps_vac on the config")
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    batch = np.ndim(state.t) > 0
    # dt times a field: each member's dt scales every cell of that member
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim) if batch else dt
    rho, mom = work.spare(state)
    clamps = zeros = 0

    def floored(t, where: str) -> State:
        # every stage state passes through here: floors, counts, finiteness
        nonlocal clamps, zeros
        out = State(t, rho, mom)
        c, z = _apply_floors(rho, mom, eps_vac)
        clamps += c
        zeros += z
        for k, exc in _check_finite(out, where).items():
            if _failures is None or not batch:
                raise exc
            _failures.setdefault(k, exc)
            rho[k] = 0.0
            mom[:, k] = 0.0
        return out

    def advanced(scale, kr: np.ndarray, km: np.ndarray, t, where: str) -> State:
        # state + scale * k, as state.rho + scale * kr
        np.add(state.rho, np.multiply(scale, kr, out=rho), out=rho)
        np.add(state.mom, np.multiply(scale, km, out=mom), out=mom)
        return floored(t, where)

    kr, km = rhs(state, config, _work=work)
    if config.integrator == "RK2_SSP":
        s1 = advanced(w, kr, km, state.t + dt, "after stage 1")
        kr, km = rhs(s1, config, _work=work)
        # 0.5 * state + 0.5 * (s1 + w * k), the sums in that order
        for new, old, k in ((rho, state.rho, kr), (mom, state.mom, km)):
            np.add(new, np.multiply(w, k, out=k), out=k)
            np.multiply(0.5, k, out=k)
            np.add(np.multiply(0.5, old, out=new), k, out=new)
        return floored(state.t + dt, "after step"), clamps, zeros
    # RK4: acc sums k1 + 2 k2 + 2 k3 + k4 left to right
    acc = work.acc
    acc_r, acc_m = acc[0], acc[1:]
    np.copyto(acc_r, kr)
    np.copyto(acc_m, km)
    for n, c in enumerate((0.5, 0.5, 1.0), start=2):
        s = advanced(c * w, kr, km, state.t + c * dt, f"after stage {n}")
        if n > 2:  # k2 and k3 enter the sum twice, once they made their stage
            np.add(acc_r, np.multiply(2.0, kr, out=kr), out=acc_r)
            np.add(acc_m, np.multiply(2.0, km, out=km), out=acc_m)
        kr, km = rhs(s, config, _work=work)
    np.add(acc_r, kr, out=acc_r)
    np.add(acc_m, km, out=acc_m)
    # state + w / 6 * acc
    np.add(state.rho, np.multiply(w / 6.0, acc_r, out=acc_r), out=rho)
    np.add(state.mom, np.multiply(w / 6.0, acc_m, out=acc_m), out=mom)
    return floored(state.t + dt, "after step"), clamps, zeros


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
    work = _Workspace(cfg, state.rho.shape)  # one per batch shape
    rows = [(i, traj, ledger) for i, _, traj, ledger in members]  # one per batch row
    dt_floor = DT_FLOOR_FACTOR * cfg.t_end
    t_tol = 1e-12 * cfg.t_end

    def leave(gone, outcome):
        """Settle the members at rows ``gone`` and drop them from the batch;
        returns the rows kept."""
        nonlocal rows, state, work
        for k in gone:
            results[rows[k][0]] = outcome(k)
        keep = [k for k in range(len(rows)) if k not in gone]
        if gone and batch and keep:
            state = State(state.t[keep], state.rho[keep], state.mom[:, keep])
            work = _Workspace(cfg, state.rho.shape)
        rows = [rows[k] for k in keep]
        return keep

    def finished(k):
        _, traj, ledger = rows[k]
        traj.final_state = _member(state, k).copy()  # the state lives in the workspace
        return traj, ledger

    while rows:
        t = np.atleast_1d(state.t)
        done = np.flatnonzero(t >= cfg.t_end - t_tol).tolist()
        if done:
            leave(done, finished)
            continue
        try:
            dt = np.atleast_1d(stable_dt(state, cfg, _work=work))
            if not (dt >= dt_floor).all():
                failed = _dt_failures(state, cfg, dt, dt_floor)
                leave(list(failed), failed.get)
                continue
            failed = {}
            state, clamps, zeros = step(state, cfg, np.minimum(dt, cfg.t_end - t) if batch
                                        else min(float(dt[0]), cfg.t_end - state.t),
                                        _work=work, _failures=failed)
            clamps, zeros = np.atleast_1d(clamps), np.atleast_1d(zeros)
            if failed:
                keep = leave(list(failed), failed.get)
                if not rows:
                    return
                clamps, zeros = clamps[keep], zeros[keep]
            t = np.atleast_1d(state.t)
            energy = np.atleast_1d(diagnostics.energy(state, grid, cfg.gamma, cfg.eps_vac,
                                                      _scratch=work.energy_scratch))
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
