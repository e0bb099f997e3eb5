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
on the state alone (clamped density, wet cells, cutoff velocity, wave speed,
face viscosity, g) come from the state's one bundle,
``diagnostics._Fields``, made once per state: the new state of a step gets
its bundle once, for its per-step energy, the next ``stable_dt`` and the
first stage of the next step.

Every field-sized array of a step (the stage states, the new state, the
stage derivatives, the bundle's fields and the stencil scratch) is written
with ``out=`` into one private workspace, allocated when ``run_members``
starts a batch and rebuilt when a member leaves it, so that a step
allocates no field beyond what the viscosity law's own evaluation
allocates.  ``run_members`` hands it to the kernels as their private
``_work`` keyword; without it, the public ``rhs``, ``stable_dt`` and
``step`` run the same code on a throwaway workspace, whose arrays the
caller then owns.  Each cell value takes the same operations, in the same
order, as the plain per-cell formula, so neither the layout nor the
workspace changes a result.

Stencils and reductions index the grid axes from the end, so the same
kernel advances one state or a batch of ensemble members stacked on a
leading axis (see :class:`~bdns.grid.State`), each member with its own dt.
:func:`run_members` steps a batch in one loop and gives every member exactly
the trajectory and ledger of its own :func:`run`, which is its batch of one.
A member's run ends in one way: ``stable_dt`` (no finite positive bound),
a stage of ``step`` (a non-finite field) or the timestep floor raises a
SolverError whose ``errors`` map gives each member that ends there (row 0
for one state) its own error; ``run_members`` settles those members and
redoes the step for the rest, which a failed step leaves untouched.

Time stepping is strong-stability-preserving RK2 by default (classical RK4
optional), both through one loop over the stage states.  Negative densities
are clamped to zero and momentum on sub-cutoff cells is zeroed; both events
are counted and reported, never silent.  A forcing hook on the momentum equation exists solely for
manufactured-solution testing and is zero in physical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics
from .diagnostics import EntropyLedger, MomentParams, _Fields, ledger_row
from ._workspace import _face_states, _Workspace
from .grid import PeriodicGrid, State, _cutoff, _ddx, _grid_axes, _halo, _power
from .viscosity import AdmissibilityParams, ViscosityLaw, validate

INTEGRATORS = ("RK2_SSP", "RK4")
LIMITERS = ("mc", "minmod", "van_albada", "none")
DT_FLOOR_FACTOR = 1e-12


class SolverError(RuntimeError):
    """Aborted run (non-finite fields or timestep underflow)."""


class _MemberErrors(SolverError):
    """The runs of some members end: ``errors`` maps the row of each (0 for
    one state) to the SolverError its run ends with; the text is the first."""

    def __init__(self, errors: dict[int, SolverError]):
        super().__init__(str(next(iter(errors.values()))))
        self.errors = errors


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


def _bundle(state: State, config: SolverConfig, work: _Workspace) -> _Fields:
    """The bundle of ``state`` in ``work``: the workspace's own when its
    kernels last read this very state, else a new one that takes its place.
    The kernels never change a state they read, and the stage loop makes a
    new one for every stage."""
    f = work.fields
    if f is None or f.state is not state:
        f = work.fields = _Fields(state, config.grid, config.law, config.gamma,
                                  config.eps_vac, work)
    return f


def rhs(state: State, config: SolverConfig, *, _work: _Workspace | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt)."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("rhs needs a resolved eps_vac on the config")
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    f = _bundle(state, config, work)

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
        wet = s.wet
        u_ax_l = _cutoff(m_l[axis], rho_l, np.greater(rho_l, eps_vac, out=wet), s.u_l, dry=wet)
        u_ax_r = _cutoff(m_r[axis], rho_r, np.greater(rho_r, eps_vac, out=wet), s.u_r, dry=wet)
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
    for s, h, h_face in zip(work.axes, grid.spacing, f.h_face):
        cut, flux, d = s.cut, s.face_v, work.shear
        up = _halo(f.u, cut, 1, s.pad_v)
        np.subtract(up[cut.hi], up[cut.lo], out=flux)
        np.multiply(h_face, np.divide(flux, h, out=flux), out=flux)
        np.subtract(flux[cut.hi], flux[cut.lo], out=d)
        np.add(dmom, np.divide(d, h, out=d), out=dmom)

    # second-coefficient term grad(g * div u), centered
    if f.g is not None:
        div_u = work.div_u
        div_u.fill(0.0)
        for a, s in enumerate(work.axes):
            np.add(div_u, _ddx(f.u[a], grid, a, s.pad, work.diff_c), out=div_u)
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

    A batch gets one bound per member.  A wet member without a finite
    positive bound ends its run: the call raises SolverError, with the error
    of every such member in its ``errors`` map (see :func:`step`)."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("stable_dt needs a resolved eps_vac on the config")
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    f = _bundle(state, config, work)
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
    any_wet = f.wet.any(axis=grid.axes)
    if not any_wet.all():
        # an all-dry member: the viscous bound of a cell at the cutoff density
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        dt = np.where(any_wet, dt, config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref))
    bad = any_wet & ~(np.isfinite(dt) & (dt > 0))
    if bad.any():
        adv, diff = np.ravel(adv), np.ravel(diff)
        raise _MemberErrors({k: SolverError(f"no finite stable timestep (adv={float(adv[k])}, "
                                            f"diff={float(diff[k])})")
                             for k in np.flatnonzero(bad).tolist()})
    return dt if np.ndim(dt) else float(dt)


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


def step(state: State, config: SolverConfig, dt, *, _work: _Workspace | None = None):
    """One explicit step of one state, or of a batch with one dt per member.
    Returns (new state, clamped cells, zeroed cells), the counts summed over
    every stage, per member for a batch.  A stage that leaves a non-finite
    field ends the run of each member it holds: the step raises SolverError,
    with the error of every such member in its ``errors`` map, row 0 for one
    state, and its text that of the first.

    Every stage state and the new state are written into the workspace
    ``_work``, in the state buffer that does not hold ``state`` (a throwaway
    workspace for a public call, whose arrays the caller then owns), so a
    failed step leaves ``state`` as it was and the other members of a batch
    can redo the step from it."""
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("step needs a resolved eps_vac on the config")
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    rk4 = config.integrator == "RK4"
    # dt times a field: each member's dt scales every cell of that member
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim) if np.ndim(state.t) else dt
    rho, mom = work.spare(state)
    clamps = zeros = 0

    def floored(t, where: str) -> State:
        # every stage state passes through here: floors, counts, finiteness
        nonlocal clamps, zeros
        out = State(t, rho, mom)
        c, z = _apply_floors(rho, mom, eps_vac)
        clamps += c
        zeros += z
        failures = _check_finite(out, where)
        if failures:
            raise _MemberErrors(failures)
        return out

    kr, km = rhs(state, config, _work=work)
    if rk4:  # acc sums k1 + 2 k2 + 2 k3 + k4 left to right
        acc_r, acc_m = work.acc[0], work.acc[1:]
        np.copyto(acc_r, kr)
        np.copyto(acc_m, km)
    # each stage state is state + c * w * k, k the derivative of the stage
    # before, as state.rho + c * w * kr
    for n, c in enumerate((0.5, 0.5, 1.0) if rk4 else (1.0,), start=1 + rk4):
        np.add(state.rho, np.multiply(c * w, kr, out=rho), out=rho)
        np.add(state.mom, np.multiply(c * w, km, out=mom), out=mom)
        stage = floored(state.t + c * dt, f"after stage {n}")
        if n > 2:  # k2 and k3 enter RK4's sum twice, once they made their stage
            np.add(acc_r, np.multiply(2.0, kr, out=kr), out=acc_r)
            np.add(acc_m, np.multiply(2.0, km, out=km), out=acc_m)
        kr, km = rhs(stage, config, _work=work)
    if rk4:  # state + w / 6 * (acc + k4)
        np.add(acc_r, kr, out=acc_r)
        np.add(acc_m, km, out=acc_m)
        np.add(state.rho, np.multiply(w / 6.0, acc_r, out=acc_r), out=rho)
        np.add(state.mom, np.multiply(w / 6.0, acc_m, out=acc_m), out=mom)
    else:  # 0.5 * state + 0.5 * (s1 + w * k), the sums in that order
        for new, old, k in ((rho, state.rho, kr), (mom, state.mom, km)):
            np.add(new, np.multiply(w, k, out=k), out=k)
            np.multiply(0.5, k, out=k)
            np.add(np.multiply(0.5, old, out=new), k, out=new)
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
        """Settle the members at rows ``gone`` and drop them from the batch."""
        nonlocal rows, state, work
        for k in gone:
            results[rows[k][0]] = outcome(k)
        keep = [k for k in range(len(rows)) if k not in gone]
        if batch and keep:
            state = State(state.t[keep], state.rho[keep], state.mom[:, keep])
            work = _Workspace(cfg, state.rho.shape)
        rows = [rows[k] for k in keep]

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
            low = np.flatnonzero(dt < dt_floor).tolist()
            if low:
                raise _MemberErrors({k: SolverError(f"timestep underflow: required dt {dt[k]:.3g} "
                                                    f"< floor {dt_floor:.3g}") for k in low})
            state, clamps, zeros = step(state, cfg, np.minimum(dt, cfg.t_end - t) if batch
                                        else min(float(dt[0]), cfg.t_end - state.t), _work=work)
            clamps, zeros = np.atleast_1d(clamps), np.atleast_1d(zeros)
            t = np.atleast_1d(state.t)
            # the new state's bundle serves its energy, the next stable_dt
            # and the next step's first stage
            energy = np.atleast_1d(_bundle(state, cfg, work).energy())
            for k, (_, traj, ledger) in enumerate(rows):
                traj.step_count += 1
                traj.clamp_count += int(clamps[k])
                traj.vacuum_zero_count += int(zeros[k])
                traj.step_times.append(float(t[k]))
                traj.step_energies.append(float(energy[k]))
                if traj.step_count % cfg.ledger_stride == 0 or t[k] >= cfg.t_end - t_tol:
                    _record(cfg, traj, ledger, _member(state, k).copy())
        except _MemberErrors as exc:
            # those members end; the rest redo the step from the state they
            # still hold, which a failed step leaves as it was
            leave(exc.errors, exc.errors.get)
        except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
            leave(range(len(rows)), lambda k: exc)
