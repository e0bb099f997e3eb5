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

One path advances every run: a batch of B >= 1 members stacked on a leading
axis (see :class:`~bdns.grid.State`), each member with its own time and dt,
:func:`run` being a batch of one.  A batch's density and momentum are the
rows of one stacked (1 + dim, B, *sizes) array, and so is its derivative:
``rhs`` returns the rows (d rho/dt, d m/dt) of one stacked array, and the RK
combinations and the finiteness test of a stage act on the stacked state
buffer.  The public ``rhs``, ``stable_dt`` and ``step`` also
take one state: they wrap it as a batch of one and unwrap the result.

Every stencil is a slice view of a field padded once per axis with a
periodic halo (two ghost cells for the limited slopes, one for faces), and
fluxes live on the n + 1 faces of an axis, so a flux difference is
``f[1:] - f[:-1]``.  The local Lax-Friedrichs flux of all 1 + dim equations
is one pass over the stacked [left; right] face states: the clamp, the wet
test, the cutoff velocity, the flux and the jump are each one numpy call for
both sides, mass and momentum together.  The fields that depend on the state
alone (clamped density, wet cells, cutoff velocity, wave speed, face
viscosity, g) come from the state's one bundle, ``diagnostics._Fields``,
made once per state: the new state of a step gets its bundle once, for its
per-step energy, its ledger row when one is due, the next ``stable_dt`` and
the first stage of the next step.

Every field-sized array of a step (the stage states, the new state, the
stage derivative, the bundle's fields and the stencil scratch) is written
with ``out=`` into one private workspace, allocated when ``run_members``
starts a batch and rebuilt when a member leaves it, so that a step
allocates no field beyond what the viscosity law's own evaluation
allocates.  ``run_members`` hands it to the kernels as their private
``_work`` keyword; without it, the public ``rhs``, ``stable_dt`` and
``step`` run the same code on a throwaway workspace, whose arrays the
caller then owns.  Each cell value takes the same operations, in the same
order, as the plain per-cell formula, so neither the layout nor the
workspace changes a result, and every member of a batch gets exactly the
trajectory and ledger of its own :func:`run`.

A member's run ends in one way: ``stable_dt`` (no finite positive bound),
a stage of ``step`` (a non-finite field) or the timestep floor raises a
SolverError whose ``errors`` map gives each member that ends there (row 0
for one state) its own error; ``run_members`` settles those members and
redoes the step for the rest, which a failed step leaves untouched.

Time stepping is strong-stability-preserving RK2 by default (classical RK4
optional), both through one loop over the stage states.  Negative densities
are clamped to zero and momentum on sub-cutoff cells is zeroed; both events
are counted and reported, never silent.  A forcing hook on the momentum
equation exists solely for manufactured-solution testing and is zero in
physical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .diagnostics import EntropyLedger, MomentParams, _Fields, _row
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
        if not 0.0 < self.t_end < math.inf:  # NaN too
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if self.eps_vac is not None and not 0.0 < self.eps_vac < math.inf:
            raise ValueError(f"eps_vac must be finite and positive, got {self.eps_vac}")
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
    if not 0.0 < peak < math.inf:  # all dry, or non-finite data that _start reports
        return 1e-10
    return 1e-10 * peak


class _Stacked(State):
    """A batch whose density and momentum are the rows of one stacked
    (1 + dim, B, *sizes) array ``q``: every state of the stage loop."""

    def __init__(self, t: np.ndarray, q: np.ndarray):
        super().__init__(t, q[0], q[1:])
        self.q = q


def _as_batch(state: State) -> tuple[_Stacked, bool]:
    """``state`` as a stacked batch, and whether it is one state: a stacked
    batch is itself, one state a batch of one and any other batch a stacked
    copy."""
    if isinstance(state, _Stacked):
        return state, False
    one = np.ndim(state.t) == 0
    rho = state.rho[np.newaxis] if one else state.rho
    mom = state.mom[:, np.newaxis] if one else state.mom
    return _Stacked(np.array(state.t, dtype=float, ndmin=1),
                    np.concatenate((rho[np.newaxis], mom))), one


def _member(state: State, k: int) -> State:
    """A copy of member ``k`` of a batch."""
    return State(float(state.t[k]), state.rho[k].copy(), state.mom[:, k].copy())


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


def _derivative(pair: tuple[np.ndarray, np.ndarray], work: _Workspace) -> np.ndarray:
    """The stacked derivative of the (d rho/dt, d m/dt) pair that ``rhs``
    returned: the workspace's own when the pair are its rows, else the pair
    copied into it."""
    drho, dmom = pair
    d = work.d
    if drho.base is not d or dmom.base is not d:
        np.copyto(d[0], drho)
        np.copyto(d[1:], dmom)
    return d


def rhs(state: State, config: SolverConfig, *, _work: _Workspace | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt) of one state or of a
    batch."""
    grid = config.grid
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("rhs needs a resolved eps_vac on the config")
    state, one = _as_batch(state)
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    f = _bundle(state, config, work)

    d = work.d
    d.fill(0.0)
    for axis, (s, h) in enumerate(zip(work.axes, grid.spacing)):
        cut, half_a, jump = s.cut, s.half_a, s.jump
        sides = _face_states(state.q, h, config.limiter, s)
        sp = _halo(f.speed, cut, 1, s.speed)
        np.multiply(0.5, np.maximum(sp[cut.lo], sp[cut.hi], out=half_a), out=half_a)
        rho, m_ax = sides[:, 0], sides[:, 1 + axis]  # of both sides
        np.maximum(rho, 0.0, out=rho)
        # local Lax-Friedrichs on the reconstructed states, every equation at
        # once: 0.5 * (F(q_l) + F(q_r)) - half_a * (q_r - q_l), with the flux
        # F(q) = (m_axis, m u_axis) built in the left face states
        np.multiply(half_a, np.subtract(sides[1], sides[0], out=jump), out=jump)
        np.add(m_ax[0], m_ax[1], out=s.mass)
        u_ax = _cutoff(m_ax, rho, np.greater(rho, eps_vac, out=s.wet), rho, dry=s.wet)
        np.multiply(sides[:, 1:], u_ax[:, np.newaxis], out=sides[:, 1:])
        flux = sides[0]
        np.add(flux[1:], sides[1, 1:], out=flux[1:])
        np.copyto(flux[0], s.mass)
        np.multiply(0.5, flux, out=flux)
        np.subtract(flux, jump, out=flux)
        dq = np.subtract(flux[cut.hi], flux[cut.lo], out=s.dq)
        np.subtract(d, np.divide(dq, h, out=dq), out=d)

    # pressure gradient, centered
    dmom = d[1:]
    pressure = _power(f.rho, config.gamma, work.pressure)
    for a, s in enumerate(work.axes):
        np.subtract(dmom[a], _ddx(pressure, grid, a, s.pad, work.diff_c), out=dmom[a])

    # shear viscosity in compact flux form; harmonic face coefficient so the
    # flux degenerates with the density at dry faces
    for s, h, h_face in zip(work.axes, grid.spacing, f.h_face):
        cut, flux, dv = s.cut, s.face_v, work.shear
        up = _halo(f.u, cut, 1, s.pad_v)
        np.subtract(up[cut.hi], up[cut.lo], out=flux)
        np.multiply(h_face, np.divide(flux, h, out=flux), out=flux)
        np.subtract(flux[cut.hi], flux[cut.lo], out=dv)
        np.add(dmom, np.divide(dv, h, out=dv), out=dmom)

    # second-coefficient term grad(g * div u), centered
    if f.g is not None:
        div_u = work.div_u
        div_u.fill(0.0)
        for a, s in enumerate(work.axes):
            np.add(div_u, _ddx(f.u[a], grid, a, s.pad, work.diff_c), out=div_u)
        np.multiply(f.g, div_u, out=div_u)
        for a, s in enumerate(work.axes):
            np.add(dmom[a], _ddx(div_u, grid, a, s.pad, work.diff_c), out=dmom[a])

    if config.forcing is not None:  # each member at its own time
        for k, t in enumerate(state.t.tolist()):
            np.add(dmom[:, k], config.forcing(t, grid), out=dmom[:, k])
    return (d[0, 0], dmom[:, 0]) if one else (d[0], dmom)


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
    state, one = _as_batch(state)
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
    diff = np.minimum.reduce(diff_all, axis=grid.axes, where=f.wet, initial=math.inf)
    dt = config.cfl * np.minimum(adv, diff)
    any_wet = np.logical_or.reduce(f.wet, axis=grid.axes)
    if not np.logical_and.reduce(any_wet):
        # an all-dry member: the viscous bound of a cell at the cutoff density
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        dt = np.where(any_wet, dt, config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref))
    # NaN fails both tests
    if not (0.0 < np.minimum.reduce(dt) and np.maximum.reduce(dt) < math.inf):
        bad = any_wet & ~(np.isfinite(dt) & (dt > 0))
        if bad.any():
            raise _MemberErrors({k: SolverError(f"no finite stable timestep (adv={float(adv[k])}, "
                                                f"diff={float(diff[k])})")
                                 for k in np.flatnonzero(bad).tolist()})
    return float(dt[0]) if one else dt


def _apply_floors(rho: np.ndarray, mom: np.ndarray, eps_vac: float):
    """Clamp negative densities and zero momentum on sub-cutoff cells.
    Returns (clamped cells, zeroed cells), each counted per member (one
    count for a single state) when the floor catches a cell, else 0."""
    axes = _grid_axes(len(mom))
    n_clamp = n_zero = 0
    neg = rho < 0.0
    if np.logical_or.reduce(neg, axis=None):
        n_clamp = np.add.reduce(neg, axis=axes, dtype=np.intp)
        rho[neg] = 0.0
    carrying = (rho <= eps_vac) & np.logical_or.reduce(mom != 0.0, axis=0)
    if np.logical_or.reduce(carrying, axis=None):
        n_zero = np.add.reduce(carrying, axis=axes, dtype=np.intp)
        mom[:, carrying] = 0.0
    return n_clamp, n_zero


def _check_finite(state: State, where: str) -> dict[int, SolverError]:
    """Map the row of each member with a non-finite field (row 0 for one
    state) to the error that aborts its run; empty when every field is
    finite."""
    state, _ = _as_batch(state)
    axes = _grid_axes(len(state.mom))
    finite = np.logical_and.reduce(np.isfinite(state.q), axis=(0, *axes))
    failures = {}
    for k in np.flatnonzero(~finite).tolist():
        rho, mom = state.rho[k], state.mom[:, k]
        finite_rho = np.isfinite(rho)
        bad_rho = int(np.count_nonzero(~finite_rho))
        bad_mom = int(np.count_nonzero(~np.isfinite(mom)))
        peak = (f"max finite |rho|={np.abs(rho[finite_rho]).max():.3g}"
                if finite_rho.any() else "no finite density")
        failures[k] = SolverError(
            f"non-finite fields {where} (t={float(state.t[k]):.6g}): "
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
    can redo the step from it.  Each stage takes the derivative that ``rhs``
    returns."""
    eps_vac = config.eps_vac
    if eps_vac is None:
        raise ValueError("step needs a resolved eps_vac on the config")
    state, one = _as_batch(state)
    work = _Workspace(config, state.rho.shape) if _work is None else _work
    rk4 = config.integrator == "RK4"
    # dt times a field: each member's dt scales every cell of that member
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim)
    q = work.spare(state.q)
    clamps = zeros = 0  # until a floor catches a cell

    def floored(t, where: str) -> _Stacked:
        # every stage state passes through here: floors, counts, finiteness
        nonlocal clamps, zeros
        c, z = _apply_floors(q[0], q[1:], eps_vac)
        clamps, zeros = clamps + c, zeros + z
        out = _Stacked(t, q)
        if not np.logical_and.reduce(np.isfinite(q, out=work.finite), axis=None):
            raise _MemberErrors(_check_finite(out, where))
        return out

    k = _derivative(rhs(state, config, _work=work), work)
    if rk4:  # acc sums k1 + 2 k2 + 2 k3 + k4 left to right
        acc = work.acc
        np.copyto(acc, k)
    # each stage state is state + c * w * k, k the derivative of the stage
    # before, as state.q + c * w * k
    for n, c in enumerate((0.5, 0.5, 1.0) if rk4 else (1.0,), start=1 + rk4):
        np.add(state.q, np.multiply(c * w, k, out=q), out=q)
        stage = floored(state.t + c * dt, f"after stage {n}")
        if n > 2:  # k2 and k3 enter RK4's sum twice, once they made their stage
            np.add(acc, np.multiply(2.0, k, out=k), out=acc)
        k = _derivative(rhs(stage, config, _work=work), work)
    if rk4:  # state + w / 6 * (acc + k4)
        np.add(acc, k, out=acc)
        np.add(state.q, np.multiply(w / 6.0, acc, out=acc), out=q)
    else:  # 0.5 * state + 0.5 * (s1 + w * k), the sums in that order
        np.add(q, np.multiply(w, k, out=k), out=k)
        np.multiply(0.5, k, out=k)
        np.add(np.multiply(0.5, state.q, out=q), k, out=q)
    new = floored(state.t + dt, "after step")
    clamps, zeros = work.no_counts + clamps, work.no_counts + zeros  # per member
    if one:
        return State(float(new.t[0]), new.rho[0], new.mom[:, 0]), int(clamps[0]), int(zeros[0])
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
    empty ledger."""
    grid = cfg.grid
    state = initial.copy()
    if np.any(state.rho < 0.0):
        raise ValueError("initial density must be nonnegative")
    _, zeroed = _apply_floors(state.rho, state.mom, cfg.eps_vac)
    for exc in _check_finite(state, "in initial data").values():
        raise exc
    traj = Trajectory(initial_vacuum_momentum_zeroed=int(zeroed), non_admissible=non_admissible)
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
    return state, traj, ledger


def _advance(cfg: SolverConfig, members: list, results: list):
    """Step started members, given as (index, state, trajectory, ledger), to
    t_end as one batch, filling ``results``: their states stacked on a
    leading axis, with a time and a dt per member.  Each instant's times,
    energies and ledger rows come from the bundle of its state."""
    state = _Stacked(np.array([st.t for _, st, _, _ in members], dtype=float),
                     np.stack([np.concatenate((st.rho[np.newaxis], st.mom))
                               for _, st, _, _ in members], axis=1))
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
        if keep:
            state = _Stacked(state.t[keep], state.q[:, keep])
            work = _Workspace(cfg, state.rho.shape)
        rows = [rows[k] for k in keep]

    def finished(k):
        _, traj, ledger = rows[k]
        traj.final_state = _member(state, k)  # the state lives in the workspace
        return traj, ledger

    def instant(start: bool = False):
        """Book the instant the batch has reached.  Its bundle serves the
        energies and the ledger rows of the members due one, as it serves
        the next stable_dt and the next step's first stage."""
        f = _bundle(state, cfg, work)
        t = state.t.tolist()
        due = [k for k, (_, traj, _) in enumerate(rows)
               if start or traj.step_count % cfg.ledger_stride == 0 or t[k] >= cfg.t_end - t_tol]
        columns = f.ledger_columns(cfg.moment) if due else None
        for (_, traj, _), t_k, energy in zip(rows, t, f.energy().tolist()):
            traj.step_times.append(t_k)
            traj.step_energies.append(energy)
        for k in due:
            _, traj, ledger = rows[k]
            traj.times.append(t[k])
            traj.states.append(_member(state, k))
            ledger.append(_row(t[k], columns, k, traj.clamp_count, traj.vacuum_zero_count))

    try:
        instant(start=True)
    except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
        leave(range(len(rows)), lambda k: exc)
    while rows:
        done = [k for k, t in enumerate(state.t.tolist()) if t >= cfg.t_end - t_tol]
        if done:
            leave(done, finished)
            continue
        try:
            dt = stable_dt(state, cfg, _work=work)
            low = [k for k, dt_k in enumerate(dt.tolist()) if dt_k < dt_floor]
            if low:
                raise _MemberErrors({k: SolverError(f"timestep underflow: required dt {dt[k]:.3g} "
                                                    f"< floor {dt_floor:.3g}") for k in low})
            state, clamps, zeros = step(state, cfg, np.minimum(dt, cfg.t_end - state.t),
                                        _work=work)
            for (_, traj, _), c, z in zip(rows, clamps.tolist(), zeros.tolist()):
                traj.step_count += 1
                traj.clamp_count += c
                traj.vacuum_zero_count += z
            instant()
        except _MemberErrors as exc:
            # those members end; the rest redo the step from the state they
            # still hold, which a failed step leaves as it was
            leave(exc.errors, exc.errors.get)
        except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
            leave(range(len(rows)), lambda k: exc)
