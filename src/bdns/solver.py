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
buffer.

Every stencil runs on windows (see :class:`~bdns.grid._Cut`): a field
padded along the stencil's axis with two periodic ghost cells at each end is
a contiguous run of a workspace lane, and its neighbour k cells on is the
same run started k strides later, so each operand of a stencil is one
contiguous array and each numpy call one loop.  Fluxes live on the n + 1
faces of an axis, face k at index k, so a flux difference is the flux
window one cell on minus the flux window.  The last entries of every row
of a window are seams, which read the next row or the lane's slack: they
are computed and never read, since only the valid box of a window, its
first n entries along the axis, is read outside the stencils, by the
accumulation into the derivative (and into div u) here and into the
viscous rate in ``stable_dt``.  The local Lax-Friedrichs flux of all
1 + dim equations is one pass over the stacked [left; right] face states:
the clamp, the wet test, the cutoff velocity, the flux and the jump are
each one numpy call for both sides, mass and momentum together.  Every
pointwise field of a state (clamped density, wet cells, cutoff velocity,
wave speed, the pressure rho^gamma, h and its face values, g) comes from
the state's one bundle, ``diagnostics._Fields``, which :func:`_bundle`
makes once per state, for the first kernel that asks for it, h and g
through the law's one path written into the bundle's buffers; no kernel
derives one itself.  The new state of a step gets its bundle once, for
its per-step energy, its ledger row when one is due, the next
``stable_dt`` and the first stage of the next step.

Every field-sized array of a step (the stage states, the new state, the
stage derivative, the bundle's fields and the stencil scratch) lives in one
private workspace (``_workspace._Workspace``), allocated when
``run_members`` starts a batch and rebuilt when a member leaves it, and so
does every view that a step reads or writes: the halo pieces of both state
buffers, the face rows, the flux rows, the windows of every lane with their
shifts and valid boxes.  A state of the stage loop is one of the
workspace's two state buffers, which consecutive steps alternate between.
A step then slices nothing and allocates no field, and its Python-level
calls are the kernels themselves.
``run_members`` hands the workspace to the kernels as their private
``_work`` keyword; without it, the public ``rhs``, ``stable_dt`` and
``step`` copy their state (one state becoming a batch of one) into a
throwaway workspace of their own and run the same code, and the arrays they
return are then the caller's.  Each cell value takes the same operations, in
the same order, as the plain per-cell formula, so neither the layout nor
the workspace changes a result, and every member of a batch gets exactly
the trajectory and ledger of its own :func:`run`.

A member's run ends in one way: the initial checks, ``stable_dt`` (no
finite positive bound), a stage of ``step`` (a non-finite field) or the
timestep floor raises a SolverError whose ``errors`` map gives each member
that ends there (row 0 for one state) its own error; ``run_members``
records those members' errors and redoes the step for the rest, which a
failed step leaves untouched, or the initial checks, from their data as
given.

Time stepping is SSP-RK2, a convex combination of forward-Euler stages
(Gottlieb, Shu & Tadmor, SIAM Rev. 43 (2001)), so the floors and the
positivity of a stage carry over to the step.  Negative densities are
clamped to zero and momentum on sub-cutoff cells is zeroed; both events are
counted and reported, never silent.  Both stages and the initial data (once
a finite time and a nonnegative density are checked) go through one path,
:func:`_settle`: the floors, then the finiteness test.  A forcing hook on
the momentum equation exists solely for manufactured-solution testing and
is zero in physical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .diagnostics import EntropyLedger, MomentParams, _Fields, _row
from ._workspace import _limited_slope, _Stacked, _Workspace
from .grid import PeriodicGrid, State, _centered, _cutoff, _grid_axes
from .viscosity import AdmissibilityParams, ViscosityLaw, validate

INTEGRATORS = ("RK2_SSP",)
LIMITERS = ("mc", "minmod", "van_albada", "none")
DT_FLOOR_FACTOR = 1e-12


class SolverError(RuntimeError):
    """Aborted run (non-finite fields or timestep underflow)."""


class _MemberErrors(SolverError):
    """The runs of some members end: ``errors`` maps the row of each (0 for
    one state) to the error its run ends with, a SolverError, or a
    ValueError for initial data that fail their checks; the text is the
    first."""

    def __init__(self, errors: dict[int, Exception]):
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
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if self.limiter not in LIMITERS:
            raise ValueError(f"limiter must be one of {LIMITERS}")
        if self.ledger_stride < 1:
            raise ValueError("ledger_stride must be >= 1")
        self.moment.validate(self.params.nu)

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
    if not 0.0 < peak < math.inf:  # all dry, or non-finite data that _check_initial reports
        return 1e-10
    return 1e-10 * peak


def _load(work: _Workspace, config: SolverConfig, t: np.ndarray, q: np.ndarray) -> _Stacked:
    """Copy a stacked batch (its times ``t`` and stacked fields ``q``) into
    the first state buffer of ``work``."""
    state = work.stacked[0]
    state.q[...] = q
    state.t = t
    work.fields = None
    return state


def _bundle(state: State, config: SolverConfig, work: _Workspace) -> _Fields:
    """The bundle of ``state``, the state buffer of ``work`` written last:
    the one ``work.fields`` keeps until a state buffer is written again,
    made there by the first kernel, or the run loop, that asks for it."""
    f = work.fields
    if f is None:
        f = work.fields = _Fields(state, config.grid, config.law, config.params.gamma,
                                  config.eps_vac, work)
    return f


def _enter(state: State, config: SolverConfig, caller: str) -> tuple[_Stacked, _Workspace, bool]:
    """A public call's state copied into a throwaway workspace of its own,
    that workspace, and whether the call was given one state (which becomes
    a batch of one): the arrays the call returns are then the caller's."""
    if config.eps_vac is None:
        raise ValueError(f"{caller} needs a resolved eps_vac on the config")
    state.check_shapes(config.grid)
    one = np.ndim(state.t) == 0
    rho = state.rho[np.newaxis] if one else state.rho
    mom = state.mom[:, np.newaxis] if one else state.mom
    work = _Workspace(config, rho.shape)
    q = np.concatenate((rho[np.newaxis], mom))
    return _load(work, config, np.array(state.t, dtype=float, ndmin=1), q), work, one


def _member(state: State, k: int) -> State:
    """A copy of member ``k`` of a batch."""
    return State(float(state.t[k]), state.rho[k].copy(), state.mom[:, k].copy())


def _derivative(pair: tuple[np.ndarray, np.ndarray], work: _Workspace) -> np.ndarray:
    """The stacked derivative of a (d rho/dt, d m/dt) pair that is not the
    workspace's own ``rows`` (those of a replaced ``rhs``), copied into it."""
    d = work.d
    d[0], d[1:] = pair
    return d


def rhs(state: State, config: SolverConfig, *, _work: _Workspace | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (d rho/dt, d m/dt) of one state or of a
    batch.  With ``_work``, ``state`` is the state buffer of that workspace
    written last, whose bundle the workspace holds or makes, and the pair
    returned is the workspace's ``rows``."""
    one = False
    if _work is None:
        state, _work, one = _enter(state, config, "rhs")
    work = _work
    f = _bundle(state, config, work)
    eps_vac, limiter = config.eps_vac, config.limiter
    d = work.d
    for s, halo in zip(work.axes, state.halos):
        # the face states on the n + 1 faces, face k (between cells k - 1 and k)
        # at index k: left = q_{k-1} + h/2 slope_{k-1}, right = q_k - h/2 slope_k
        np.concatenate(halo, axis=s.axis, out=s.qp)
        half_slope = _limited_slope(s, limiter)
        np.multiply(s.half_h, half_slope, out=half_slope)
        np.add(s.qp_1, half_slope, out=s.left)
        np.subtract(s.qp_2, s.slope_1, out=s.right)
        np.concatenate(s.speed_halo, axis=s.axis, out=s.speed)
        half_a, jump, rho = s.half_a, s.jump, s.rho_faces
        np.multiply(0.5, np.maximum(s.speed_1, s.speed_2, out=half_a), out=half_a)
        np.maximum(rho, 0.0, out=rho)  # of both sides
        # local Lax-Friedrichs on the reconstructed states, every equation at
        # once: 0.5 * (F(q_l) + F(q_r)) - half_a * (q_r - q_l), with the flux
        # F(q) = (m_axis, m u_axis) built in the left face states
        np.multiply(half_a, np.subtract(s.right, s.left, out=jump), out=jump)
        _cutoff(s.m_faces, rho, np.greater(rho, eps_vac, out=s.wet), s.u_faces)
        np.add(s.m_left, s.m_right, out=s.mass)
        np.multiply(s.mom_faces, s.u_faces_b, out=s.mom_faces)
        flux = s.left
        np.add(s.left_mom, s.right_mom, out=s.left_mom)
        np.multiply(0.5, flux, out=flux)
        np.subtract(flux, jump, out=flux)
        np.divide(np.subtract(s.flux_1, flux, out=s.dq), s.h, out=s.dq)
        np.subtract(s.d_in, s.dq_valid, out=d)

    # pressure gradient, centered, of the bundle's rho^gamma
    _, dmom = work.rows
    for s, dm in zip(work.axes, work.dmom_components):
        np.subtract(dm, _centered(s.d_pressure), out=dm)

    # shear viscosity in compact flux form; harmonic face coefficient so the
    # flux degenerates with the density at dry faces
    for s in work.axes:
        flux = s.face_v
        np.concatenate(s.u_halo, axis=s.axis, out=s.pad_v)
        np.subtract(s.pad_v_2, s.pad_v_1, out=flux)
        np.multiply(s.h_face, np.divide(flux, s.h, out=flux), out=flux)
        np.divide(np.subtract(s.face_v_1, flux, out=s.dv), s.h, out=s.dv)
        np.add(dmom, s.dv_valid, out=dmom)

    # second-coefficient term grad(g * div u), centered
    if not work.g_vanishes:
        div_u = work.div_u
        for s in work.axes:
            np.add(s.div_u_in, _centered(s.d_u), out=div_u)
        np.multiply(f.g, div_u, out=div_u)
        for s, dm in zip(work.axes, work.dmom_components):
            np.add(dm, _centered(s.d_div_u), out=dm)

    if config.forcing is not None:  # each member at its own time
        for k, t in enumerate(state.t.tolist()):
            np.add(dmom[:, k], config.forcing(t, config.grid), out=dmom[:, k])
    if one:
        return d[0, 0], dmom[:, 0]
    return work.rows


def stable_dt(state: State, config: SolverConfig, *, _work: _Workspace | None = None
              ) -> float | np.ndarray:
    """Explicit stability bound: cfl times the harsher of the advective limit
    dx/(max|u| + max c) and a diffusive limit, min over wet cells of
    rho_i / rate_i.  The viscous rate of a cell is the diagonal of the shear
    stencil, sum_faces(h_face/dx^2), plus, unless the law's g vanishes, the
    largest over the momentum components a of the centered g stencil's
    Gershgorin row rate (|g_{i+e_a}| + |g_{i-e_a}|) sum_b 1/(4 dx_a dx_b).
    On constant states with g = 0 the diffusive limit reduces to
    dx^2 min(rho)/(2 dim max h); near vacuum the local form stays bounded
    where the global min/max pairing would underflow (the viscous rate at a
    cell scales with h/rho there, not with max h / min rho).

    A batch gets one bound per member.  A wet member without a finite
    positive bound ends its run: the call raises SolverError, with the error
    of every such member in its ``errors`` map (see :func:`step`).  With
    ``_work``, ``state`` is the state buffer of that workspace written last,
    whose bundle the workspace holds or makes."""
    one = False
    if _work is None:
        state, _work, one = _enter(state, config, "stable_dt")
    work = _work
    f = _bundle(state, config, work)
    grid, eps_vac, cfl = config.grid, config.eps_vac, config.cfl
    dx = min(grid.spacing)
    rate, diff_all = work.rate, work.diff_all
    for s in work.axes:
        np.divide(np.add(s.h_face_1, s.h_face, out=s.term), s.h_sq, out=s.term)
        np.add(s.rate_in, s.term_valid, out=rate)
    if not work.g_vanishes:
        # the centered grad(g div u) stencil's row rate for momentum component
        # a, (|g_{i+e_a}| + |g_{i-e_a}|) sum_b 1/(4 dx_a dx_b); the largest over a
        np.abs(f.g, out=work.g_abs)
        for s in work.axes:
            np.concatenate(s.g_halo, axis=s.axis, out=s.g_pad)
            np.multiply(np.add(s.g_pad_1, s.g_pad_3, out=s.term), s.g_coef, out=s.term)
            np.maximum(s.rate_g_in, s.term_valid, out=work.rate_g)
        np.add(rate, work.rate_g, out=rate)
    diff_all.fill(math.inf)
    np.divide(f.rho, rate, out=diff_all, where=np.greater(rate, 0.0, out=work.cell_mask))
    diff = np.minimum.reduce(diff_all, axis=grid.axes, where=f.wet, initial=math.inf).tolist()
    top = np.maximum.reduce(f.waves, axis=grid.axes).tolist()  # max |u| and max c
    any_wet = np.logical_or.reduce(f.wet, axis=grid.axes).tolist()
    # the rest per member, in Python floats: cfl * min(adv, diff), with NaN
    # winning the min as it does in np.minimum
    dt, errors, dry_dt = [], {}, None
    for k, (umax, cmax, diff_k, wet_k) in enumerate(zip(*top, diff, any_wet)):
        speed = umax + cmax
        adv = dx / speed if speed != 0.0 else math.inf  # inf where nothing moves
        if not wet_k:
            if dry_dt is None:
                # an all-dry member: the viscous bound of a cell at the cutoff density
                h_ref = max(float(config.law.h(eps_vac)), 1e-300)
                dry_dt = cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref)
            dt.append(dry_dt)
            continue
        dt_k = cfl * (adv if adv < diff_k or adv != adv else diff_k)
        if not 0.0 < dt_k < math.inf:  # NaN too
            errors[k] = SolverError(f"no finite stable timestep (adv={adv}, diff={diff_k})")
        dt.append(dt_k)
    if errors:
        raise _MemberErrors(errors)
    return dt[0] if one else np.array(dt)


def _apply_floors(rho: np.ndarray, mom: np.ndarray, work: _Workspace):
    """Clamp negative densities and zero momentum on sub-cutoff cells of a
    batch in the workspace ``work``, whose cutoff ``eps_vac`` they use and
    whose boolean buffers they write.  Returns (clamped cells, zeroed
    cells), each counted per member when the floor catches a cell, else 0."""
    cells, axes = work.cell_mask, work.grid_axes
    n_clamp = n_zero = 0
    if np.fmin.reduce(rho, axis=None) < 0.0:  # fmin passes over NaN, as rho < 0 does
        neg = np.less(rho, 0.0, out=cells)
        n_clamp = np.add.reduce(neg, axis=axes, dtype=np.intp)
        np.copyto(rho, 0.0, where=neg)
    # the cells at or below the cutoff with a nonzero momentum component
    moving = np.not_equal(mom, 0.0, out=work.moving)
    np.logical_and(moving, np.less_equal(rho, work.eps_vac, out=cells), out=moving)
    carrying = np.logical_or.reduce(moving, axis=0, out=cells)
    counts = np.add.reduce(carrying, axis=axes, dtype=np.intp)
    if any(counts.reshape(-1).tolist()):
        n_zero = counts
        np.copyto(mom, 0.0, where=carrying)
    return n_clamp, n_zero


def _check_finite(state: State, where: str) -> dict[int, SolverError]:
    """Map the row of each member of a batch with a non-finite field to the
    error that aborts its run; empty when every field is finite."""
    rho, mom = state.rho, state.mom
    axes = _grid_axes(len(mom))
    finite = (np.logical_and.reduce(np.isfinite(rho), axis=axes)
              & np.logical_and.reduce(np.isfinite(mom), axis=(0, *axes)))
    failures = {}
    for k in np.flatnonzero(~finite).tolist():
        rho_k, mom_k = rho[k], mom[:, k]
        finite_rho = np.isfinite(rho_k)
        bad_rho = int(np.count_nonzero(~finite_rho))
        bad_mom = int(np.count_nonzero(~np.isfinite(mom_k)))
        peak = (f"max finite |rho|={np.abs(rho_k[finite_rho]).max():.3g}"
                if finite_rho.any() else "no finite density")
        failures[k] = SolverError(
            f"non-finite fields {where} (t={float(state.t[k]):.6g}): "
            f"{bad_rho} density cells, {bad_mom} momentum entries; {peak}"
        )
    return failures


def _settle(state: _Stacked, work: _Workspace, where: str):
    """Drop the held bundle, floor ``state`` (a stage state, a new state or
    initial data just written into a state buffer) and return the floors'
    (clamped, zeroed) counts; a member with a non-finite field ends its run
    (SolverError, its error with ``where`` in its ``errors`` map)."""
    work.fields = None
    counts = _apply_floors(state.rho, state.mom, work)
    if not np.logical_and.reduce(np.isfinite(state.q, out=work.finite), axis=None):
        raise _MemberErrors(_check_finite(state, where))
    return counts


def step(state: State, config: SolverConfig, dt, *, _work: _Workspace | None = None):
    """One SSP-RK2 step of one state, or of a batch with one dt per member:
    s1 = state + dt k(state), then 0.5 state + 0.5 (s1 + dt k(s1)).  Returns
    (new state, clamped cells, zeroed cells), the counts summed over both
    stages, per member for a batch.  A stage that leaves a non-finite field
    ends the run of each member it holds: the step raises SolverError, with
    the error of every such member in its ``errors`` map, row 0 for one
    state, and its text that of the first.

    The stage state and the new state are written into the state buffer of
    the workspace ``_work`` that does not hold ``state`` (a throwaway
    workspace for a public call, whose arrays the caller then owns), so a
    failed step leaves ``state`` as it was and the other members of a batch
    can redo the step from it.  With ``_work``, ``state`` is the state
    buffer of that workspace written last, and ``dt`` an array."""
    one = False
    if _work is None:
        state, _work, one = _enter(state, config, "step")
        dt = np.array(dt, dtype=float, ndmin=1)
    work = _work
    # dt times a field: each member's dt scales every cell of that member
    w = dt.reshape(work.dt_shape)
    new = work.stacked[1 - state.slot]  # the stage state, then the new state
    q = new.q
    new.t = state.t + dt
    pair = rhs(state, config, _work=work)
    k = work.d if pair is work.rows else _derivative(pair, work)
    np.add(state.q, np.multiply(w, k, out=q), out=q)
    clamps, zeros = _settle(new, work, "after stage 1")
    pair = rhs(new, config, _work=work)
    k = work.d if pair is work.rows else _derivative(pair, work)
    # 0.5 * state + 0.5 * (s1 + w * k), the sums in that order
    np.add(q, np.multiply(w, k, out=k), out=k)
    np.multiply(0.5, k, out=k)
    np.add(np.multiply(0.5, state.q, out=q), k, out=q)
    c, z = _settle(new, work, "after step")
    clamps, zeros = work.no_counts + (clamps + c), work.no_counts + (zeros + z)  # per member
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
        batches.setdefault(eps_vac, []).append((i, initials[i]))
    for eps_vac, members in batches.items():
        _advance(replace(config, eps_vac=eps_vac), members, results, not report.overall)
    return results


def _check_initial(state: _Stacked, work: _Workspace, trajectories: list[Trajectory]):
    """The checks of a batch's initial data in its workspace, in this order:
    a finite time, a nonnegative density, then :func:`_settle` (the cells the
    floors zero set each member's ``initial_vacuum_momentum_zeroed``).  The
    members that fail a check end there: the call raises SolverError with
    the error of each in its ``errors`` map."""
    errors = {k: ValueError(f"initial time must be finite, got {t}")
              for k, t in enumerate(state.t.tolist()) if not math.isfinite(t)}
    if not errors:
        negative = np.logical_or.reduce(np.less(state.rho, 0.0, out=work.cell_mask),
                                        axis=work.grid_axes)
        errors = {k: ValueError("initial density must be nonnegative")
                  for k in np.flatnonzero(negative).tolist()}
    if errors:
        raise _MemberErrors(errors)
    _, zeroed = _settle(state, work, "in initial data")
    for traj, z in zip(trajectories, (work.no_counts + zeroed).tolist()):
        traj.initial_vacuum_momentum_zeroed = z


def _advance(cfg: SolverConfig, members: list, results: list, non_admissible: bool):
    """Step members, given as (index, initial state), to t_end as one batch,
    filling ``results``: their states stacked on a leading axis in a state
    buffer of the batch's workspace, with a time and a dt per member.  The
    initial data are checked and floored there (see :func:`_check_initial`);
    a member that fails leaves the batch as one that fails a step does, and
    the rest are checked again from their data as given.  Each instant's
    times, energies and ledger rows come from the bundle of its state, which
    then serves the next stable_dt and the next step's first stage."""
    grid, t_end, stride = cfg.grid, cfg.t_end, cfg.ledger_stride
    metadata = {"law": cfg.law.describe(), "nu": cfg.params.nu, "gamma": cfg.gamma,
                "delta": cfg.moment.delta, "alpha": cfg.moment.alpha, "eps_vac": cfg.eps_vac,
                "cells": "x".join(str(n) for n in grid.sizes), "integrator": cfg.integrator,
                "cfl": cfg.cfl, "ledger_stride": stride}
    rows = [(i, Trajectory(non_admissible=non_admissible), EntropyLedger(metadata=dict(metadata)))
            for i, _ in members]  # one per batch row
    dt_floor = DT_FLOOR_FACTOR * t_end
    t_done = t_end - 1e-12 * t_end

    initials = dict(members)

    def given(indices):  # the times and stacked fields of members' initial data
        states = [initials[i] for i in indices]
        return (np.array([st.t for st in states], dtype=float),
                np.stack([np.concatenate((st.rho[np.newaxis], st.mom)) for st in states], axis=1))

    def leave(gone, outcome):
        """Record the outcome of the members at rows ``gone`` and drop them
        from the batch.  The rest go on from the state they hold, or, before
        it is booked, from their data as given: a failed check floored it."""
        nonlocal rows, state, work
        for k in gone:
            results[rows[k][0]] = outcome(k)
        keep = [k for k in range(len(rows)) if k not in gone]
        rows = [rows[k] for k in keep]
        if rows:
            work = _Workspace(cfg, (len(rows), *grid.sizes))
            state = _load(work, cfg, *((state.t[keep], state.q[:, keep]) if booked
                                       else given([i for i, _, _ in rows])))

    def finished(k):
        _, traj, ledger = rows[k]
        traj.final_state = _member(state, k)  # the state lives in the workspace
        return traj, ledger

    try:
        work = _Workspace(cfg, (len(rows), *grid.sizes))  # one per batch shape
        state = _load(work, cfg, *given(initials))
    except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
        for i, _, _ in rows:
            results[i] = exc
        return
    booked = False  # whether the instant of ``state`` is in the trajectories
    while rows:
        if booked:
            t = state.t.tolist()
            if max(t) >= t_done:
                leave([k for k, t_k in enumerate(t) if t_k >= t_done], finished)
                continue
        try:
            if booked:
                dt = stable_dt(state, cfg, _work=work)
                dts = dt.tolist()
                if min(dts) < dt_floor:
                    raise _MemberErrors({k: SolverError(f"timestep underflow: required dt "
                                                        f"{dt_k:.3g} < floor {dt_floor:.3g}")
                                         for k, dt_k in enumerate(dts) if dt_k < dt_floor})
                state, clamps, zeros = step(state, cfg, np.minimum(dt, t_end - state.t),
                                            _work=work)
                for (_, traj, _), c, z in zip(rows, clamps.tolist(), zeros.tolist()):
                    traj.step_count += 1
                    traj.clamp_count += c
                    traj.vacuum_zero_count += z
            else:
                _check_initial(state, work, [traj for _, traj, _ in rows])
            # book the instant the batch has reached: its bundle serves the
            # energies and the ledger rows of the members due one, as it
            # serves the next stable_dt and the next step's first stage
            f = _bundle(state, cfg, work)
            t = state.t.tolist()
            energies = f.energy().tolist()
            columns = None
            for k, (_, traj, ledger) in enumerate(rows):
                traj.step_times.append(t[k])
                traj.step_energies.append(energies[k])
                if not booked or traj.step_count % stride == 0 or t[k] >= t_done:
                    if columns is None:
                        columns = f.ledger_columns(cfg.moment)
                    traj.times.append(t[k])
                    traj.states.append(_member(state, k))
                    ledger.append(_row(t[k], columns, k, traj.clamp_count,
                                       traj.vacuum_zero_count))
            booked = True
        except _MemberErrors as exc:
            # those members end; the rest redo the step from the state they
            # still hold, which a failed step leaves as it was
            leave(exc.errors, exc.errors.get)
        except Exception as exc:  # noqa: BLE001 - an error of the whole batch fails every member
            leave(range(len(rows)), lambda k: exc)
