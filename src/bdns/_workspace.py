"""The stage loop's workspace: every field-sized array of a solver step, and
the in-place stencils that write into it.

One workspace serves states of one shape (one state, or a batch of members
stacked on a leading axis).  It holds two state buffers that consecutive
steps alternate between, the stage derivatives, the RK4 sum, the per-state
bundle of :class:`_StageFields` and the stencil scratch.  The scratch is
four flat lanes (and two boolean ones).  The stencils of each grid axis, the
bundle, ``stable_dt``, the terms after the axis loop of ``rhs`` and the
per-step ``diagnostics.energy`` (given lane views as its scratch) never run
at once, so they all view the same lanes, each at its own shapes, and every
view is made once, when the workspace is built.  Every function here writes
with ``out=`` and computes each cell with the same operations, in the same
order, as the allocating formula it replaces.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .diagnostics import _EnergyScratch
from .grid import _CUTS, PeriodicGrid, State, _Cut, _halo, _power

if TYPE_CHECKING:
    from .solver import SolverConfig


def _extend(shape: tuple[int, ...], cut: _Cut, width: int) -> tuple[int, ...]:
    """``shape`` with the cut's axis longer by ``width``."""
    out = list(shape)
    out[cut.axis] += width
    return tuple(out)


def _zero_where_not(out: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.where(keep, out, 0.0)`` in place; ``keep`` is overwritten."""
    np.logical_not(keep, out=keep)
    np.copyto(out, 0.0, where=keep)
    return out


class _Workspace:
    """Every field-sized array of the stage loop, for states of one shape
    (see the module docstring)."""

    LANES = 4

    def __init__(self, config: SolverConfig, shape: tuple[int, ...]):
        grid = config.grid
        dim = grid.dim
        self.shape = shape  # of a density: any member axis, then the grid axes
        stacked = (1 + dim, *shape)
        self.states = (np.empty(stacked), np.empty(stacked))
        self.drho, self.dmom = np.empty(shape), np.empty((dim, *shape))
        self.acc = np.empty(stacked) if config.integrator == "RK4" else None
        self._lane = max(math.prod(_extend(stacked, cut, 4)) for cut in _CUTS[dim])
        self._lanes = np.empty(self.LANES * self._lane)
        self._masks = np.empty(2 * self._lane, dtype=bool)
        self.axes = tuple(_AxisScratch(self, cut, shape, dim) for cut in _CUTS[dim])
        vector = (dim, *shape)
        # after the axis loop of rhs: centered differences use lanes 0 (halo)
        # and 1, the shear flux lanes 0 to 2, the velocity lane 3
        self.diff_c, self.shear, self.u = self.view(1, shape), self.view(2, vector), self.view(
            3, vector)
        self.pressure, self.div_u = self.view(3, shape), self.view(2, shape)
        self.rate, self.term, self.diff_all = (self.view(lane, shape) for lane in (0, 1, 2))
        self.cell_mask = self.mask(shape)
        # the per-step energy's fields, in lanes 0 to 2
        field = math.prod(shape)
        self.energy_scratch = _EnergyScratch(
            rho=self.view(1, shape), wet=self.cell_mask, sqrt_rho=self.view(1, shape, field),
            sru=self.view(0, vector), sru2=self.view(0, shape, grid.dim * field),
            pressure=self.view(2, shape), density=self.view(2, shape, field))
        self.fields = _StageFields(self, grid, shape)

    def view(self, lane: int, shape: tuple[int, ...], at: int = 0) -> np.ndarray:
        """A float view of ``shape`` starting ``at`` elements into a lane."""
        start = lane * self._lane + at
        return self._lanes[start:start + math.prod(shape)].reshape(shape)

    def mask(self, shape: tuple[int, ...], lane: int = 0) -> np.ndarray:
        start = lane * self._lane
        return self._masks[start:start + math.prod(shape)].reshape(shape)

    def spare(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        """(rho, mom) of the state buffer that does not hold ``state``: where a
        step writes its stage states and its new state."""
        q = self.states[1] if np.may_share_memory(state.rho, self.states[0]) else self.states[0]
        return q[0], q[1:]


class _AxisScratch:
    """Lane views for the stencils along one grid axis.  A view shares storage
    only with views that are dead when it is written: the faces overwrite
    the differences and the limiter's scratch, and the fluxes use lanes 0
    and 3, which the faces leave free, and then the faces themselves."""

    def __init__(self, work: _Workspace, cut: _Cut, shape: tuple[int, ...], dim: int):
        def field(width):
            return _extend(shape, cut, width)

        def stacked(width):  # rho and every momentum component
            return (1 + dim, *field(width))

        view = work.view
        after = math.prod(field(1))  # lane 0 holds half_a first
        self.cut = cut
        self.qp, self.diff = view(0, stacked(4)), view(1, stacked(3))
        self.scratch, self.slope = view(2, stacked(2)), view(3, stacked(2))
        self.same, self.keep = work.mask(stacked(2)), work.mask(stacked(2), 1)
        self.left, self.right = view(1, stacked(1)), view(2, stacked(1))
        self.speed, self.half_a = view(3, field(2)), view(0, field(1))
        self.flux_rho, self.jump, self.d_rho = view(3, field(1)), view(0, field(1), after), view(
            0, shape, after)
        self.u_l, self.u_r = view(3, field(1)), view(3, field(1), after)
        self.wet = work.mask(field(1))
        self.jump_m, self.d_mom = view(0, (dim, *field(1)), after), view(0, (dim, *shape), after)
        # halos of one field or of a vector, and its faces: the bundle's
        # harmonic faces, centered differences and the shear flux
        self.pad, self.pad_v = view(0, field(2)), view(0, (dim, *field(2)))
        self.face, self.face_v = view(1, field(1)), view(1, (dim, *field(1)))
        self.positive = work.mask(field(1))


def _limited_slope(s: _AxisScratch, limiter: str) -> np.ndarray:
    """The limited slope of cells -1 .. n, written into ``s.slope``, from the
    backward differences of cells -1 .. n + 1 in ``s.diff`` (dminus is
    ``diff[lo]`` and dplus ``diff[hi]``), which are overwritten."""
    cut, diff, out, t, same = s.cut, s.diff, s.slope, s.scratch, s.same
    dminus, dplus = diff[cut.lo], diff[cut.hi]
    if limiter == "van_albada":
        # smooth limiter: second order at smooth extrema, damped at fronts:
        # dminus * dplus * (dminus + dplus) / (dminus^2 + dplus^2)
        np.greater(np.multiply(dminus, dplus, out=out), 0.0, out=same)
        np.multiply(out, np.add(dminus, dplus, out=t), out=out)
        np.square(diff, out=diff)
        denom = np.add(dminus, dplus, out=t)
        keep = np.greater(denom, 0.0, out=s.keep)
        np.divide(out, denom, out=out, where=keep)
        return _zero_where_not(_zero_where_not(out, keep), same)
    if limiter != "none":
        np.greater(np.multiply(dminus, dplus, out=out), 0.0, out=same)
    central = np.multiply(0.5, np.add(dminus, dplus, out=out), out=out)
    if limiter == "none":
        return central
    np.abs(diff, out=diff)
    mag = np.minimum(dminus, dplus, out=t)  # of |dminus| and |dplus|
    if limiter != "minmod":  # monotonized central
        np.minimum(np.abs(central, out=diff[cut.lo]), np.multiply(2.0, mag, out=mag), out=mag)
    np.multiply(np.sign(central, out=central), mag, out=central)
    return _zero_where_not(central, same)


def _face_states(rho: np.ndarray, mom: np.ndarray, h: float, limiter: str, s: _AxisScratch):
    """Left/right reconstructions of rho and every momentum component, stacked
    (rho first), on the n + 1 faces of the axis, face k lying between cells
    k - 1 and k."""
    cut, qp, diff = s.cut, s.qp, s.diff
    _halo(rho, cut, 2, qp[0])
    _halo(mom, cut, 2, qp[1:])
    np.subtract(qp[cut.hi], qp[cut.lo], out=diff)
    np.divide(diff, h, out=diff)  # diff[k] is the backward difference of cell k - 1
    half_slope = _limited_slope(s, limiter)
    np.multiply(0.5 * h, half_slope, out=half_slope)
    qc = qp[cut.mid]  # cells -1 .. n
    np.add(qc[cut.lo], half_slope[cut.lo], out=s.left)
    np.subtract(qc[cut.hi], half_slope[cut.hi], out=s.right)
    return s.left, s.right


def _face_velocity(rho_face: np.ndarray, m_face: np.ndarray, eps_vac: float, out: np.ndarray,
                   wet: np.ndarray) -> np.ndarray:
    np.greater(rho_face, eps_vac, out=wet)
    np.divide(m_face, rho_face, out=out, where=wet)
    return _zero_where_not(out, wet)


def _harmonic_face(h_cell: np.ndarray, s: _AxisScratch, out: np.ndarray) -> np.ndarray:
    """Harmonic mean of h on the n + 1 faces of the axis, into ``out``; zero
    at a face with a dry side."""
    cut, hp, total, pos = s.cut, s.pad, s.face, s.positive
    _halo(h_cell, cut, 1, hp)
    left, right = hp[cut.lo], hp[cut.hi]
    np.add(left, right, out=total)
    np.greater(total, 0.0, out=pos)
    np.multiply(2.0, left, out=out)
    np.multiply(out, right, out=out)
    np.divide(out, total, out=out, where=pos)
    return _zero_where_not(out, pos)


class _StageFields:
    """Fields of one state (or batch) that both ``stable_dt`` and ``rhs``
    need: the clamped density, the wet cells (rho > eps_vac), the largest
    |u| and sound speed of each member, the wave speed |u| + c per cell, the
    harmonic face viscosity of every axis and g(rho) (None when it is zero
    in every cell, and never evaluated for a law whose g vanishes
    identically).  The bundle is not released after the first stage: it
    lives in a workspace, whose buffers hold its arrays, and ``of``
    recomputes it in place for each new state, so that ``stable_dt`` and the
    first stage of the step that follows share one fill; every later stage
    refills it in ``rhs``."""

    def __init__(self, work: _Workspace, grid: PeriodicGrid, shape: tuple[int, ...]):
        vector = (grid.dim, *shape)
        self.rho = np.empty(shape)
        self.wet = np.empty(shape, dtype=bool)
        self.speed = np.empty(shape)
        self.h_face = tuple(np.empty(_extend(shape, s.cut, 1)) for s in work.axes)
        self._axes = work.axes
        self._dry = work.cell_mask
        self._u2, self._umag = work.view(0, vector), work.view(1, shape)
        self._cs = work.view(2, shape)
        self.umax = self.cmax = self.g = self.source = None

    def of(self, state: State, config: SolverConfig) -> "_StageFields":
        """The bundle of ``state``: as it is when it was last filled from
        this very object, else refilled.  The kernels never change a state
        they read, and the stage loop makes a new one for every stage."""
        return self if self.source is state else self.fill(state, config)

    def fill(self, state: State, config: SolverConfig) -> "_StageFields":
        eps_vac = config.eps_vac
        if eps_vac <= 0:
            raise ValueError("eps_vac must be positive")
        state.check_shapes(config.grid)
        gamma = config.gamma
        rho = state.rho
        np.maximum(rho, 0.0, out=self.rho)
        np.greater(rho, eps_vac, out=self.wet)
        u = self.velocity(state, self._u2)
        umag = np.sum(np.square(u, out=u), axis=0, out=self._umag)
        np.sqrt(umag, out=umag)
        cs = _power(self.rho, gamma - 1.0, self._cs)
        np.multiply(gamma, cs, out=cs)
        np.sqrt(cs, out=cs)
        self.umax = umag.max(axis=config.grid.axes)
        self.cmax = cs.max(axis=config.grid.axes)
        np.add(umag, cs, out=self.speed)
        law = config.law
        h_cell = law.h(self.rho)
        for s, h_face in zip(self._axes, self.h_face):
            _harmonic_face(h_cell, s, h_face)
        self.g = None
        if not law.g_vanishes:
            g_cell = law.g(self.rho)
            if (g_cell != 0.0).any():
                self.g = g_cell
        self.source = state
        return self

    def velocity(self, state: State, out: np.ndarray) -> np.ndarray:
        """The cutoff velocity of ``state``, the state the bundle was filled
        from: m / rho on wet cells and zero elsewhere, into ``out``.  It is
        computed where it is needed rather than kept, which saves dim fields
        of workspace."""
        # an overflowing velocity is no error here: stable_dt reports it
        with np.errstate(over="ignore"):
            np.divide(state.mom, state.rho, out=out, where=self.wet)
        np.copyto(self._dry, self.wet)
        return _zero_where_not(out, self._dry)
