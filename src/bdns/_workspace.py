"""The stage loop's workspace: every field-sized array of a solver step, and
the in-place stencils that write into it.

One workspace serves batches of one shape: B members stacked on a leading
axis, a run being a batch of one.  A state's density and momentum are the
rows of one stacked (1 + dim, B, *sizes) array, and so are the state's
derivative, the RK4 sum and the face states of every stencil: each
elementwise step of the stage loop is one numpy call for all 1 + dim
equations.  The workspace holds two state buffers that consecutive steps
alternate between, the stacked derivative, the RK4 sum, the buffers of the
per-state bundle :class:`~bdns.diagnostics._Fields` and the stencil scratch.
The scratch is four flat lanes (and two boolean ones).  The stencils of each
grid axis, the bundle's kernel fields (made with the bundle), ``stable_dt``,
the terms after the axis loop of ``rhs``, the finiteness test of a stage and
the bundle's energy fields never run at once, so they all view the same
lanes, each at its own shapes, and every view is made once, when the
workspace is built.  The bundle's own fields (the clamped density, the wet
cells, the cutoff velocity, the wave speed and the harmonic faces) have
buffers of their own, since the kernels read them while the stencils write
the lanes.  Every function here writes with ``out=`` and computes each cell
with the same operations, in the same order, as the allocating formula it
replaces; each guarded division goes through :func:`~bdns.grid._cutoff` with
a boolean buffer for its dry cells, so that it allocates nothing either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .grid import _CUTS, _Cut, _cutoff, _halo

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
        self.shape = shape  # of a density: the member axis, then the grid axes
        stacked = (1 + dim, *shape)
        self.states = (np.empty(stacked), np.empty(stacked))
        self.d = np.empty(stacked)  # d(rho, m)/dt; rhs returns its rows
        self.acc = np.empty(stacked) if config.integrator == "RK4" else None
        self.no_counts = np.zeros(shape[0], dtype=np.intp)  # per member; never written
        self._lane = max(math.prod(_extend(stacked, cut, 4)) for cut in _CUTS[dim])
        self._lanes = np.empty(self.LANES * self._lane)
        self._masks = np.empty(2 * self._lane, dtype=bool)
        self.axes = tuple(_AxisScratch(self, cut, shape, dim) for cut in _CUTS[dim])
        vector = (dim, *shape)
        # after the axis loop of rhs: centered differences use lanes 0 (halo)
        # and 1, the shear flux lanes 0 to 2
        self.diff_c, self.shear = self.view(1, shape), self.view(2, vector)
        self.pressure, self.div_u = self.view(3, shape), self.view(2, shape)
        self.rate, self.term, self.diff_all = (self.view(lane, shape) for lane in (0, 1, 2))
        self.cell_mask = self.mask(shape)
        self.finite = self.mask(stacked)  # a stage state's finite entries
        # the bundle of the state the kernels last read (see solver._bundle),
        # and the buffers of every bundle: its own fields, then the scratch
        # of its kernel fields in lanes 0 to 2 and its energy's fields in
        # lanes 0 to 3.  A bundle keeps the arrays, not the workspace, so
        # that a finished run's workspace is freed when its last name goes
        self.fields = None
        field = math.prod(shape)
        self.bundle_out = {
            "rho": np.empty(shape), "wet": np.empty(shape, dtype=bool), "u": np.empty(vector),
            "speed": np.empty(shape),
            "h_face": tuple(np.empty(_extend(shape, s.cut, 1)) for s in self.axes),
            "dry": self.cell_mask, "u_sq": self.view(0, vector), "umag": self.view(1, shape),
            "cs": self.view(2, shape),
            "sqrt_rho": self.view(1, shape), "sqrt_rho_u": self.view(0, vector),
            "sru_sq": self.view(3, vector), "sru2": self.view(0, shape, dim * field),
            "pressure": self.view(2, shape), "density": self.view(2, shape, field),
        }

    def view(self, lane: int, shape: tuple[int, ...], at: int = 0) -> np.ndarray:
        """A float view of ``shape`` starting ``at`` elements into a lane."""
        start = lane * self._lane + at
        return self._lanes[start:start + math.prod(shape)].reshape(shape)

    def mask(self, shape: tuple[int, ...], lane: int = 0) -> np.ndarray:
        start = lane * self._lane
        return self._masks[start:start + math.prod(shape)].reshape(shape)

    def spare(self, q: np.ndarray) -> np.ndarray:
        """The state buffer that is not ``q``, a stacked state: where a step
        writes its stage states and its new state."""
        return self.states[1] if q is self.states[0] else self.states[0]


class _AxisScratch:
    """Lane views for the stencils along one grid axis.  A view shares storage
    only with views that are dead when it is written: the face states of
    both sides, stacked [left; right] from the start of lane 1 into lane 2,
    overwrite the differences and the limiter's scratch; the flux uses lanes
    0 and 3, which the face states leave free, and then the left face states
    themselves."""

    def __init__(self, work: _Workspace, cut: _Cut, shape: tuple[int, ...], dim: int):
        def field(width):
            return _extend(shape, cut, width)

        def stacked(width):  # rho and every momentum component
            return (1 + dim, *field(width))

        view = work.view
        self.cut = cut
        self.qp, self.diff = view(0, stacked(4)), view(1, stacked(3))
        self.scratch, self.slope = view(2, stacked(2)), view(3, stacked(2))
        self.same, self.keep = work.mask(stacked(2)), work.mask(stacked(2), 1)
        self.sides = view(1, (2, *stacked(1)))
        # the flux: half_a and the mass flux of both sides in lane 0, the
        # speed halo and then the jump and the flux difference in lane 3
        self.half_a, self.mass = view(0, field(1)), view(0, field(1), math.prod(field(1)))
        self.speed, self.jump, self.dq = view(3, field(2)), view(3, stacked(1)), view(
            3, (1 + dim, *shape))
        self.wet = work.mask((2, *field(1)))
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
        return _zero_where_not(_cutoff(out, denom, keep, out, dry=keep), same)
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


def _face_states(q: np.ndarray, h: float, limiter: str, s: _AxisScratch) -> np.ndarray:
    """Left/right reconstructions of a stacked state ``q`` (rho and every
    momentum component) on the n + 1 faces of the axis, face k lying between
    cells k - 1 and k, stacked [left; right]."""
    cut, qp, diff = s.cut, s.qp, s.diff
    _halo(q, cut, 2, qp)
    np.subtract(qp[cut.hi], qp[cut.lo], out=diff)
    np.divide(diff, h, out=diff)  # diff[k] is the backward difference of cell k - 1
    half_slope = _limited_slope(s, limiter)
    np.multiply(0.5 * h, half_slope, out=half_slope)
    qc = qp[cut.mid]  # cells -1 .. n
    np.add(qc[cut.lo], half_slope[cut.lo], out=s.sides[0])
    np.subtract(qc[cut.hi], half_slope[cut.hi], out=s.sides[1])
    return s.sides


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
    return _cutoff(out, total, pos, out, dry=pos)
