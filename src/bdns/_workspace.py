"""The stage loop's workspace: every field-sized array of a solver step, every
slice view the step reads or writes, and the in-place stencils that use them.

One workspace serves batches of one shape: B members stacked on a leading
axis, a run being a batch of one.  A state's density and momentum are the
rows of one stacked (1 + dim, B, *sizes) array, and so are the state's
derivative, the RK4 sum and the face states of every stencil: each
elementwise step of the stage loop is one numpy call for all 1 + dim
equations.  The workspace holds two state buffers that consecutive steps
alternate between (each a :class:`_Stacked` state), the stacked derivative,
the RK4 sum, the buffers of the per-state bundle
:class:`~bdns.diagnostics._Fields` and the stencil scratch.  The scratch is
four flat lanes (and two boolean ones).  The stencils of each grid axis, the
bundle's kernel fields (made with the bundle), ``stable_dt``, the terms after
the axis loop of ``rhs``, the floors and the finiteness test of a stage
state or of the initial data and the bundle's energy fields never run at
once, so they all view the same lanes, each at its own shapes.  A batch's
initial data are loaded into the first state buffer and checked and
floored there, with the workspace's cutoff and boolean buffers, as every
stage state is: the floors have no other path.  The bundle's own fields (the clamped
density, the wet cells, the cutoff velocity, |u|, the sound speed, the wave
speed, h and the harmonic faces) have buffers of their own, since the
kernels read them while the stencils write the lanes.

Every view a step indexes is made here, once, when the workspace is built:
the lo/hi/mid cuts and halo pieces of each lane view, the [left; right] face
rows and flux rows, the bundle buffers and their face cuts, and the halo
pieces of both state buffers.  A step then slices nothing (unless a
forcing hook is set) and allocates no field beyond what the viscosity law's
own evaluation allocates: every function here writes with ``out=`` into
those views and computes each cell with the same operations, in the same
order, as the allocating formula it replaces; each guarded division goes
through :func:`~bdns.grid._cutoff` into a buffer of its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .grid import _CUTS, _Cut, State, _centered_pieces, _cutoff, _halo_pieces

if TYPE_CHECKING:
    from .solver import SolverConfig


def _extend(shape: tuple[int, ...], cut: _Cut, width: int) -> tuple[int, ...]:
    """``shape`` with the cut's axis longer by ``width``."""
    out = list(shape)
    out[cut.axis] += width
    return tuple(out)


class _Stacked(State):
    """A batch whose density and momentum are the rows of one stacked
    (1 + dim, B, *sizes) array ``q``: a state buffer of a workspace (its
    ``slot``, 0 or 1), with the halo pieces of ``q`` along every grid axis.
    Every state of the stage loop is one; its time is set when the buffer is
    written."""

    def __init__(self, q: np.ndarray, slot: int, cuts: tuple[_Cut, ...]):
        super().__init__(None, q[0], q[1:])
        self.q = q
        self.slot = slot
        self.halos = tuple(_halo_pieces(q, cut, 2) for cut in cuts)


class _Workspace:
    """Every field-sized array of the stage loop, and every view of them
    that a step reads or writes, for states of one shape (see the module
    docstring)."""

    LANES = 4

    def __init__(self, config: SolverConfig, shape: tuple[int, ...]):
        grid = config.grid
        dim = grid.dim
        cuts = _CUTS[dim]
        members = shape[:len(shape) - dim]  # shape is a density's: members, then the grid
        stacked = (1 + dim, *shape)
        vector = (dim, *shape)
        self.stacked = tuple(_Stacked(np.empty(stacked), slot, cuts) for slot in (0, 1))
        self.d = d = np.empty(stacked)  # d(rho, m)/dt
        self.rows = (d[0], d[1:])  # what rhs returns
        self.dmom_components = tuple(d[1 + a] for a in range(dim))
        rk4 = config.integrator == "RK4"
        self.acc = np.empty(stacked) if rk4 else None
        # the stage coefficients c of the stage states state + c * dt * k, then
        # None for the new state
        self.stages = (0.5, 0.5, 1.0, None) if rk4 else (1.0, None)
        self.dt_shape = (-1,) + (1,) * dim  # a dt per member, against a field
        self.g_vanishes = config.law.g_vanishes
        self.no_counts = np.zeros(members, dtype=np.intp)  # per member; never written
        self._lane = max(math.prod(_extend(stacked, cut, 4)) for cut in cuts)
        self._lanes = np.empty(self.LANES * self._lane)
        self._masks = np.empty(2 * self._lane, dtype=bool)
        field = math.prod(shape)
        # the bundle of the state in the buffer last written (see _Fields), and
        # the buffers of every bundle: its own fields, then the scratch of its
        # kernel fields in lane 0 and its energy's fields in lanes 0 to 3.  A
        # bundle keeps the arrays, not the workspace, so that a finished run's
        # workspace is freed when its last name goes
        self.fields = None
        self.bundle_out = {
            "rho": np.empty(shape), "wet": np.empty(shape, dtype=bool), "u": np.empty(vector),
            "waves": np.empty((2, *shape)), "speed": np.empty(shape),
            "h": np.empty(shape), "h_face": tuple(np.empty(_extend(shape, cut, 1)) for cut in cuts),
            "u_sq": self.view(0, vector),
            "sqrt_rho": self.view(1, shape), "sqrt_rho_u": self.view(0, vector),
            "sru_sq": self.view(3, vector), "sru2": self.view(0, shape, dim * field),
            "pressure": self.view(2, shape), "density": self.view(2, shape, field),
        }
        # after the axis loop of rhs: the pressure in lane 3, centered
        # differences in lanes 0 (halo) and 1, the shear flux in lanes 0 to 2
        self.pressure, self.diff_c = self.view(3, shape), self.view(1, shape)
        self.shear, self.div_u = self.view(2, vector), self.view(2, shape)
        self.rate, self.term, self.diff_all = (self.view(lane, shape) for lane in (0, 1, 2))
        self.cell_mask = self.mask(shape)
        self.finite = self.mask(stacked)  # a stage state's finite entries
        # the floors: their cutoff, and their boolean buffers, cell_mask and
        # one per momentum entry after it
        self.eps_vac, self.grid_axes = config.eps_vac, grid.axes
        self.moving = self.mask(vector, at=field)
        self.axes = tuple(_AxisScratch(self, config, a, cut, shape, dim)
                          for a, cut in enumerate(cuts))

    def view(self, lane: int, shape: tuple[int, ...], at: int = 0) -> np.ndarray:
        """A float view of ``shape`` starting ``at`` elements into a lane."""
        start = lane * self._lane + at
        return self._lanes[start:start + math.prod(shape)].reshape(shape)

    def mask(self, shape: tuple[int, ...], lane: int = 0, at: int = 0) -> np.ndarray:
        start = lane * self._lane + at
        return self._masks[start:start + math.prod(shape)].reshape(shape)


class _AxisScratch:
    """Lane views for the stencils along one grid axis.  A view shares storage
    only with views that are dead when it is written: the face states of
    both sides, stacked [left; right] from the start of lane 1 into lane 2,
    overwrite the differences and the limiter's scratch; the flux works in
    lanes 0 and 3, which the face states leave free (half_a, then the face
    velocity of both sides, in lane 0; the speed halo, then the jump and
    the flux difference, in lane 3), and sums in the left face states
    themselves, the mass flux in the row of the left densities once the
    face velocity has read them."""

    def __init__(self, work: _Workspace, config: SolverConfig, a: int, cut: _Cut,
                 shape: tuple[int, ...], dim: int):
        def field(width):
            return _extend(shape, cut, width)

        def stacked(width):  # rho and every momentum component
            return (1 + dim, *field(width))

        view, grid, out = work.view, config.grid, work.bundle_out
        lo, hi, mid = cut.lo, cut.hi, cut.mid
        self.axis = cut.axis
        # what the axis adds its term to: 0.0 before the first axis, so that
        # no sum is zeroed first
        self.rate_in, self.d_in, self.div_u_in = (
            (0.0, 0.0, 0.0) if a == 0 else (work.rate, work.d, work.div_u))
        self.h = h = grid.spacing[a]
        self.half_h, self.h_sq = 0.5 * h, h**2
        # face states: the state's halo, its differences and the limited slope
        self.qp, self.diff = view(0, stacked(4)), view(1, stacked(3))
        self.qp_lo, self.qp_hi = self.qp[lo], self.qp[hi]
        self.dminus, self.dplus = self.diff[lo], self.diff[hi]
        self.scratch, self.slope = view(2, stacked(2)), view(3, stacked(2))
        self.slope_lo, self.slope_hi = self.slope[lo], self.slope[hi]
        qc = self.qp[mid]  # cells -1 .. n
        self.qc_lo, self.qc_hi = qc[lo], qc[hi]
        self.same, self.keep = work.mask(stacked(2)), work.mask(stacked(2), 1)
        sides = view(1, (2, *stacked(1)))
        self.left, self.right = sides[0], sides[1]  # the left side is the flux
        self.rho_faces, self.m_faces = sides[:, 0], sides[:, 1 + a]
        self.m_left, self.m_right = sides[0, 1 + a], sides[1, 1 + a]
        self.mass = sides[0, 0]
        self.mom_faces, self.left_mom, self.right_mom = sides[:, 1:], sides[0, 1:], sides[1, 1:]
        self.flux_lo, self.flux_hi = sides[0][lo], sides[0][hi]
        # the flux: the speed halo in lane 3, then the jump and the flux
        # difference; half_a in lane 0, then the face velocity of both sides
        self.speed_halo = _halo_pieces(out["speed"], cut, 1)
        self.speed = view(3, field(2))
        self.speed_lo, self.speed_hi = self.speed[lo], self.speed[hi]
        self.half_a = view(0, field(1))
        self.u_faces = view(0, (2, *field(1)))
        self.u_faces_b = self.u_faces[:, np.newaxis]
        self.jump, self.dq = view(3, stacked(1)), view(3, (1 + dim, *shape))
        self.wet = work.mask((2, *field(1)))
        # the bundle's harmonic faces of h: its halo in lane 0, the sum of
        # both sides in lane 1 and their product in lane 2
        self.h_halo = _halo_pieces(out["h"], cut, 1)
        self.pad = view(0, field(2))
        self.pad_lo, self.pad_hi = self.pad[lo], self.pad[hi]
        self.face, self.face_num = view(1, field(1)), view(2, field(1))
        self.positive = work.mask(field(1))
        self.h_face = out["h_face"][a]
        self.h_face_lo, self.h_face_hi = self.h_face[lo], self.h_face[hi]
        # the shear flux: the velocity's halo in lane 0, its face flux in lane 1
        self.u_halo = _halo_pieces(out["u"], cut, 1)
        self.pad_v = view(0, (dim, *field(2)))
        self.pad_v_lo, self.pad_v_hi = self.pad_v[lo], self.pad_v[hi]
        self.face_v = view(1, (dim, *field(1)))
        self.face_v_lo, self.face_v_hi = self.face_v[lo], self.face_v[hi]
        # centered differences along the axis: of the pressure, of the
        # velocity component along it and of div u
        self.d_pressure, self.d_u, self.d_div_u = (
            _centered_pieces(f, grid, a, self.pad, work.diff_c)
            for f in (work.pressure, out["u"][a], work.div_u))


def _limited_slope(s: _AxisScratch, limiter: str) -> np.ndarray:
    """The limited slope of cells -1 .. n, written into ``s.slope``, from the
    backward differences of cells -1 .. n + 1 in ``s.diff`` (dminus is
    ``diff[lo]`` and dplus ``diff[hi]``), which are overwritten."""
    dminus, dplus, out, t, same = s.dminus, s.dplus, s.slope, s.scratch, s.same
    if limiter == "van_albada":
        # smooth limiter: second order at smooth extrema, damped at fronts:
        # dminus * dplus * (dminus + dplus) / (dminus^2 + dplus^2), zero
        # where the differences differ in sign
        np.greater(np.multiply(dminus, dplus, out=out), 0.0, out=same)
        np.multiply(out, np.add(dminus, dplus, out=t), out=out)
        np.square(s.diff, out=s.diff)
        denom = np.add(dminus, dplus, out=t)
        keep = np.logical_and(np.greater(denom, 0.0, out=s.keep), same, out=s.keep)
        dminus[...] = out  # the numerator, so that the quotient goes to the slope
        return _cutoff(dminus, denom, keep, out)
    if limiter != "none":
        np.greater(np.multiply(dminus, dplus, out=out), 0.0, out=same)
    central = np.multiply(0.5, np.add(dminus, dplus, out=out), out=out)
    if limiter == "none":
        return central
    np.abs(s.diff, out=s.diff)
    mag = np.minimum(dminus, dplus, out=t)  # of |dminus| and |dplus|
    if limiter != "minmod":  # monotonized central
        np.minimum(np.abs(central, out=dminus), np.multiply(2.0, mag, out=mag), out=mag)
    # sign(central) * mag where the differences agree in sign, else 0
    np.sign(central, out=dminus)
    central.fill(0.0)
    return np.multiply(dminus, mag, out=central, where=same)


def _face_states(halo: tuple, s: _AxisScratch, limiter: str):
    """Left/right reconstructions of a stacked state (rho and every
    momentum component), given as its halo pieces along the axis, on the
    n + 1 faces of the axis, face k lying between cells k - 1 and k, into
    ``s.left`` and ``s.right``."""
    np.concatenate(halo, axis=s.axis, out=s.qp)
    diff = np.subtract(s.qp_hi, s.qp_lo, out=s.diff)
    np.divide(diff, s.h, out=diff)  # diff[k] is the backward difference of cell k - 1
    half_slope = _limited_slope(s, limiter)
    np.multiply(s.half_h, half_slope, out=half_slope)
    np.add(s.qc_lo, s.slope_lo, out=s.left)
    np.subtract(s.qc_hi, s.slope_hi, out=s.right)


def _harmonic_face(s: _AxisScratch) -> np.ndarray:
    """Harmonic mean of the bundle's h on the n + 1 faces of the axis, into
    ``s.h_face``; zero at a face with a dry side."""
    np.concatenate(s.h_halo, axis=s.axis, out=s.pad)
    left, right = s.pad_lo, s.pad_hi
    total = np.add(left, right, out=s.face)
    num = np.multiply(2.0, left, out=s.face_num)
    np.multiply(num, right, out=num)
    return _cutoff(num, total, np.greater(total, 0.0, out=s.positive), s.h_face)
