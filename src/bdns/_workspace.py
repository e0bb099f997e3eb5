"""The stage loop's workspace: every field-sized array of a solver step, every
view the step reads or writes, and the in-place stencils that use them.

One workspace serves batches of one shape: B members stacked on a leading
axis, a run being a batch of one.  A state's density and momentum are the
rows of one stacked (1 + dim, B, *sizes) array, and so are the state's
derivative and the face states of every stencil: each elementwise step of
the stage loop is one numpy call for all 1 + dim equations.  The workspace
holds two state buffers that consecutive steps alternate between (each a
:class:`_Stacked` state), the stacked derivative, the buffers of the
per-state bundle :class:`~bdns.diagnostics._Fields` and the stencil
scratch.  The scratch is four flat lanes (and two boolean ones).  The
stencils of each grid axis, the bundle's kernel fields (made with the
bundle), ``stable_dt``, the terms after the axis loop of ``rhs``, the floors
and the finiteness test of a stage state or of the initial data and the
bundle's energy fields never run at once, so they all view the same lanes,
each at its own shapes.  A batch's
initial data are loaded into the first state buffer and checked and
floored there, with the workspace's cutoff and boolean buffers, as every
stage state is: the floors have no other path.  The bundle makes every
pointwise field of its state, and its own fields (the clamped density, the
wet cells, the cutoff velocity, |u|, the sound speed, the wave speed, the
pressure rho^gamma, h, the harmonic faces and, for a law whose g does not
vanish, g) have buffers of their own, since the kernels read them while
the stencils write the lanes; h and g are evaluated through the law's one
path, with those buffers as ``out`` and lanes as scratch.

Every stencil operand is a *window* (see :class:`~bdns.grid._Cut`): a
contiguous run of a lane, reshaped to the layout of the field padded along
the stencil's axis with two periodic ghost cells at each end.  A neighbour
k cells on along the axis is the same window started k cells' stride
later, so the padded state and its shifts, the differences and the
limiter's operands, the [left; right] face states and the flux, the halo
reads of the speed, of h and of the velocity, and the centered differences
are each one contiguous array, and each numpy call of a stencil is one
loop.  The windows of a lane end where its slack begins: ``_SHIFTS`` cells
of the widest stride, so that a shifted window stays in its lane.  The
lanes are made zeroed, so that what a shift reads past the end of its
window is zero or a value the step computed: no view but the stacked face
states, which run from lane 1 across its slack into lane 2, writes a slack.
The last entries of every row of a window are seams: they read the next
row (for the left face states, the right ones) or the slack, are computed
like every other entry and read by nothing.  Only the valid box of a
window, the first n entries along the axis, is read outside the stencils:
by the accumulation into the derivative ``d`` (and ``div u``) in ``rhs``
and into the viscous rate of ``stable_dt``.  The bundle's harmonic faces
are windows too, of buffers of their own with their own slack.

Every view a step indexes is made here, once, when the workspace is built:
the windows of every lane and their shifts, the face rows and flux rows,
the valid boxes, the bundle buffers, and the halo pieces of both state
buffers.  A step then slices nothing (unless a forcing hook is set) and
allocates no field: every function here writes with ``out=`` into those
views and computes each cell with the same operations, in the same order,
as the allocating formula it replaces (the limiters as min/max clamps that
give the same bits, see :func:`_limited_slope`); each guarded division
goes through :func:`~bdns.grid._cutoff` into a buffer of its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .grid import _SHIFTS, _Cut, State, _centered_pieces, _cutoff

if TYPE_CHECKING:
    from .solver import SolverConfig


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
        self.halos = tuple(cut.halo(q) for cut in cuts)


class _Workspace:
    """Every field-sized array of the stage loop, and every view of them
    that a step reads or writes, for states of one shape (see the module
    docstring)."""

    LANES = 4

    def __init__(self, config: SolverConfig, shape: tuple[int, ...]):
        grid = config.grid
        dim = grid.dim
        cuts = grid._cuts
        members = shape[:len(shape) - dim]  # shape is a density's: members, then the grid
        stacked = (1 + dim, *shape)
        vector = (dim, *shape)
        self.stacked = tuple(_Stacked(np.empty(stacked), slot, cuts) for slot in (0, 1))
        self.d = d = np.empty(stacked)  # d(rho, m)/dt
        self.rows = (d[0], d[1:])  # what rhs returns
        self.dmom_components = tuple(d[1 + a] for a in range(dim))
        self.dt_shape = (-1,) + (1,) * dim  # a dt per member, against a field
        self.g_vanishes = config.law.g_vanishes
        self.no_counts = np.zeros(members, dtype=np.intp)  # per member; never written
        # a lane: the largest padded stacked state, where every window ends,
        # then the slack
        self._end = max(math.prod(cut.padded(stacked)) for cut in cuts)
        self._lane = self._end + _SHIFTS * max(cut.stride for cut in cuts)
        self._lanes = np.zeros(self.LANES * self._lane)
        self._masks = np.empty(2 * self._lane, dtype=bool)
        field = math.prod(shape)
        # the harmonic faces of h along every axis, and their shift by a cell
        self.h_faces = tuple(cut.windows(cut.buffer(cut.padded(shape)), 0, cut.padded(shape), 0, 1)
                             for cut in cuts)
        # the bundle of the state in the buffer last written (see _Fields), and
        # the buffers of every bundle: its own fields (g only for a law whose
        # g does not vanish), then the scratch of its kernel fields in lanes 0
        # to 2 and its energy's fields in lanes 0 to 3.  A bundle keeps the
        # arrays, not the workspace, so that a finished run's workspace is
        # freed when its last name goes
        self.fields = None
        self.bundle_out = {
            "rho": np.empty(shape), "wet": np.empty(shape, dtype=bool), "u": np.empty(vector),
            "waves": np.empty((2, *shape)), "speed": np.empty(shape),
            "rho_gamma": np.empty(shape), "h": np.empty(shape),
            "h_face": tuple(faces for faces, _ in self.h_faces),
            "g": None if self.g_vanishes else np.empty(shape),
            "u_sq": self.view(0, vector), "h_term": self.view(1, shape),
            "g_spare": self.view(2, shape),
            "sqrt_rho": self.view(1, shape), "sqrt_rho_u": self.view(0, vector),
            "sru_sq": self.view(3, vector), "sru2": self.view(0, shape, dim * field),
            "potential": self.view(2, shape), "density": self.view(2, shape, field),
        }
        # after the axis loop of rhs: centered differences in lanes 0 (halo)
        # and 1, div u in lane 2
        self.div_u = self.view(2, shape)
        self.rate, self.diff_all = self.view(0, shape), self.view(2, shape)
        # stable_dt's g term: |g| in lane 3, and the largest rate over the
        # axes in diff_all's buffer, before diff_all is written
        self.g_abs, self.rate_g = self.view(3, shape), self.diff_all
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

    def window(self, lane: int, shape: tuple[int, ...]) -> np.ndarray:
        """The window of ``shape`` that ends where a lane's slack begins."""
        return self.view(lane, shape, self._end - math.prod(shape))

    def windows(self, lane: int, shape: tuple[int, ...], cut: _Cut, *cells: int
                ) -> tuple[np.ndarray, ...]:
        """The :meth:`window` of ``shape`` shifted by each of ``cells`` cells
        along the cut's axis."""
        start = lane * self._lane + self._end - math.prod(shape)
        return cut.windows(self._lanes, start, shape, *cells)

    def mask(self, shape: tuple[int, ...], lane: int = 0, at: int = 0) -> np.ndarray:
        start = lane * self._lane + at
        return self._masks[start:start + math.prod(shape)].reshape(shape)


class _AxisScratch:
    """Lane windows for the stencils along one grid axis, in the layouts of
    a density padded along it (``field``), of the stacked state and of a
    vector.  A lane's windows all end at the same entry, so each shares
    storage with every other window of its lane: it is written only when
    those are dead.  The stacked face states of both sides end where lane
    2's slack begins, the left ones mostly in lane 1, and overwrite the
    differences and the limiter's scratch; the flux works in lanes 0 and 3,
    which the face states leave free (half_a, then the face velocity of both
    sides, in lane 0; the speed halo, then the jump and the flux difference,
    in lane 3), and sums in the left face states themselves, the mass flux
    in the row of the left densities once the face velocity has read them."""

    def __init__(self, work: _Workspace, config: SolverConfig, a: int, cut: _Cut,
                 shape: tuple[int, ...], dim: int):
        grid, out, window, windows = config.grid, work.bundle_out, work.window, work.windows
        field = cut.padded(shape)
        stacked, vector = (1 + dim, *field), (dim, *field)  # rho and every momentum component
        self.axis = cut.axis
        # what the axis adds its term to: 0.0 before the first axis, so that
        # no sum is zeroed first
        self.rate_in, self.d_in, self.div_u_in = (
            (0.0, 0.0, 0.0) if a == 0 else (work.rate, work.d, work.div_u))
        self.h = h = grid.spacing[a]
        self.half_h, self.h_sq = 0.5 * h, h**2
        # face states: the padded state and its shifts, its differences
        # (dminus at index j is the backward difference of cell j - 1, dplus
        # that of cell j), the limiter's scratch and the limited slope of
        # cell j - 1 at index j
        self.qp, self.qp_1, self.qp_2 = windows(0, stacked, cut, 0, 1, 2)
        self.dminus, self.dplus = windows(1, stacked, cut, 0, 1)
        self.scratch = window(2, stacked)
        self.slope, self.slope_1 = windows(3, stacked, cut, 0, 1)
        self.same, self.keep = work.mask(stacked), work.mask(stacked, 1)
        sides = window(2, (2, *stacked))
        self.left, self.right = sides[0], sides[1]  # the left side is the flux
        self.rho_faces, self.m_faces = sides[:, 0], sides[:, 1 + a]
        self.m_left, self.m_right = sides[0, 1 + a], sides[1, 1 + a]
        self.mass = sides[0, 0]
        self.mom_faces, self.left_mom, self.right_mom = sides[:, 1:], sides[0, 1:], sides[1, 1:]
        # the flux one cell on: the seams of its last rows read the right side
        self.flux_1 = windows(2, (2, *stacked), cut, 1)[0][0]
        # the flux: the speed halo in lane 3, then the jump and the flux
        # difference; half_a in lane 0, then the face velocity of both sides
        self.speed_halo = cut.halo(out["speed"])
        self.speed, self.speed_1, self.speed_2 = windows(3, field, cut, 0, 1, 2)
        self.half_a, self.u_faces = window(0, field), window(0, (2, *field))
        self.u_faces_b = self.u_faces[:, np.newaxis]
        self.jump = self.dq = window(3, stacked)
        self.dq_valid = self.dq[cut.valid]
        self.wet = work.mask((2, *field))
        # the bundle's harmonic faces of h: its halo in lane 0, the sum of
        # both sides in lane 1 and their product in lane 2
        self.h_halo = cut.halo(out["h"])
        self.pad, self.pad_1, self.pad_2 = windows(0, field, cut, 0, 1, 2)
        self.face, self.face_num = window(1, field), window(2, field)
        self.positive = work.mask(field)
        self.h_face, self.h_face_1 = work.h_faces[a]
        # stable_dt: the rate's term along the axis in lane 1; for the g term,
        # |g| padded in lane 3 and the coefficient sum_b 1/(4 dx_a dx_b)
        self.term = window(1, field)
        self.term_valid = self.term[cut.valid]
        self.rate_g_in = 0.0 if a == 0 else work.rate_g
        self.g_halo = cut.halo(work.g_abs)
        self.g_pad, self.g_pad_1, self.g_pad_3 = windows(3, field, cut, 0, 1, 3)
        self.g_coef = sum(1.0 / (4.0 * h * h_b) for h_b in grid.spacing)
        # the shear flux: the velocity's halo in lane 0, its face flux in
        # lane 1, their difference in lane 2
        self.u_halo = cut.halo(out["u"])
        self.pad_v, self.pad_v_1, self.pad_v_2 = windows(0, vector, cut, 0, 1, 2)
        self.face_v, self.face_v_1 = windows(1, vector, cut, 0, 1)
        self.dv = window(2, vector)
        self.dv_valid = self.dv[cut.valid]
        # centered differences along the axis, padded in lane 0 into lane 1:
        # of the bundle's pressure, of the velocity component along it and of
        # div u
        pads, diff_c = windows(0, field, cut, 0, 1, 3), window(1, field)
        self.d_pressure, self.d_u, self.d_div_u = (
            _centered_pieces(f, grid, a, pads, diff_c)
            for f in (out["rho_gamma"], out["u"][a], work.div_u))


def _limited_slope(s: _AxisScratch, limiter: str) -> np.ndarray:
    """The limited slope of cells -1 .. n, written into ``s.slope`` (cell
    j - 1 at index j), from the padded state in ``s.qp``, whose backward
    differences go to ``s.dminus`` (dplus is the same window one cell on).

    The differences are taken over h, and by MC over h / 2: a power-of-two
    scaling, so that they are the doubled differences 2 (dq / h) bit for bit.
    minmod and MC (van Leer, J. Comput. Phys. 23 (1977) 276-299) are min/max
    clamps, with no sign, no masked product and no product dminus * dplus,
    which can overflow: minmod is max(min(d-, d+), 0) + min(max(d-, d+), 0)
    and MC, on the doubled differences D, min(max(c, neg), pos) with the
    central slope c = (D- + D+) / 4, neg = min(max(D-, D+), 0) and
    pos = max(min(D-, D+), 0).  Both give the bits of the sign-and-magnitude
    form (``sign(c) * min(|c|, 2 min(|d-|, |d+|))`` where d- d+ > 0, else 0;
    for minmod ``min(|d-|, |d+|)``), signed zeros included, but where
    d- d+ underflows to 0 with both differences of one sign (|d| below about
    1e-154): the product test reads no common sign there and gives 0, the
    clamps keep the slope.  MC's doubling also rounds apart from the product
    form where dq / h is subnormal (below about 2.2e-308)."""
    dminus, dplus, out, t = s.dminus, s.dplus, s.slope, s.scratch
    np.subtract(s.qp_1, s.qp, out=dminus)
    np.divide(dminus, s.half_h if limiter == "mc" else s.h, out=dminus)
    if limiter == "mc":
        neg = np.minimum(np.maximum(dminus, dplus, out=t), 0.0, out=t)
        central = np.multiply(0.25, np.add(dminus, dplus, out=out), out=out)
        np.maximum(central, neg, out=central)
        pos = np.maximum(np.minimum(dminus, dplus, out=t), 0.0, out=t)
        return np.minimum(central, pos, out=central)
    if limiter == "minmod":
        np.maximum(np.minimum(dminus, dplus, out=out), 0.0, out=out)
        return np.add(out, np.minimum(np.maximum(dminus, dplus, out=t), 0.0, out=t), out=out)
    if limiter == "none":
        return np.multiply(0.5, np.add(dminus, dplus, out=out), out=out)
    # van Albada, a smooth limiter, second order at smooth extrema and damped
    # at fronts: dminus * dplus * (dminus + dplus) / (dminus^2 + dplus^2),
    # zero where the differences differ in sign
    same = np.greater(np.multiply(dminus, dplus, out=out), 0.0, out=s.same)
    np.multiply(out, np.add(dminus, dplus, out=t), out=out)
    np.square(dminus, out=dminus)  # and so dplus, but at the seams
    denom = np.add(dminus, dplus, out=t)
    keep = np.logical_and(np.greater(denom, 0.0, out=s.keep), same, out=s.keep)
    dminus[...] = out  # the numerator, so that the quotient goes to the slope
    return _cutoff(dminus, denom, keep, out)


def _harmonic_face(s: _AxisScratch) -> np.ndarray:
    """Harmonic mean of the bundle's h on the n + 1 faces of the axis, into
    ``s.h_face`` (face k at index k); zero at a face with a dry side."""
    np.concatenate(s.h_halo, axis=s.axis, out=s.pad)
    left, right = s.pad_1, s.pad_2
    total = np.add(left, right, out=s.face)
    num = np.multiply(2.0, left, out=s.face_num)
    np.multiply(num, right, out=num)
    return _cutoff(num, total, np.greater(total, 0.0, out=s.positive), s.h_face)
