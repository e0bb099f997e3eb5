"""Periodic uniform grids, field storage, and discrete calculus.

Fields live on a uniform torus in 1 or 2 space dimensions.  Scalar fields
are arrays of shape ``grid.sizes``; vector fields carry a leading component
axis, shape ``(dim, *sizes)``.  A batch of fields, one per ensemble member,
adds a member axis in front of the grid axes (after the component axis);
the centered and Fourier operators and :func:`integrate` act on each member
alone.
Two derivative families are provided:

* second-order centered differences (:func:`grad`, :func:`div`), which
  satisfy discrete integration by parts against the midpoint quadrature
  exactly, taken on windows of a field padded with a periodic halo (see
  :class:`_Cut`; the solver's stencils use the same layout), and
* Fourier collocation derivatives (:func:`spectral_grad`, :func:`spectral_div`)
  used as a high-order oracle on band-limited fields.  They use real-to-complex
  transforms over the grid axes (``rfftn``/``irfftn``, half the spectrum), one
  forward and one inverse transform per derivative, whatever the number of
  fields stacked in front of the grid axes: the gradient stacks the products
  of the transform with the factors i k of every axis
  (:attr:`PeriodicGrid.spectral_factors`) before its inverse, and the
  divergence sums i k_a v_a over the components in Fourier space before it.
  The unpaired Nyquist mode of an even axis is zeroed in the factor of that
  axis, so an odd derivative of a real field stays real.

Velocity is never obtained by a bare division: every quantity divided by
the density or a power of it (``u = m/rho``, ``sqrt(rho) u = m/sqrt(rho)``,
``h/sqrt(rho)``) goes through :func:`_cutoff`, which takes it as zero on dry
cells, where the velocity is undefined.  It divides every cell, dry ones
included, and then overwrites the dry cells, so a quotient by a dry cell's
zero (or NaN) is taken and dropped: its floating-point warnings are no
error.  Into a buffer, as the stage loop calls it, it runs under its
caller's error state (``np.errstate`` with divide, invalid and overflow
ignored), entered once per call of ``solver.run_members`` and of the public
``rhs``, ``stable_dt`` and ``step``; the allocating form, the diagnostics'
outside the stage loop, enters that state itself.  No RuntimeWarning of a
guarded quotient can escape either way.

A division of a field by a spacing (h, h/2, 2h or h^2/2) goes through
:func:`_division`: on a spacing that is a power of two it is a multiply by
the exact reciprocal, which rounds as the divide does.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._draws import _Draws

CHECKPOINT_MAGIC = b"BDNS"
CHECKPOINT_VERSION = 1


class GridError(ValueError):
    """Invalid grid construction or mismatched field shapes."""


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on a 1D or 2D torus."""

    sizes: tuple[int, ...]
    lengths: tuple[float, ...] = ()

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {len(sizes)}")
        if any(n < 8 for n in sizes):
            raise GridError(f"each axis needs >= 8 cells, got {sizes}")
        lengths = self.lengths or tuple(1.0 for _ in sizes)
        lengths = tuple(float(x) for x in lengths)
        if len(lengths) != len(sizes):
            raise GridError("lengths must match sizes")
        if not all(0.0 < x < math.inf for x in lengths):  # NaN too
            raise GridError(f"lengths must be finite and positive, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.sizes))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @cached_property
    def n_cells(self) -> int:
        return math.prod(self.sizes)

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The grid axes of a field, counted from the end, so that reductions
        over them leave any leading component or member axis."""
        return _grid_axes(self.dim)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.sizes[axis]
        return (np.arange(n) + 0.5) * self.spacing[axis]

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') of cell-center coordinates, one array per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def _cuts(self) -> tuple[_Cut, ...]:
        """The padded layout of every grid axis (see :class:`_Cut`)."""
        return tuple(_make_cut(axis, self.sizes) for axis in range(self.dim))

    @cached_property
    def spectral_factors(self) -> tuple[np.ndarray, ...]:
        """Per grid axis, the factor i k of a derivative along it on the half
        spectrum of ``rfftn`` over the grid axes (``rfftfreq`` on the last
        axis, ``fftfreq`` on the others), broadcast-ready.  The unpaired
        Nyquist mode of an even axis gets 0."""
        factors = []
        for axis, (n, d) in enumerate(zip(self.sizes, self.spacing)):
            freq = np.fft.rfftfreq if axis == self.dim - 1 else np.fft.fftfreq
            k = 2.0 * np.pi * freq(n, d)
            if n % 2 == 0:
                k[n // 2] = 0.0
            factors.append((1j * k).reshape([-1 if a == axis else 1 for a in range(self.dim)]))
        return tuple(factors)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.sizes)

    def zeros_vector(self) -> np.ndarray:
        return np.zeros((self.dim, *self.sizes))


@dataclass
class State:
    """Density and momentum on a grid at one instant.

    A batch of B states that advance together carries a vector of B times and
    a member axis in front of the grid axes: ``rho`` has shape (B, *sizes) and
    ``mom`` (dim, B, *sizes)."""

    t: float | np.ndarray
    rho: np.ndarray
    mom: np.ndarray

    def copy(self) -> "State":
        return State(self.t, self.rho.copy(), self.mom.copy())

    def check_shapes(self, grid: PeriodicGrid):
        shape = (*np.shape(self.t), *grid.sizes)
        if self.rho.shape != shape:
            raise GridError(f"rho shape {self.rho.shape} != grid {shape}")
        if self.mom.shape != (grid.dim, *shape):
            raise GridError(f"mom shape {self.mom.shape} != {(grid.dim, *shape)}")


def _grid_axes(dim: int) -> tuple[int, ...]:
    return tuple(range(-dim, 0))


def _check_scalar(f: np.ndarray, grid: PeriodicGrid):
    # one leading member axis is allowed: a batch of scalar fields
    if f.shape[-grid.dim:] != grid.sizes or f.ndim > grid.dim + 1:
        raise GridError(f"scalar field shape {f.shape} != grid {grid.sizes}")


def _check_vector(v: np.ndarray, grid: PeriodicGrid):
    if v.ndim < 1 or v.shape[0] != grid.dim:
        raise GridError(f"vector field shape {v.shape} != {(grid.dim, *grid.sizes)}")
    _check_scalar(v[0], grid)


_HALO = 2  # periodic ghost cells at each end of a padded axis
_SHIFTS = 3  # the farthest shift, in cells, that a stencil reads a padded field at


class _Cut(NamedTuple):
    """The padded layout of fields along one grid axis, counted from the end
    so that leading component and member axes pass through.

    A field padded along the axis holds ``_HALO`` periodic ghost cells at
    each end of it: the concatenation of its :meth:`halo` pieces, padded
    index j holding cell j - _HALO.  A stencil takes every operand as a
    *window*: a contiguous run of a flat buffer, reshaped to the padded
    shape.  Neighbouring cells along the axis lie ``stride`` flat entries
    apart, so the field shifted by k cells (padded index j holding index
    j + k) is the window that starts k * stride entries later, one
    contiguous array as well (:meth:`windows`), and each numpy call of a
    stencil runs as one loop over whole arrays.

    An entry j of a shifted window whose j + k passes the end of its row
    along the axis reads the next row, or after the last row the buffer's
    slack of ``_SHIFTS * stride`` entries (:meth:`buffer`; the solver's
    lanes end in slack too).  Such entries, the *seams*, lie among the last
    few of every row, past every entry that a stencil reads: they are
    computed and never read.  Outside the stencils, a result is read only
    on its *valid box*, the first n entries along the axis, n its cells
    (``valid``), index c holding cell c.  (A field of faces holds face k,
    between cells k - 1 and k, at index k.)"""

    axis: int  # negative
    stride: int
    head: tuple  # the first _HALO cells along the axis
    tail: tuple  # the last _HALO cells
    valid: tuple  # the first n entries along the axis

    def padded(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        """``shape`` with the axis longer by both halos."""
        out = list(shape)
        out[self.axis] += 2 * _HALO
        return tuple(out)

    def halo(self, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """The pieces whose concatenation along the axis is ``q`` padded:
        views of ``q``, so that a workspace builds them once per buffer."""
        return q[self.tail], q, q[self.head]

    def windows(self, flat: np.ndarray, start: int, shape: tuple[int, ...],
                *cells: int) -> tuple[np.ndarray, ...]:
        """The window of ``shape`` that starts ``start`` entries into
        ``flat``, shifted by each of ``cells`` cells along the axis."""
        size = math.prod(shape)
        return tuple(flat[at:at + size].reshape(shape)
                     for at in (start + k * self.stride for k in cells))

    def buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """A zeroed flat buffer for a window of ``shape`` (a padded shape)
        at its start and the window's shifts."""
        return np.zeros(math.prod(shape) + _SHIFTS * self.stride)


def _make_cut(axis: int, sizes: tuple[int, ...]) -> _Cut:
    dim = len(sizes)

    def along(start, stop):
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (dim - 1 - axis)

    return _Cut(axis - dim, math.prod(sizes[axis + 1:]), along(None, _HALO), along(-_HALO, None),
                along(None, sizes[axis]))


def _power(x: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    """``x ** exponent``, written into ``out`` when given, through the operator
    itself either way, which numpy computes with a cheaper routine for some
    exponents (a square for 2)."""
    if out is None:
        return x**exponent
    out[...] = x
    out **= exponent
    return out


# the error state under which a guarded quotient runs (see the module docstring)
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _cutoff(num: np.ndarray, den: np.ndarray, dry: np.ndarray, out: np.ndarray | None = None
            ) -> np.ndarray:
    """``num / den``, and 0 on ``dry`` cells: the vacuum convention of every
    quantity divided by the density (or a power of it).  ``dry`` is the
    complement of the caller's wet test, ``np.logical_not(x > t)``, so that a
    NaN counts as dry.  Every cell is divided, then 0.0 is stored on the dry
    ones: one unmasked divide and one masked store, into ``out`` (which may
    be ``num`` or ``den``) under the caller's error state (see the module
    docstring), or into a new array under an error state of its own."""
    if out is None:
        with np.errstate(**_QUIET):
            return _cutoff(num, den, dry, np.empty(np.broadcast_shapes(num.shape, den.shape)))
    np.divide(num, den, out=out)
    np.copyto(out, 0.0, where=dry)
    return out


def _division(*divisors: float) -> tuple[np.ufunc, tuple[float, ...]]:
    """The ufunc and the operands that divide a field by each of
    ``divisors``: ``(np.multiply, reciprocals)`` when every divisor is a
    power of two with a finite reciprocal, for then ``x * (1/d)`` and
    ``x / d`` are the one rounding of the same product and have the same
    bits; else ``(np.divide, divisors)``."""
    if all(math.frexp(d)[0] == 0.5 and math.isfinite(1.0 / d) for d in divisors):
        return np.multiply, tuple(1.0 / d for d in divisors)
    return np.divide, divisors


class _Centered(NamedTuple):
    """The views of a centered difference along one axis: the halo pieces
    of the field, the axis, the padded field and its windows shifted by one
    and by three cells (at index c, cells c - 1 and c + 1), the result
    window, its valid box, and the ufunc and operand that divide by the
    spacing times two (see :func:`_division`)."""

    pieces: tuple
    axis: int
    pad: np.ndarray
    left: np.ndarray
    right: np.ndarray
    out: np.ndarray
    valid: np.ndarray
    divide: np.ufunc
    two_h: float


def _centered_pieces(f: np.ndarray, grid: PeriodicGrid, axis: int,
                     pads: tuple[np.ndarray, ...] | None = None, out: np.ndarray | None = None
                     ) -> _Centered:
    """The views of a centered difference of ``f`` along ``axis``: into
    ``pads``, the padded field's windows shifted by 0, 1 and 3 cells, and
    the window ``out`` (new arrays when not given), so that a workspace
    builds them once per field buffer."""
    cut = grid._cuts[axis]
    if pads is None:
        shape = cut.padded(f.shape)
        pads = cut.windows(cut.buffer(shape), 0, shape, 0, 1, 3)
        out = np.empty(shape)
    divide, (two_h,) = _division(2.0 * grid.spacing[axis])
    return _Centered(cut.halo(f), cut.axis, *pads, out, out[cut.valid], divide, two_h)


def _centered(c: _Centered) -> np.ndarray:
    """The centered difference of prebuilt pieces, computed on the whole
    window ``c.out``; returns its valid box."""
    np.concatenate(c.pieces, axis=c.axis, out=c.pad)
    np.subtract(c.right, c.left, out=c.out)
    c.divide(c.out, c.two_h, out=c.out)
    return c.valid


def _ddx(f: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """Centered difference along ``axis``: a view of a padded array."""
    return _centered(_centered_pieces(f, grid, axis))


def grad(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Centered periodic gradient of a scalar field, shape (dim, *sizes)."""
    _check_scalar(f, grid)
    return np.stack([_ddx(f, grid, a) for a in range(grid.dim)])


def div(v: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Centered periodic divergence of a vector field."""
    _check_vector(v, grid)
    out = np.zeros(v.shape[1:])
    for a in range(grid.dim):
        out += _ddx(v[a], grid, a)
    return out


def _rfft(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.rfftn(f, s=grid.sizes, axes=grid.axes)


def _irfft(fh: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.irfftn(fh, s=grid.sizes, axes=grid.axes)


def spectral_grad(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Fourier-collocation gradient, spectrally accurate on smooth fields; the
    derivative axis comes first, so a stack of fields gives [i, j] = d_i f_j."""
    _check_scalar(f, grid)
    fh = _rfft(f, grid)
    return _irfft(np.stack([ik * fh for ik in grid.spectral_factors]), grid)


def spectral_div(v: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Fourier-collocation divergence, summed in Fourier space."""
    _check_vector(v, grid)
    vh = _rfft(v, grid)
    return _irfft(sum(ik * vh[a] for a, ik in enumerate(grid.spectral_factors)), grid)


def _wave_vector(rng: _Draws, dim: int, kmax: int) -> tuple[int, ...]:
    """A nonzero integer wave vector with entries in [-kmax, kmax]: ``rng``
    draws whole vectors until one is nonzero, which needs kmax >= 1."""
    if not kmax >= 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    while True:
        kvec = tuple(int(k) for k in rng.integers(-kmax, kmax + 1, size=dim))
        if any(kvec):
            return kvec


def integrate(f: np.ndarray, grid: PeriodicGrid) -> float | np.ndarray:
    """Midpoint quadrature over the torus; one value per member for a batch
    of fields."""
    total = np.add.reduce(f, axis=grid.axes) * grid.cell_volume
    return float(total) if total.ndim == 0 else total


def _floats(value: float | np.ndarray) -> list[float]:
    """A value of :func:`integrate` as one Python float per member (one for
    a single field)."""
    return np.reshape(value, -1).tolist()


def _magnitude(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise Euclidean magnitude of a vector field (or a batch of them),
    written into ``out`` when given."""
    return np.sqrt(np.add.reduce(v * v, axis=0), out=out)


def _lp(mag: np.ndarray, grid: PeriodicGrid, p: float) -> list[float]:
    """The L^p norm (finite p) of a pointwise magnitude, one per member: the
    quadrature in numpy, the root in Python floats."""
    return [x ** (1.0 / p) for x in _floats(integrate(mag**p, grid))]


def _pointwise_magnitude(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    if f.shape == grid.sizes:
        return np.abs(f)
    if f.shape == (grid.dim, *grid.sizes):
        return _magnitude(f)
    raise GridError(f"field shape {f.shape} fits neither scalar nor vector layout")


def lp_norm(f: np.ndarray, grid: PeriodicGrid, p: float) -> float:
    """L^p norm with midpoint quadrature; vector fields use the pointwise
    Euclidean magnitude. p = inf gives the max norm."""
    mag = _pointwise_magnitude(f, grid)
    if p == math.inf:
        return float(np.max(mag))
    if not p >= 1:  # NaN and -inf too
        raise ValueError(f"p must be >= 1, got {p}")
    (norm,) = _lp(mag, grid, p)
    return norm


def save_checkpoint(path, state: State, grid: PeriodicGrid):
    """Binary checkpoint: magic 'BDNS', u32 version, u32 dim, u32 sizes,
    f64 lengths, f64 time, then rho and momentum components as little-endian
    f64 in row-major storage order."""
    state.check_shapes(grid)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.sizes))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.lengths))
        fh.write(struct.pack("<d", state.t))
        fh.write(np.ascontiguousarray(state.rho, dtype="<f8").tobytes())
        for a in range(grid.dim):
            fh.write(np.ascontiguousarray(state.mom[a], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[State, PeriodicGrid]:
    """Inverse of :func:`save_checkpoint`; a malformed file, or one whose time
    is not finite, raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, version, dim = struct.unpack_from("<4sII", data)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if dim not in (1, 2):
            raise ValueError(f"bad checkpoint dimension {dim}")
        sizes = struct.unpack_from(f"<{dim}I", data, 12)
        lengths = struct.unpack_from(f"<{dim}d", data, 12 + 4 * dim)
        (t,) = struct.unpack_from("<d", data, 12 + 12 * dim)
    except struct.error as exc:
        raise ValueError(f"checkpoint header truncated: {exc}") from exc
    if not math.isfinite(t):
        raise ValueError(f"checkpoint time must be finite, got {t}")
    grid = PeriodicGrid(sizes, lengths)
    head, payload = 20 + 12 * dim, 8 * grid.n_cells * (1 + dim)
    if len(data) != head + payload:
        raise ValueError(
            f"checkpoint payload is {len(data) - head} bytes; a {sizes} grid needs {payload}"
        )
    fields = np.frombuffer(data, dtype="<f8", offset=head).reshape((1 + dim, *sizes))
    return State(t, fields[0].astype(float), fields[1:].astype(float)), grid
