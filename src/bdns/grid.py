"""Periodic uniform grids, field storage, and discrete calculus.

Fields live on a uniform torus in 1 or 2 space dimensions.  Scalar fields
are arrays of shape ``grid.sizes``; vector fields carry a leading component
axis, shape ``(dim, *sizes)``.  A batch of fields, one per ensemble member,
adds a member axis in front of the grid axes (after the component axis);
the centered and Fourier operators and :func:`integrate` act on each member
alone.
Two derivative families are provided:

* second-order centered differences (:func:`grad`, :func:`div`, :func:`lap`)
  which satisfy discrete integration by parts against the midpoint
  quadrature exactly, taken as slices of a field padded with a periodic
  halo (the solver's stencils use the same padding), and
* Fourier collocation derivatives (:func:`spectral_grad`, :func:`spectral_div`)
  used as a high-order oracle on band-limited fields.  They use real-to-complex
  transforms over the grid axes (``rfftn``/``irfftn``, half the spectrum), one
  forward transform per field: the gradient multiplies it by the factors i k
  of every axis (:attr:`PeriodicGrid.spectral_factors`), and the divergence
  sums i k_a v_a over the components in Fourier space before its one inverse.
  The unpaired Nyquist mode of an even axis is zeroed in the factor of that
  axis, so an odd derivative of a real field stays real.

Velocity is never obtained by a bare division: every quantity divided by
the density or a power of it (``u = m/rho``, ``sqrt(rho) u = m/sqrt(rho)``,
``h/sqrt(rho)``) goes through :func:`_cutoff`, which takes it as zero on dry
cells, where the velocity is undefined.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
        if any(x <= 0 for x in lengths):
            raise GridError("lengths must be positive")
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

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers for FFT along ``axis``, broadcast-ready."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.sizes[axis], d=self.spacing[axis])
        shape = [1] * self.dim
        shape[axis] = self.sizes[axis]
        return k.reshape(shape)

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


class _Cut(NamedTuple):
    """Index tuples that slice a field along one grid axis; ``head[w]`` and
    ``tail[w]`` take the first and last ``w`` entries along it.  The axis is
    counted from the end, so leading member axes pass through."""

    axis: int  # negative
    lo: tuple  # [:-1]
    hi: tuple  # [1:]
    mid: tuple  # [1:-1]
    lo2: tuple  # [:-2]
    hi2: tuple  # [2:]
    head: tuple
    tail: tuple


def _make_cut(axis: int, dim: int) -> _Cut:
    def along(start, stop):
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (dim - 1 - axis)

    return _Cut(axis - dim, along(None, -1), along(1, None), along(1, -1), along(None, -2),
                along(2, None), (None, along(None, 1), along(None, 2)),
                (None, along(-1, None), along(-2, None)))


# per grid dimension, the cut of every axis
_CUTS = {dim: tuple(_make_cut(axis, dim) for axis in range(dim)) for dim in (1, 2)}


def _halo(q: np.ndarray, cut: _Cut, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """``q`` extended by ``width`` periodic ghost cells at both ends of the
    cut's axis, so that every stencil along it is a slice view; written into
    ``out`` when given."""
    return np.concatenate((q[cut.tail[width]], q, q[cut.head[width]]), axis=cut.axis, out=out)


def _power(x: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    """``x ** exponent``, written into ``out`` when given, through the operator
    itself either way, which numpy computes with a cheaper routine for some
    exponents (a square for 2)."""
    if out is None:
        return x**exponent
    np.copyto(out, x)
    out **= exponent
    return out


def _cutoff(num: np.ndarray, den: np.ndarray, wet: np.ndarray, out: np.ndarray | None = None,
            dry: np.ndarray | None = None) -> np.ndarray:
    """``num / den`` on ``wet`` cells and 0 elsewhere, the vacuum convention
    of every quantity divided by the density (or a power of it); written into
    ``out`` when given.  ``dry`` is a boolean buffer for ``~wet``; it may be
    ``wet`` itself, which is then overwritten."""
    out = np.divide(num, den, out=out, where=wet)
    np.copyto(out, 0.0, where=np.logical_not(wet, out=dry))
    return out


def _ddx(f: np.ndarray, grid: PeriodicGrid, axis: int, pad: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Centered difference along ``axis``; the halo goes into ``pad`` and the
    result into ``out`` when they are given."""
    cut = _CUTS[grid.dim][axis]
    fp = _halo(f, cut, 1, pad)
    diff = np.subtract(fp[cut.hi2], fp[cut.lo2], out=out)
    return np.divide(diff, 2.0 * grid.spacing[axis], out=diff)


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


def lap(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Discrete Laplacian, defined as div(grad(f)) so the composition is exact."""
    return div(grad(f, grid), grid)


def _rfft(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.rfftn(f, s=grid.sizes, axes=grid.axes)


def _irfft(fh: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.irfftn(fh, s=grid.sizes, axes=grid.axes)


def _spectral_ddx(f: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """Fourier-collocation derivative along one axis."""
    return _irfft(grid.spectral_factors[axis] * _rfft(f, grid), grid)


def spectral_grad(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Fourier-collocation gradient; spectrally accurate on smooth fields."""
    _check_scalar(f, grid)
    fh = _rfft(f, grid)
    return np.stack([_irfft(ik * fh, grid) for ik in grid.spectral_factors])


def spectral_div(v: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Fourier-collocation divergence, summed in Fourier space."""
    _check_vector(v, grid)
    vh = _rfft(v, grid)
    return _irfft(sum(ik * vh[a] for a, ik in enumerate(grid.spectral_factors)), grid)


def spectral_lap(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return spectral_div(spectral_grad(f, grid), grid)


def _wave_vector(rng: np.random.Generator, dim: int, kmax: int) -> tuple[int, ...]:
    """A nonzero integer wave vector with entries in [-kmax, kmax]: ``rng``
    draws whole vectors until one is nonzero."""
    while True:
        kvec = tuple(int(k) for k in rng.integers(-kmax, kmax + 1, size=dim))
        if any(kvec):
            return kvec


def integrate(f: np.ndarray, grid: PeriodicGrid) -> float | np.ndarray:
    """Midpoint quadrature over the torus; one value per member for a batch
    of fields."""
    total = np.sum(f, axis=grid.axes) * grid.cell_volume
    return float(total) if total.ndim == 0 else total


def _pointwise_magnitude(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    if f.shape == grid.sizes:
        return np.abs(f)
    if f.shape == (grid.dim, *grid.sizes):
        return np.sqrt(np.sum(f * f, axis=0))
    raise GridError(f"field shape {f.shape} fits neither scalar nor vector layout")


def lp_norm(f: np.ndarray, grid: PeriodicGrid, p: float) -> float:
    """L^p norm with midpoint quadrature; vector fields use the pointwise
    Euclidean magnitude. p = inf gives the max norm."""
    mag = _pointwise_magnitude(f, grid)
    if np.isinf(p):
        return float(np.max(mag))
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(integrate(mag**p, grid) ** (1.0 / p))


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
    """Inverse of :func:`save_checkpoint`; a malformed file raises ValueError."""
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
    grid = PeriodicGrid(sizes, lengths)
    head, payload = 20 + 12 * dim, 8 * grid.n_cells * (1 + dim)
    if len(data) != head + payload:
        raise ValueError(
            f"checkpoint payload is {len(data) - head} bytes; a {sizes} grid needs {payload}"
        )
    fields = np.frombuffer(data, dtype="<f8", offset=head).reshape((1 + dim, *sizes))
    return State(t, fields[0].astype(float), fields[1:].astype(float)), grid
