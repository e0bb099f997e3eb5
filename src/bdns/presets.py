"""Initial-data presets on the periodic torus.

All bumps are built from C-infinity periodic profiles; ``vacuum_bump`` uses
the classical compactly supported mollifier profile so the density has true
zeros with smooth contact.
"""

from __future__ import annotations

import numpy as np

from .grid import PeriodicGrid, State


def _periodic_gaussian(x, center, width, length):
    """exp(-sin^2(pi (x-c)/L) / w^2): smooth, periodic, strictly positive."""
    s = np.sin(np.pi * (x - center) / length)
    return np.exp(-(s * s) / (width * width))


def _compact_bump(x, center, width, length):
    """Mollifier profile exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside."""
    s = (np.mod(x - center + 0.5 * length, length) - 0.5 * length) / width
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def constant(grid: PeriodicGrid, rho0: float = 1.0, u0: float | list[float] = 0.0) -> State:
    rho = np.full(grid.sizes, float(rho0))
    mom = grid.zeros_vector()
    u_vec = np.broadcast_to(np.atleast_1d(np.asarray(u0, dtype=float)), (grid.dim,))
    for a in range(grid.dim):
        mom[a] = rho * u_vec[a]
    return State(0.0, rho, mom)


def smooth_bump(grid: PeriodicGrid, base: float = 1.0, amp: float = 0.2,
                width: float = 0.18, center: float = 0.5,
                u_amp: float = 0.1, u_mean: float = 0.05) -> State:
    """Strictly positive density bump with a gentle nonzero-mean velocity."""
    xs = grid.coords()
    prof = np.ones(grid.sizes)
    for a in range(grid.dim):
        prof = prof * _periodic_gaussian(xs[a], center * grid.lengths[a], width, grid.lengths[a])
    rho = base + amp * prof
    mom = grid.zeros_vector()
    for a in range(grid.dim):
        phase = xs[(a + 1) % grid.dim] if grid.dim > 1 else xs[0]
        u = u_mean / (a + 1.0) + u_amp * np.sin(2.0 * np.pi * xs[a] / grid.lengths[a]) * np.cos(
            2.0 * np.pi * phase / grid.lengths[(a + 1) % grid.dim]
        )
        mom[a] = rho * u
    return State(0.0, rho, mom)


def vacuum_bump(grid: PeriodicGrid, amp: float = 1.0, width: float = 0.25,
                center: float = 0.5, u_amp: float = 0.05) -> State:
    """Compactly supported density (true vacuum outside) with momentum
    supported inside the bump."""
    xs = grid.coords()
    prof = np.ones(grid.sizes)
    for a in range(grid.dim):
        prof = prof * _compact_bump(xs[a], center * grid.lengths[a], width, grid.lengths[a])
    rho = amp * prof
    mom = grid.zeros_vector()
    for a in range(grid.dim):
        u = u_amp * np.sin(2.0 * np.pi * xs[a] / grid.lengths[a])
        mom[a] = rho * u
    return State(0.0, rho, mom)


def saint_venant_demo(grid: PeriodicGrid, base: float = 1.0, amp: float = 0.2,
                      width: float = 0.2, u_amp: float = 0.08,
                      u_mean: float = 0.05) -> State:
    """Shallow-water style configuration: smooth positive height bump and a
    mild swirl with nonzero mean momentum (meant for gamma = 2, h = rho)."""
    return smooth_bump(grid, base=base, amp=amp, width=width,
                       u_amp=u_amp, u_mean=u_mean)


PRESETS = {
    "constant": constant,
    "smooth_bump": smooth_bump,
    "vacuum_bump": vacuum_bump,
    "saint_venant_demo": saint_venant_demo,
}


def preset(name: str):
    """A preset's builder: its keyword parameters, annotated, are the preset's."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def make_initial(name: str, grid: PeriodicGrid, params: dict | None = None) -> State:
    return preset(name)(grid, **(params or {}))
