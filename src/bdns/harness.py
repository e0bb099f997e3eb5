"""Stability-of-weak-solutions experiment: mollified initial-data sequences,
batched runs, and pairwise compactness metrics.

A study takes one base profile, produces a sequence of initial states by
mollifying sqrt(rho) (not rho, so the weighted density-gradient hypothesis
stays uniformly bounded) and the velocity with periodic Gaussians of
geometrically shrinking width, gates every member on the finiteness of the
initial-data hypotheses, advances all members as one batch of the solver
(:func:`~bdns.solver.run_members`, each exactly as its own run would), and
measures the three convergence distances of the stability statement between
members:

* d_rho: sup over time of the L^{3/2} density distance,
* d_u:   space-time L^2 distance of the weighted velocities sqrt(rho) u,
* d_m:   space-time L^1 distance of the momenta.

The report holds these three matrices, the hypothesis table and each
member's time-aggregated a priori bounds.

The hypothesis table's energy and moment are the ledger's ``E_eq15`` and
``M_delta_lemma32``, so the moment is int rho |u|^{2+delta} / (2+delta).

"Up to a subsequence" is not algorithmic, so the study reports
consecutive-pair distances of the generated sequence (Cauchy behaviour)
instead of extracting subsequences.  Cross-member norms use the ledger
times of the coarsest-sampled run, other members linearly interpolated in
time.  The analysis keeps the solver's batch layout, a leading axis of
members or of instants: the sequence is mollified and its hypotheses
evaluated for all members at once, and each member's interpolated states
and each pair's distances for all common times at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _json
from .diagnostics import EntropyLedger, TIME_AGGREGATION, _Fields
from .grid import PeriodicGrid, State, _floats, _lp, _magnitude
from .presets import make_initial
from .solver import SolverConfig, Trajectory, _resolve_eps_vac, run_members

METRIC_TOL = 1e-12
UNIFORMITY_FACTOR = 10.0


class GenerationError(ValueError):
    """Initial-data hypothesis failed for a generated member."""


class StudyError(RuntimeError):
    """Every member of a study failed; the text lists each failure."""


@dataclass(frozen=True)
class InitialDataSpec:
    """Base profile plus mollification schedule sigma_n = sigma0 * 2^-n."""

    base_preset: str
    base_params: dict = field(default_factory=dict)
    sigma0: float = 0.1
    n_max: int = 4

    def __post_init__(self):
        if not 0.0 < self.sigma0 < math.inf:  # NaN too
            raise ValueError(f"sigma0 must be finite and positive, got {self.sigma0}")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


def _mollify(f: np.ndarray, grid: PeriodicGrid, sigmas: list[float]) -> np.ndarray:
    """Periodic Gaussian smoothing by Fourier multiplier exp(-|k|^2 sigma^2 / 2),
    one copy of ``f`` per width sigma: a field gives (M, *sizes) for M widths,
    a vector field (dim, M, *sizes)."""
    fh = np.expand_dims(np.fft.fftn(f, axes=grid.axes), -grid.dim - 1)
    k2 = np.zeros(grid.sizes)
    for a in range(grid.dim):
        k2 = k2 + grid.wavenumbers(a) ** 2
    sigma = np.reshape(sigmas, (-1,) + (1,) * grid.dim)
    return np.real(np.fft.ifftn(fh * np.exp(-0.5 * k2 * sigma * sigma), axes=grid.axes))


def hypothesis_functionals(state: State, grid: PeriodicGrid, law, gamma: float,
                           delta: float, eps_vac: float) -> dict:
    """The initial-data finiteness checks: energy, weighted density-gradient
    integral (vacuum-safe form 4 int h'^2 |grad sqrt(rho)|^2), and the
    velocity moment int rho |u|^{2+delta} / (2+delta); one value per member
    for a batch."""
    f = _Fields(state, grid, law, gamma, eps_vac)
    return {
        "energy": f.energy(),
        "grad_h_over_rho": 4.0 * f.hp_grad_sqrt_rho_sq,
        "moment": f.moment(delta),
    }


def generate_sequence(spec: InitialDataSpec, grid: PeriodicGrid, law, gamma: float,
                      delta: float, eps_vac: float):
    """Mollified members n = 0..n_max.  Returns (states, hypothesis table);
    the table also carries the L1 distance of each member's density to the
    base profile."""
    base = make_initial(spec.base_preset, grid, spec.base_params)
    fields = _Fields(base, grid, law, gamma, eps_vac)
    sigmas = [spec.sigma0 * 2.0**-n for n in range(spec.n_max + 1)]
    s = _mollify(fields.sqrt_rho, grid, sigmas)
    rho = s * s
    mom = rho * _mollify(fields.u, grid, sigmas)
    mom[:, rho <= eps_vac] = 0.0
    batch = State(np.zeros(len(sigmas)), rho, mom)
    values = {name: _floats(v) for name, v in
              hypothesis_functionals(batch, grid, law, gamma, delta, eps_vac).items()}
    values["l1_distance_to_base"] = _lp(np.abs(rho - base.rho), grid, 1)
    values["sigma"] = sigmas
    table = [{name: v[n] for name, v in values.items()} for n in range(len(sigmas))]
    for n, vals in enumerate(table):
        for name in ("energy", "grad_h_over_rho", "moment"):
            if not math.isfinite(vals[name]):
                raise GenerationError(
                    f"member {n}: initial-data hypothesis '{name}' is not finite"
                )
            if vals[name] > UNIFORMITY_FACTOR * max(table[0][name], 1e-300):
                vals[f"flag_{name}"] = 1.0
    return [State(0.0, rho[n], mom[:, n]) for n in range(len(sigmas))], table


@dataclass
class StabilityStudy:
    """A study's outcome: every member's hypothesis-table row, trajectory and
    ledger (None for a member whose run failed), the common times of the
    cross-member norms, the three pairwise distance matrices, and each
    member's time-aggregated a priori bounds with their maximum over
    members."""

    members: list[dict]
    trajectories: list[Trajectory | None]
    ledgers: list[EntropyLedger | None]
    common_times: np.ndarray
    d_rho: np.ndarray
    d_u: np.ndarray
    d_m: np.ndarray
    uniform_bounds: dict[str, float]
    uniform_bounds_per_member: dict[str, list[float]]
    partial: bool = False
    failures: list[str] = field(default_factory=list)
    metric_axioms_ok: bool = True

    def consecutive(self, which: str) -> list[float]:
        mat = {"rho": self.d_rho, "u": self.d_u, "m": self.d_m}[which]
        return [float(mat[n, n + 1]) for n in range(mat.shape[0] - 1)]

    def to_json(self, ledger_paths: list[str] | None = None) -> dict:
        return {
            "members": ledger_paths if ledger_paths is not None
            else [f"member_{i}" for i in range(len(self.members))],
            "d_rho": self.d_rho.tolist(),
            "d_u": self.d_u.tolist(),
            "d_m": self.d_m.tolist(),
            "uniform_bounds": dict(self.uniform_bounds),
            "uniform_bounds_per_member": {
                k: list(v) for k, v in self.uniform_bounds_per_member.items()
            },
            "partial": self.partial,
            "failures": list(self.failures),
            "hypothesis_table": self.members,
        }

    def dumps(self) -> str:
        return _json.dumps(self.to_json(), indent=2, sort_keys=True)


def _check_metric_axioms(mat: np.ndarray) -> bool:
    n = mat.shape[0]
    scale = max(float(np.max(mat)), 1.0)
    if np.any(np.abs(np.diag(mat)) > METRIC_TOL * scale):
        return False
    if np.any(np.abs(mat - mat.T) > METRIC_TOL * scale):
        return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mat[i, j] > mat[i, k] + mat[k, j] + METRIC_TOL * scale:
                    return False
    return True


def run_study(spec: InitialDataSpec, config: SolverConfig) -> StabilityStudy:
    """Generate the mollified sequence, run every member, and assemble the
    distance matrices and uniform-bound report.  Raises StudyError when
    every member fails."""
    grid = config.grid
    eps_vac = _resolve_eps_vac(config, make_initial(spec.base_preset, grid, spec.base_params))
    cfg = replace(config, eps_vac=eps_vac)
    states, table = generate_sequence(spec, grid, cfg.law, cfg.gamma,
                                      cfg.moment.delta, eps_vac)

    # a member's failure marks the study partial
    results = run_members(cfg, states)

    failures = [f"member {i}: {res}" for i, res in enumerate(results)
                if isinstance(res, Exception)]
    trajectories = [None if isinstance(res, Exception) else res[0] for res in results]
    ledgers = [None if isinstance(res, Exception) else res[1] for res in results]

    alive = [i for i, t in enumerate(trajectories) if t is not None]
    if not alive:
        raise StudyError("every study member failed: " + "; ".join(failures))
    coarsest = min(alive, key=lambda i: len(trajectories[i].times))
    common_times = np.asarray(trajectories[coarsest].times)

    n_members = len(states)
    d_rho = np.zeros((n_members, n_members))
    d_u = np.zeros((n_members, n_members))
    d_m = np.zeros((n_members, n_members))

    # each member's (rho, mom, sqrt(rho) u) at the common times, one instant per row
    series = {}
    for i in alive:
        traj = trajectories[i]
        rho = np.stack([st.rho for st in traj.states])
        mom = np.stack([st.mom for st in traj.states], axis=1)
        times = np.asarray(traj.times)
        k = np.clip(np.searchsorted(times, common_times, side="right") - 1, 0, len(times) - 2)
        t0, t1 = times[k], times[k + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(t1 <= t0, 0.0, np.clip((common_times - t0) / (t1 - t0), 0.0, 1.0))
        lam = np.reshape(lam, (-1,) + (1,) * grid.dim)
        at = State(common_times, (1.0 - lam) * rho[k] + lam * rho[k + 1],
                   (1.0 - lam) * mom[:, k] + lam * mom[:, k + 1])
        series[i] = (at.rho, at.mom, _Fields(at, grid, None, None, eps_vac).sqrt_rho_u)
        del rho, mom

    for ai, i in enumerate(alive):
        for j in alive[ai + 1:]:
            (ri, mi, si), (rj, mj, sj) = series[i], series[j]
            uu2 = np.array([x**2 for x in _lp(_magnitude(si - sj), grid, 2)])
            mm = np.array(_lp(_magnitude(mi - mj), grid, 1))
            d_rho[i, j] = d_rho[j, i] = max(_lp(np.abs(ri - rj), grid, 1.5))
            d_u[i, j] = d_u[j, i] = math.sqrt(max(np.trapezoid(uu2, common_times), 0.0))
            d_m[i, j] = d_m[j, i] = float(np.trapezoid(mm, common_times))

    per_member: dict[str, list[float]] = {name: [] for name in TIME_AGGREGATION}
    for i in range(n_members):
        agg = ledgers[i].aggregate_bounds() if ledgers[i] is not None else {}
        for name in TIME_AGGREGATION:
            per_member[name].append(agg.get(name, float("nan")))
    uniform = {
        name: float(np.nanmax(vals)) if len(vals) else float("nan")
        for name, vals in per_member.items()
    }

    axioms = all(_check_metric_axioms(m) for m in (d_rho, d_u, d_m))
    return StabilityStudy(
        members=table,
        trajectories=trajectories,
        ledgers=ledgers,
        common_times=common_times,
        d_rho=d_rho,
        d_u=d_u,
        d_m=d_m,
        uniform_bounds=uniform,
        uniform_bounds_per_member=per_member,
        partial=bool(failures),
        failures=failures,
        metric_axioms_ok=axioms,
    )
