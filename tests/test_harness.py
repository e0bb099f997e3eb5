import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdns.harness as harness
import bdns.solver as solver
from bdns.diagnostics import _Fields
from bdns.grid import PeriodicGrid, State, integrate, lp_norm
from bdns.harness import (
    GenerationError,
    InitialDataSpec,
    generate_sequence,
    run_study,
)
from bdns.presets import make_initial
from bdns.solver import SolverConfig
from bdns.viscosity import AdmissibilityParams, ViscosityLaw

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
EPS = 1e-10


def small_config(n=64, t_end=1e-3, **kw):
    grid = PeriodicGrid((n,))
    return SolverConfig(
        law=kw.pop("law", LINEAR),
        params=AdmissibilityParams(nu=0.9, gamma=2.0, N=1),
        grid=grid,
        t_end=t_end,
        ledger_stride=kw.pop("ledger_stride", 4),
        eps_vac=EPS,
        **kw,
    )


# -- sequence generation ---------------------------------------------------------


def test_constant_base_gives_identical_members():
    cfg = small_config()
    spec = InitialDataSpec("constant", {"rho0": 1.0, "u0": 0.0}, sigma0=0.1, n_max=3)
    states, table = generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)
    assert len(states) == 4
    for st in states[1:]:
        np.testing.assert_allclose(st.rho, states[0].rho, atol=1e-13)
        np.testing.assert_allclose(st.mom, states[0].mom, atol=1e-13)


def test_generated_members_are_nonnegative_with_finite_hypotheses():
    cfg = small_config(n=128)
    spec = InitialDataSpec("vacuum_bump", {"amp": 1.0, "width": 0.25, "u_amp": 0.05},
                           sigma0=0.05, n_max=3)
    states, table = generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)
    for st, row in zip(states, table):
        assert np.all(st.rho >= 0.0)
        for name in ("energy", "grad_h_over_rho", "moment"):
            assert np.isfinite(row[name])
        # momentum vanishes wherever the density sits below the cutoff
        assert np.all(st.mom[:, st.rho <= EPS] == 0.0)


def test_initial_distances_decrease_with_n():
    cfg = small_config(n=256)
    spec = InitialDataSpec("smooth_bump", {"width": 0.3}, sigma0=0.05, n_max=4)
    states, table = generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)
    dists = [
        lp_norm(states[i].rho - states[i + 1].rho, cfg.grid, 1.5)
        for i in range(len(states) - 1)
    ]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    # members converge to the base profile in L1
    l1 = [row["l1_distance_to_base"] for row in table]
    assert all(b < a for a, b in zip(l1, l1[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generation_error_names_failing_hypothesis():
    cfg = small_config()
    spec = InitialDataSpec("smooth_bump", {"u_amp": np.inf}, sigma0=0.05, n_max=0)
    with pytest.raises(GenerationError, match="energy"):
        generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)


def test_member_whose_hypothesis_exceeds_ten_times_member_zeros_is_flagged():
    # a narrow bump mollified from wide to narrow: its density gradient grows
    # past ten times member 0's, its energy and moment do not
    cfg = small_config(n=128)
    spec = InitialDataSpec("smooth_bump", {"width": 0.02, "amp": 0.9}, sigma0=0.2, n_max=3)
    _, table = generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)
    flags = [sorted(key for key in row if key.startswith("flag_")) for row in table]
    assert flags == [[], [], ["flag_grad_h_over_rho"], ["flag_grad_h_over_rho"]]
    for row in table:
        for name in ("energy", "grad_h_over_rho", "moment"):
            above = row[name] > harness.UNIFORMITY_FACTOR * table[0][name]
            assert row.get(f"flag_{name}") == (1.0 if above else None)


def test_mollification_preserves_mass_up_to_roundoff():
    cfg = small_config(n=128)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.08, n_max=2)
    states, _ = generate_sequence(spec, cfg.grid, LINEAR, 2.0, 0.05, EPS)
    # smoothing sqrt(rho) does not conserve mass exactly, but stays close
    masses = [integrate(st.rho, cfg.grid) for st in states]
    assert max(masses) / min(masses) < 1.05


# -- study ------------------------------------------------------------------------


def test_single_member_study_is_degenerate():
    cfg = small_config(t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=0)
    study = run_study(spec, cfg)
    assert study.d_rho.shape == (1, 1)
    assert study.d_rho[0, 0] == 0.0
    assert not study.partial


def test_study_metrics_and_axioms():
    cfg = small_config(n=64, t_end=1e-3)
    spec = InitialDataSpec("smooth_bump", {"width": 0.3}, sigma0=0.05, n_max=2)
    study = run_study(spec, cfg)
    assert study.metric_axioms_ok
    for mat in (study.d_rho, study.d_u, study.d_m):
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)
        assert np.all(mat[np.triu_indices(3, 1)] > 0.0)


def _metric_axioms_by_loops(mat):
    tol = harness.METRIC_TOL * max(float(np.max(mat)), 1.0)
    n = len(mat)
    return (all(abs(mat[i, i]) <= tol for i in range(n))
            and all(abs(mat[i, j] - mat[j, i]) <= tol for i in range(n) for j in range(n))
            and all(mat[i, j] <= mat[i, k] + mat[k, j] + tol
                    for i in range(n) for j in range(n) for k in range(n)))


def test_metric_axioms_refuse_a_diagonal_an_asymmetry_and_a_triangle_violation():
    ok = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    diagonal, asymmetric, triangle = ok.copy(), ok.copy(), ok.copy()
    diagonal[1, 1] = 1e-6
    asymmetric[0, 1] = 1.0 + 1e-6
    triangle[0, 2] = triangle[2, 0] = 2.0 + 1e-6  # above d(0, 1) + d(1, 2)
    assert harness._check_metric_axioms(ok) is True
    for bad in (diagonal, asymmetric, triangle):
        assert harness._check_metric_axioms(bad) is False
    # each test up to METRIC_TOL times the largest entry: equal to the loops
    # over every entry, on distance matrices with one entry moved
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        for _ in range(40):
            x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-3, 4)
            mat = np.sqrt(np.sum((x[:, np.newaxis] - x) ** 2, axis=-1))
            i, j = rng.integers(0, n, 2)
            mat[i, j] *= rng.choice([1.0, 1.0 + 1e-13, 0.5, 3.0])
            assert harness._check_metric_axioms(mat) is _metric_axioms_by_loops(mat)


def test_study_is_deterministic():
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=2)
    s1 = run_study(spec, cfg)
    s2 = run_study(spec, cfg)
    assert np.array_equal(s1.d_rho, s2.d_rho)
    assert np.array_equal(s1.d_u, s2.d_u)
    assert np.array_equal(s1.d_m, s2.d_m)


def poison_rows(monkeypatch, rows, at_call=3):
    """Make the solver's rhs return NaN densities for the given batch rows at
    its ``at_call``-th call, so that those members fail mid-run."""
    real = solver.rhs
    calls = []

    def poisoned(state, config, *, _work=None):
        calls.append(1)
        dr, dm = real(state, config, _work=_work)
        if len(calls) == at_call:
            dr[rows] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)


def test_partial_study_reports_surviving_members(monkeypatch):
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=2)
    clean = run_study(spec, cfg)
    poison_rows(monkeypatch, [1])
    study = run_study(spec, cfg)
    assert study.partial
    assert len(study.failures) == 1
    assert "member 1" in study.failures[0]
    assert "non-finite fields after stage 1" in study.failures[0]
    assert study.trajectories[1] is None
    assert study.d_rho[0, 2] > 0.0  # surviving pair still measured
    # the survivors are untouched by the failure
    for i in (0, 2):
        got, want = study.trajectories[i], clean.trajectories[i]
        assert got.step_times == want.step_times
        assert got.step_energies == want.step_energies
        for a, b in zip(got.states + [got.final_state], want.states + [want.final_state]):
            assert np.array_equal(a.rho, b.rho) and np.array_equal(a.mom, b.mom)
    assert study.d_rho[0, 2] == clean.d_rho[0, 2]


def test_study_with_every_member_failing_raises(monkeypatch):
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=2)
    poison_rows(monkeypatch, slice(None))
    with pytest.raises(RuntimeError, match="every study member failed") as info:
        run_study(spec, cfg)
    for i in range(3):
        assert f"member {i}: non-finite fields" in str(info.value)


def test_study_with_non_admissible_law_lists_every_member():
    cfg = small_config(n=64, t_end=5e-4, law=ViscosityLaw(constant=1.0))
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=1)
    with pytest.raises(RuntimeError, match="member 0: law .*; member 1: law .*fails validation"):
        run_study(spec, cfg)


def test_uniform_bounds_cover_all_tracked_norms():
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=1)
    study = run_study(spec, cfg)
    assert set(study.uniform_bounds) == set(harness.TIME_AGGREGATION)
    for name, vals in study.uniform_bounds_per_member.items():
        assert len(vals) == 2
        assert study.uniform_bounds[name] == pytest.approx(np.nanmax(vals))


def test_study_json_schema():
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=1)
    study = run_study(spec, cfg)
    payload = study.to_json(["a.csv", "b.csv"])
    assert payload["members"] == ["a.csv", "b.csv"]
    for key in ("d_rho", "d_u", "d_m", "uniform_bounds"):
        assert key in payload


def test_hypothesis_table_matches_first_ledger_row():
    # the table's energy and moment are the ledger's own definitions, with
    # the moment normalised by 1/(2+delta); dry cells exercise the cutoffs
    cfg = small_config(n=64, t_end=2e-4)
    spec = InitialDataSpec("vacuum_bump", {"amp": 1.0, "width": 0.3, "u_amp": 0.05},
                           sigma0=0.05, n_max=1)
    study = run_study(spec, cfg)
    for row, ledger in zip(study.members, study.ledgers):
        first = ledger.rows[0]
        assert row["energy"] == first["E_eq15"]
        assert row["moment"] == first["M_delta_lemma32"]


def _mollify_one(f, grid, sigma):
    """One member's periodic Gaussian smoothing, transform by transform."""
    k2 = -sum(ik * ik for ik in grid.spectral_factors).real
    fh = np.fft.rfftn(f) * np.exp(-0.5 * k2 * sigma * sigma)
    return np.fft.irfftn(fh, f.shape, axes=range(f.ndim))


def _interp_one(traj, t):
    """A trajectory's state linearly interpolated to one instant."""
    times = np.asarray(traj.times)
    i = max(0, min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2))
    t0, t1 = times[i], times[i + 1]
    lam = 0.0 if t1 <= t0 else min(max((t - t0) / (t1 - t0), 0.0), 1.0)
    a, b = traj.states[i], traj.states[i + 1]
    return (1.0 - lam) * a.rho + lam * b.rho, (1.0 - lam) * a.mom + lam * b.mom


@pytest.mark.parametrize("preset", ["smooth_bump", "vacuum_bump"])
def test_2d_study_matches_per_instant_reference(preset):
    # the batched sequence and distances equal, bit for bit, the formulas
    # evaluated member by member, instant by instant and pair by pair
    grid = PeriodicGrid((32, 24), (1.0, 0.75))
    law = ViscosityLaw(terms=((1.0, 1.0), (0.5, 2.0)))
    cfg = SolverConfig(law=law, params=AdmissibilityParams(nu=0.3, gamma=2.0, N=2),
                       grid=grid, t_end=1e-3, ledger_stride=5)
    spec = InitialDataSpec(preset, {}, sigma0=0.05, n_max=2)
    study = run_study(spec, cfg)
    base = make_initial(preset, grid, {})
    eps = solver._resolve_eps_vac(cfg, base)
    f0 = _Fields(base, grid, law, 2.0, eps)

    states, _ = generate_sequence(spec, grid, law, 2.0, cfg.moment.delta, eps)
    for n, (st, row) in enumerate(zip(states, study.members)):
        sigma = 0.05 * 2.0**-n
        s = _mollify_one(f0.sqrt_rho, grid, sigma)
        rho = s * s
        mom = rho * np.stack([_mollify_one(f0.u[a], grid, sigma) for a in range(2)])
        mom[:, rho <= eps] = 0.0
        assert np.array_equal(st.rho, rho) and np.array_equal(st.mom, mom)
        want = harness.hypothesis_functionals(State(0.0, rho, mom), grid, law, 2.0,
                                              cfg.moment.delta, eps)
        want["l1_distance_to_base"] = lp_norm(rho - base.rho, grid, 1)
        want["sigma"] = sigma
        for name in ("energy", "grad_h_over_rho", "moment"):
            if want[name] > harness.UNIFORMITY_FACTOR * max(study.members[0][name], 1e-300):
                want[f"flag_{name}"] = 1.0
        assert row == want

    times = study.common_times
    series = []
    for traj in study.trajectories:
        at = [_interp_one(traj, t) for t in times]
        sru = [_Fields(State(t, r, m), grid, None, None, eps).sqrt_rho_u
               for t, (r, m) in zip(times, at)]
        series.append((at, sru))
    for i in range(3):
        for j in range(i + 1, 3):
            (ai, si), (aj, sj) = series[i], series[j]
            d_rho = max(lp_norm(ai[k][0] - aj[k][0], grid, 1.5) for k in range(len(times)))
            uu2 = np.array([lp_norm(si[k] - sj[k], grid, 2) ** 2 for k in range(len(times))])
            mm = np.array([lp_norm(ai[k][1] - aj[k][1], grid, 1) for k in range(len(times))])
            assert study.d_rho[i, j] == study.d_rho[j, i] == d_rho
            assert study.d_u[i, j] == math.sqrt(max(np.trapezoid(uu2, times), 0.0))
            assert study.d_m[i, j] == float(np.trapezoid(mm, times))
    assert len(times) > 2 and not study.partial and study.metric_axioms_ok


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # the demos are the public API's users; demo 05 is the one of run_study
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=demo.parents[1], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "05_stability_study":
        assert "partial: False" in proc.stdout
