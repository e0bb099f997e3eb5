import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdns.harness as harness
import bdns.solver as solver
from bdns.grid import PeriodicGrid, integrate, lp_norm
from bdns.harness import (
    GenerationError,
    InitialDataSpec,
    generate_sequence,
    run_study,
)
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
    assert len(study.vacuum) == 3
    assert all(v <= 1e-12 for v in study.vacuum)


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
    for key in ("d_rho", "d_u", "d_m", "vacuum", "uniform_bounds"):
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


def test_stability_demo_runs():
    # the demo is the public-API user of run_study
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "demos/05_stability_study.py"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "partial: False" in proc.stdout
