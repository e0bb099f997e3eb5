import numpy as np
import pytest

import bdns.harness as harness
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
        law=LINEAR,
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


def test_partial_study_reports_surviving_members(monkeypatch):
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=2)
    real_run = harness.run
    calls = {"count": 0}

    def flaky_run(config, initial):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("synthetic member failure")
        return real_run(config, initial)

    monkeypatch.setenv("BDNS_THREADS", "1")
    monkeypatch.setattr(harness, "run", flaky_run)
    study = run_study(spec, cfg)
    assert study.partial
    assert len(study.failures) == 1
    assert "member 1" in study.failures[0]
    assert study.trajectories[1] is None
    assert study.d_rho[0, 2] > 0.0  # surviving pair still measured


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


def test_thread_cap_respected(monkeypatch):
    monkeypatch.setenv("BDNS_THREADS", "1")
    cfg = small_config(n=64, t_end=5e-4)
    spec = InitialDataSpec("smooth_bump", {}, sigma0=0.05, n_max=1)
    study = run_study(spec, cfg)
    assert not study.partial


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
