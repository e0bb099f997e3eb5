import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdns.diagnostics as diagnostics
from bdns.diagnostics import (
    MomentParams,
    TestField,
    apriori_bounds,
    bd_cross,
    bd_entropy,
    compactness_quantities,
    dissipation,
    energy,
    ledger_row,
    make_test_fields,
    moment_functional,
    moment_rhs,
    weak_form_residual,
)
from bdns.grid import PeriodicGrid, State, grad, integrate, lp_norm
from bdns.presets import make_initial
from bdns.solver import SolverConfig, run
from bdns.viscosity import AdmissibilityParams, ViscosityLaw

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
EPS = 1e-10


def sine_state(n=256, a=0.5, u_amp=1.0):
    grid = PeriodicGrid((n,))
    x = grid.axis_coords(0)
    rho = 1.0 + a * np.sin(2 * np.pi * x)
    mom = (rho * u_amp * np.sin(2 * np.pi * x))[np.newaxis]
    return grid, State(0.0, rho, mom)


# -- energy and dissipation -----------------------------------------------------


def test_energy_of_vacuum_is_zero():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.zeros(grid.sizes), np.zeros((1, 32)))
    assert energy(st0, grid, 2.0, EPS) == 0.0
    assert dissipation(st0, grid, LINEAR, EPS) == 0.0


def test_energy_of_rest_state():
    grid = PeriodicGrid((32, 32))
    st0 = State(0.0, np.ones(grid.sizes), np.zeros((2, 32, 32)))
    assert energy(st0, grid, 2.0, EPS) == pytest.approx(1.0, rel=1e-13)


def test_dissipation_against_analytic_integral():
    # rho = 1, u = sin(2 pi x), h = rho: int (2 pi cos)^2 = 2 pi^2
    grid = PeriodicGrid((512,))
    x = grid.axis_coords(0)
    st0 = State(0.0, np.ones(grid.sizes), np.sin(2 * np.pi * x)[np.newaxis])
    assert dissipation(st0, grid, LINEAR, EPS) == pytest.approx(2 * np.pi**2, rel=1e-3)


# -- weighted entropy functional ---------------------------------------------------


def test_bd_entropy_kernel_of_quadratic_term():
    # build m = -sqrt(rho) * 2 h' grad(sqrt rho) with the same discrete
    # gradient the functional uses: the quadratic part vanishes identically
    grid = PeriodicGrid((128,))
    x = grid.axis_coords(0)
    rho = 1.0 + 0.4 * np.sin(2 * np.pi * x)
    sqrt_rho = np.sqrt(rho)
    gsr = grad(sqrt_rho, grid)
    hp = LINEAR.h_prime(rho)
    mom = -sqrt_rho * 2.0 * hp * gsr
    st0 = State(0.0, rho, mom)
    expected = integrate(rho**2.0 / (2.0 - 1.0), grid)
    assert bd_entropy(st0, grid, LINEAR, 2.0, EPS) == pytest.approx(expected, rel=1e-12)


def test_bd_cross_zero_for_flat_density():
    grid = PeriodicGrid((64,))
    st0 = State(0.0, np.ones(grid.sizes), np.ones((1, 64)))
    assert bd_cross(st0, grid, LINEAR, 2.0, EPS) == 0.0


def test_bd_cross_against_quadrature_oracle():
    # rho = 1 + sin(2 pi x)/2, h = rho, gamma = 2:
    # gamma int h' rho^{gamma-2} |rho'|^2 = 2 int (pi cos)^2 = pi^2
    grid, st0 = sine_state(512)
    assert bd_cross(st0, grid, LINEAR, 2.0, EPS) == pytest.approx(np.pi**2, rel=2e-3)


def test_bd_cross_nonnegative_random_states():
    rng = np.random.default_rng(5)
    grid = PeriodicGrid((64,))
    for _ in range(10):
        rho = np.abs(rng.standard_normal(grid.sizes)) + 0.01
        st0 = State(0.0, rho, rng.standard_normal((1, 64)))
        assert bd_cross(st0, grid, LINEAR, 2.0, EPS) >= 0.0


def test_energy_decomposition_identity():
    # E_BD = E + cross term + 2 ||h' grad sqrt(rho)||^2, exactly as computed
    grid, st0 = sine_state(128, a=0.3, u_amp=0.7)
    mp = MomentParams()
    row = ledger_row(st0, grid, LINEAR, 2.0, mp, EPS)
    lhs = row["E_BD_lemma31"]
    rhs = row["E_eq15"] + row["BD_cross_term"] + 2.0 * row["hprime_grad_sqrt_rho_L2_eq20"] ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_public_helpers_equal_ledger_columns_exactly():
    # compact-support density: dry cells exercise every vacuum cutoff
    grid = PeriodicGrid((128,))
    st0 = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.3, "u_amp": 0.2})
    mp = MomentParams()
    row = ledger_row(st0, grid, LINEAR, 2.0, mp, EPS)
    assert np.any(st0.rho <= EPS)
    assert energy(st0, grid, 2.0, EPS) == row["E_eq15"]
    assert dissipation(st0, grid, LINEAR, EPS) == row["D_visc_eq15"]
    assert bd_entropy(st0, grid, LINEAR, 2.0, EPS) == row["E_BD_lemma31"]
    assert bd_cross(st0, grid, LINEAR, 2.0, EPS) == row["X_BD_lemma31"]
    assert moment_functional(st0, grid, mp.delta, EPS) == row["M_delta_lemma32"]
    assert moment_rhs(st0, grid, LINEAR, 2.0, mp.delta, EPS) == row["RHS_delta_lemma32"]
    for name, v in apriori_bounds(st0, grid, LINEAR, 2.0, EPS).items():
        assert v == row[name], name
    for name, v in compactness_quantities(st0, grid, LINEAR, 2.0, mp, EPS).items():
        assert v == row[name], name


def test_ledger_row_derives_fields_once(monkeypatch):
    # one guarded division each for u, sqrt(rho) u, h / sqrt(rho) and the
    # moment bound's rho^(2 gamma - delta/2) / h
    calls = []
    real = diagnostics._cutoff

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "_cutoff", counting)
    grid, st0 = sine_state(64)
    ledger_row(st0, grid, LINEAR, 2.0, MomentParams(), EPS)
    assert len(calls) == 4


# -- velocity moment -----------------------------------------------------------------


def test_moment_functional_zero_velocity():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    assert moment_functional(st0, grid, 0.1, EPS) == 0.0


def test_moment_functional_constant_fields():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.ones(grid.sizes), np.full((1, 32), 2.0))
    assert moment_functional(st0, grid, 0.1, EPS) == pytest.approx(2.0**2.1 / 2.1, rel=1e-13)


def test_moment_rhs_constant_fields():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.ones(grid.sizes), np.full((1, 32), 2.0))
    assert moment_rhs(st0, grid, LINEAR, 2.0, 0.1, EPS) == pytest.approx(4.0**0.05, rel=1e-13)


def test_moment_delta_range_enforced():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    with pytest.raises(ValueError):
        moment_functional(st0, grid, 2.5, EPS)
    with pytest.raises(ValueError):
        moment_rhs(st0, grid, LINEAR, 2.0, -0.1, EPS)


@pytest.mark.parametrize("gamma", [1.0, 0.5, float("nan")])
def test_energy_rejects_gamma_not_above_one(gamma):
    grid = PeriodicGrid((16,))
    with pytest.raises(ValueError, match="gamma must be > 1 and finite"):
        energy(make_initial("smooth_bump", grid), grid, gamma, EPS)


@pytest.mark.parametrize("gamma", [1.0, 0.5, float("nan"), float("inf")])
def test_every_helper_given_gamma_rejects_it_not_above_one(gamma):
    # one check, worded as AdmissibilityParams' and the certifier's, for
    # every functional given gamma: none returns a value for gamma <= 1
    grid = PeriodicGrid((16,))
    st0 = make_initial("smooth_bump", grid, {"u_amp": 0.3})
    calls = (lambda: ledger_row(st0, grid, LINEAR, gamma, MomentParams(), EPS),
             lambda: bd_entropy(st0, grid, LINEAR, gamma, EPS),
             lambda: bd_cross(st0, grid, LINEAR, gamma, EPS),
             lambda: moment_rhs(st0, grid, LINEAR, gamma, 0.05, EPS),
             lambda: apriori_bounds(st0, grid, LINEAR, gamma, EPS),
             lambda: compactness_quantities(st0, grid, LINEAR, gamma, MomentParams(), EPS))
    for call in calls:
        with pytest.raises(ValueError, match="gamma must be > 1 and finite"):
            call()


@pytest.mark.parametrize("eps_vac", [0.0, -1e-10, float("nan"), float("inf")])
def test_helpers_reject_eps_vac_not_finite_and_positive(eps_vac):
    # with a NaN or infinite threshold every cell would count as dry and the
    # kinetic parts would silently vanish
    grid = PeriodicGrid((16,))
    st0 = make_initial("smooth_bump", grid, {"u_amp": 0.3})
    for call in (lambda: energy(st0, grid, 2.0, eps_vac),
                 lambda: dissipation(st0, grid, LINEAR, eps_vac),
                 lambda: moment_functional(st0, grid, 0.05, eps_vac)):
        with pytest.raises(ValueError, match="eps_vac"):
            call()


def test_moment_params_validation():
    MomentParams(0.05, 0.02).validate(nu=0.9)
    with pytest.raises(ValueError):
        MomentParams(0.05, 0.02).validate(nu=0.1)  # delta >= nu/4
    with pytest.raises(ValueError):
        MomentParams(0.05, 0.03).validate(nu=0.9)  # alpha >= delta/2


# -- bound trackers ------------------------------------------------------------------


def test_apriori_bounds_rest_state():
    grid = PeriodicGrid((32,))
    st0 = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    vals = apriori_bounds(st0, grid, LINEAR, 2.0, EPS)
    assert vals["rho_L1_eq19"] == pytest.approx(1.0, rel=1e-13)
    for name, v in vals.items():
        if "grad" in name or "_u_" in name:
            assert v == pytest.approx(0.0, abs=1e-12), name


def test_apriori_bounds_velocity_scaling():
    grid, st0 = sine_state(128)
    base = apriori_bounds(st0, grid, LINEAR, 2.0, EPS)
    scaled = apriori_bounds(State(0.0, st0.rho, 3.0 * st0.mom), grid, LINEAR, 2.0, EPS)
    assert scaled["sqrt_rho_u_L2_eq19"] == pytest.approx(3.0 * base["sqrt_rho_u_L2_eq19"], rel=1e-12)


def test_compactness_quantities_vacuum_and_flat():
    grid = PeriodicGrid((32,))
    mp = MomentParams()
    empty = State(0.0, np.zeros(grid.sizes), np.zeros((1, 32)))
    vals = compactness_quantities(empty, grid, LINEAR, 2.0, mp, EPS)
    assert all(v == 0.0 for v in vals.values())
    flat = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    vals = compactness_quantities(flat, grid, LINEAR, 2.0, mp, EPS)
    assert vals["h_over_sqrt_rho_L6_lemma44"] == pytest.approx(1.0, rel=1e-13)


def test_compactness_h_over_sqrt_rho_against_oracle():
    # rho = 1 + sin(2 pi x)/2, h = rho: ||sqrt(rho)||_L6 = (int rho^3)^{1/6} = 1.375^{1/6}
    grid, st0 = sine_state(512)
    vals = compactness_quantities(st0, grid, LINEAR, 2.0, MomentParams(), EPS)
    assert vals["h_over_sqrt_rho_L6_lemma44"] == pytest.approx(1.375 ** (1.0 / 6.0), rel=1e-6)


@given(a=st.floats(0.0, 0.9), b=st.floats(0.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_interpolation_inequality_for_pressure_norm(a, b):
    # ||f||_{5/3} <= ||f||_1^{2/5} ||f||_3^{3/5} with f = rho^gamma >= 0
    grid = PeriodicGrid((64,))
    x = grid.axis_coords(0)
    rho = 1.0 + a * np.sin(2 * np.pi * x) + b * np.cos(4 * np.pi * x) ** 2
    rho = np.maximum(rho, 0.0)
    f = rho**2.0
    lhs = lp_norm(f, grid, 5.0 / 3.0)
    rhs = lp_norm(f, grid, 1.0) ** 0.4 * lp_norm(f, grid, 3.0) ** 0.6
    assert lhs <= rhs * (1 + 1e-12)


def test_weighted_forms_match_direct_forms_off_vacuum():
    grid, st0 = sine_state(128, a=0.4, u_amp=0.8)
    wet = st0.rho > EPS
    sqrt_rho_u = np.where(wet, st0.mom / np.sqrt(np.where(wet, st0.rho, 1.0)), 0.0)
    direct_kinetic = integrate(st0.rho * np.sum((st0.mom / st0.rho) ** 2, axis=0), grid)
    weighted = integrate(np.sum(sqrt_rho_u**2, axis=0), grid)
    assert weighted == pytest.approx(direct_kinetic, rel=1e-13)


# -- weak form ------------------------------------------------------------------------


def run_small(n=48, t_end=2e-3, dim=2):
    grid = PeriodicGrid(tuple(n for _ in range(dim)))
    init = make_initial("smooth_bump", grid)
    cfg = SolverConfig(
        law=LINEAR,
        params=AdmissibilityParams(nu=0.9, gamma=2.0, N=dim),
        grid=grid,
        t_end=t_end,
        ledger_stride=4,
        eps_vac=EPS,
    )
    traj, ledger = run(cfg, init)
    return grid, cfg, traj, ledger


def test_weak_form_residual_constant_trajectory():
    grid = PeriodicGrid((32,))
    cfg = SolverConfig(
        law=LINEAR, params=AdmissibilityParams(nu=0.9, gamma=2.0, N=1),
        grid=grid, t_end=1e-3, ledger_stride=2, eps_vac=EPS,
    )
    init = State(0.0, np.full(grid.sizes, 1.2), np.full((1, 32), 0.3))
    traj, _ = run(cfg, init)
    for tf in make_test_fields(1, t_end=1e-3, seed=2, count=3):
        assert weak_form_residual(traj, grid, LINEAR, 2.0, tf, EPS) < 1e-10


def test_weak_form_zero_test_field_like():
    grid, cfg, traj, _ = run_small(n=24, t_end=1e-3, dim=1)
    tf = TestField(1, [(0, 0.0, (1,), 0.0)], t_end=1e-3)
    assert weak_form_residual(traj, grid, LINEAR, 2.0, tf, EPS) == 0.0


def test_weak_form_rejects_nonvanishing_test_field():
    grid, cfg, traj, _ = run_small(n=24, t_end=1e-3, dim=1)

    class Bad(TestField):
        def w(self, t):
            return 1.0

    tf = Bad(1, [(0, 1.0, (1,), 0.0)], t_end=1e-3)
    with pytest.raises(ValueError):
        weak_form_residual(traj, grid, LINEAR, 2.0, tf, EPS)


def test_weak_form_residual_refines_with_g_pairing():
    # h = rho + rho^2 has g = rho^2, so the second-coefficient pairings of the
    # weak form enter the residual; dropping either one stalls the order
    law = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))
    fields = make_test_fields(1, 2e-3, seed=5, count=3)
    residuals = []
    for n in (64, 128):
        grid = PeriodicGrid((n,))
        cfg = SolverConfig(law=law, params=AdmissibilityParams(nu=0.3, gamma=2.0, N=1),
                           grid=grid, t_end=2e-3, ledger_stride=2, eps_vac=EPS,
                           limiter="none")
        init = make_initial("smooth_bump", grid, {"amp": 0.3, "u_amp": 0.3})
        traj, _ = run(cfg, init)
        residuals.append([weak_form_residual(traj, grid, law, 2.0, tf, EPS) for tf in fields])
    for r64, r128 in zip(*residuals):
        assert np.log2(r64 / r128) >= 1.0


def _weak_form_reference(traj, grid, law, gamma, tf):
    # the weak momentum balance term by term, with loops over the components
    # and plain quotients on the wet cells
    phi, dphi, lap_phi, grad_div = tf.spatial(grid)
    div_phi = sum(dphi[a, a] for a in range(grid.dim))
    dt_terms, space_terms = [], []
    for st in traj.states:
        rho = np.maximum(st.rho, 0.0)
        wet = st.rho > EPS
        sqrt_rho = np.sqrt(rho)
        safe = np.where(wet, sqrt_rho, 1.0)
        sru = np.where(wet, st.mom / safe, 0.0)
        h_ov, g_ov = (np.where(wet, c / safe, 0.0) for c in (law.h(rho), law.g(rho)))
        gsr = grad(sqrt_rho, grid)
        space = rho**gamma * div_phi
        for i in range(grid.dim):
            space = space + (h_ov * lap_phi[i] + g_ov * grad_div[i]) * sru[i]
            space = space + 2.0 * law.g_prime(rho) * gsr[i] * sru[i] * div_phi
            for j in range(grid.dim):
                space = space + (sru[i] + 2.0 * law.h_prime(rho) * gsr[i]) * sru[j] * dphi[i, j]
        dt_terms.append(integrate(np.sum(sqrt_rho * sru * phi, axis=0), grid))
        space_terms.append(integrate(space, grid))
    t = np.asarray(traj.times)
    w, wp = np.array([tf.w(x) for x in t]), np.array([tf.w_prime(x) for x in t])
    initial = tf.w(t[0]) * integrate(np.sum(traj.states[0].mom * phi, axis=0), grid)
    return abs(initial + np.trapezoid(np.array(dt_terms) * wp + np.array(space_terms) * w, t))


def test_weak_form_residual_matches_term_by_term_reference():
    # 2D, with g = rho^2 and a dry corner, so every pairing and the cutoffs enter
    law = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))
    grid = PeriodicGrid((24, 20), (1.0, 0.8))
    cfg = SolverConfig(law=law, params=AdmissibilityParams(nu=0.3, gamma=2.0, N=2),
                       grid=grid, t_end=1e-3, ledger_stride=3, eps_vac=EPS)
    traj, _ = run(cfg, make_initial("vacuum_bump", grid, {"u_amp": 0.2}))
    for tf in make_test_fields(2, t_end=1e-3, seed=4, count=3):
        want = _weak_form_reference(traj, grid, law, 2.0, tf)
        got = weak_form_residual(traj, grid, law, 2.0, tf, EPS)
        # the sums run in another order: double rounding of O(1) terms,
        # relative to a residual near 1e-5
        assert got == pytest.approx(want, rel=1e-9)


def test_weak_form_residual_one_bundle_two_integrals_per_state(monkeypatch):
    grid, cfg, traj, _ = run_small(n=24, t_end=1e-3, dim=1)
    (tf,) = make_test_fields(1, t_end=1e-3, seed=2, count=1)
    calls = {"fields": 0, "integrate": 0}
    real_init, real_integrate = diagnostics._Fields.__init__, diagnostics.integrate

    def counting_init(self, *args, **kwargs):
        calls["fields"] += 1
        real_init(self, *args, **kwargs)

    def counting_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(diagnostics._Fields, "__init__", counting_init)
    monkeypatch.setattr(diagnostics, "integrate", counting_integrate)
    weak_form_residual(traj, grid, LINEAR, 2.0, tf, EPS)
    n_states = len(traj.states)
    assert calls["fields"] == n_states
    # two per retained state, and one for the initial pairing
    assert calls["integrate"] <= 2 * n_states + 1


def test_test_field_modes_need_zero_mean():
    with pytest.raises(ValueError):
        TestField(1, [(0, 1.0, (0,), 0.0)], t_end=1.0)


def test_ledger_csv_and_jsonl_round_trip(tmp_path):
    grid, cfg, traj, ledger = run_small(n=24, t_end=1e-3, dim=1)
    csv_path = tmp_path / "ledger.csv"
    ledger.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header[0] == "t"
    assert "E_eq15" in header and "X_BD_lemma31" in header and "M_delta_lemma32" in header
    assert len(lines) == 2 + len(ledger.rows)
    jsonl_path = tmp_path / "ledger.jsonl"
    ledger.to_jsonl(jsonl_path)
    assert len(jsonl_path.read_text().splitlines()) == 1 + len(ledger.rows)


def test_ledger_rows_all_finite_nonnegative_bounds():
    grid, cfg, traj, ledger = run_small(n=24, t_end=1e-3, dim=1)
    for row in ledger.rows:
        for name, v in row.items():
            assert np.isfinite(v), name
            if name != "t" and "BD_cross_term" not in name:
                assert v >= -1e-12, name


def test_moment_growth_rate_respects_tracked_bound():
    # along a smooth run, the discrete growth rate of the velocity moment
    # stays below the ledger's bound at every sampled interval
    grid = PeriodicGrid((64,))
    cfg = SolverConfig(
        law=LINEAR, params=AdmissibilityParams(nu=0.9, gamma=2.0, N=1),
        grid=grid, t_end=2e-3, ledger_stride=4, eps_vac=EPS,
    )
    init = make_initial("smooth_bump", grid, {"u_amp": 0.3, "u_mean": 0.2})
    _, ledger = run(cfg, init)
    t = ledger.times
    m = ledger.column("M_delta_lemma32")
    bound = ledger.column("RHS_delta_lemma32")
    rate = np.diff(m) / np.diff(t)
    assert np.all(rate <= np.maximum(bound[:-1], bound[1:]) + 1e-9)
