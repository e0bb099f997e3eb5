import numpy as np
import pytest

import bdns.solver as solver
from bdns.grid import PeriodicGrid, State, integrate, lp_norm
from bdns.grid import _spectral_ddx
from bdns.presets import make_initial
from bdns.solver import (
    NonAdmissibleLawError,
    SolverConfig,
    SolverError,
    rhs,
    run,
    stable_dt,
    step,
)
from bdns.viscosity import AdmissibilityParams, ViscosityLaw

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))


def make_config(grid, t_end=1e-3, nu=0.9, gamma=2.0, **kw):
    params = AdmissibilityParams(nu=nu, gamma=gamma, N=grid.dim)
    kw.setdefault("eps_vac", 1e-10)
    kw.setdefault("law", LINEAR)
    return SolverConfig(params=params, grid=grid, t_end=t_end, **kw)


# -- right-hand side ----------------------------------------------------------


def test_rhs_vanishes_on_constant_state():
    for sizes in ((32,), (16, 16)):
        grid = PeriodicGrid(sizes)
        cfg = make_config(grid)
        rho = np.full(grid.sizes, 1.3)
        mom = 0.7 * np.ones((grid.dim, *grid.sizes))
        dr, dm = rhs(State(0.0, rho, mom), cfg)
        assert np.max(np.abs(dr)) < 1e-13
        assert np.max(np.abs(dm)) < 1e-12


def test_rhs_momentum_mean_is_zero():
    grid = PeriodicGrid((24, 24))
    cfg = make_config(grid)
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.3 * rng.random(grid.sizes)
    mom = 0.2 * rng.standard_normal((2, *grid.sizes))
    _, dm = rhs(State(0.0, rho, mom), cfg)
    for a in range(2):
        assert integrate(dm[a], grid) == pytest.approx(0.0, abs=1e-11)


def test_rhs_against_analytic_expression():
    # rho = 1, u = sin(2 pi x), h = rho (g = 0), gamma = 2:
    #   d rho/dt = -2 pi cos(2 pi x)
    #   d m/dt   = -2 pi sin(4 pi x) - 4 pi^2 sin(2 pi x)
    errs_r, errs_m = [], []
    for n in (128, 256, 512):
        grid = PeriodicGrid((n,))
        # unlimited slopes: the limiter clips at smooth extrema by design
        cfg = make_config(grid, limiter="none")
        x = grid.axis_coords(0)
        state = State(0.0, np.ones(grid.sizes), np.sin(2 * np.pi * x)[np.newaxis])
        dr, dm = rhs(state, cfg)
        errs_r.append(np.max(np.abs(dr + 2 * np.pi * np.cos(2 * np.pi * x))))
        exact_m = -2 * np.pi * np.sin(4 * np.pi * x) - 4 * np.pi**2 * np.sin(2 * np.pi * x)
        errs_m.append(np.max(np.abs(dm[0] - exact_m)))
    assert np.log2(errs_r[0] / errs_r[2]) / 2 >= 1.9
    assert np.log2(errs_m[0] / errs_m[2]) / 2 >= 1.9


def test_rhs_forcing_hook():
    grid = PeriodicGrid((32,))
    src = np.full((1, 32), 2.5)
    cfg = make_config(grid, forcing=lambda t, g: src)
    state = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    _, dm = rhs(state, cfg)
    np.testing.assert_allclose(dm, src, atol=1e-12)


# -- timestep ------------------------------------------------------------------


def test_stable_dt_constant_state_formula():
    grid = PeriodicGrid((128,))
    cfg = make_config(grid, cfl=0.4, t_end=1.0)
    state = State(0.0, np.ones(grid.sizes), np.zeros((1, 128)))
    dx = 1.0 / 128
    expected = 0.4 * min(dx / np.sqrt(2.0), dx * dx / 2.0)
    assert stable_dt(state, cfg) == expected


def test_stable_dt_quarters_under_refinement():
    dts = []
    for n in (64, 128):
        grid = PeriodicGrid((n,))
        cfg = make_config(grid, cfl=0.4)
        dts.append(stable_dt(State(0.0, np.ones(grid.sizes), np.zeros((1, n))), cfg))
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_shrinks_with_velocity_in_advective_limit():
    # tiny viscosity pushes the advective limit to the front
    law = ViscosityLaw(terms=((1e-6, 1.0),))
    grid = PeriodicGrid((64,))
    cfg = make_config(grid, law=law, allow_non_admissible=True)
    rho = np.ones(grid.sizes)
    dt1 = stable_dt(State(0.0, rho, 1.0 * rho[np.newaxis]), cfg)
    dt10 = stable_dt(State(0.0, rho, 10.0 * rho[np.newaxis]), cfg)
    assert dt1 / dt10 >= 11.0 / (1.0 + np.sqrt(2.0)) * 0.99


def test_stable_dt_all_vacuum_state():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, cfl=0.4, eps_vac=1e-8)
    dt = stable_dt(State(0.0, np.zeros(grid.sizes), np.zeros((1, 32))), cfg)
    dx = 1.0 / 32
    assert dt == pytest.approx(0.4 * dx * dx * 1e-8 / (2.0 * LINEAR.h(1e-8)))


# -- stepping -------------------------------------------------------------------


def test_constant_state_stays_exactly_constant():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=1e-3)
    state = State(0.0, np.full(grid.sizes, 2.0), np.full((1, 32), 0.5))
    traj, _ = run(cfg, state)
    assert np.array_equal(traj.final_state.rho, state.rho)
    assert np.array_equal(traj.final_state.mom, state.mom)
    assert traj.clamp_count == 0


def test_run_is_deterministic():
    grid = PeriodicGrid((64,))
    init = make_initial("smooth_bump", grid)
    outs = []
    for _ in range(2):
        traj, ledger = run(make_config(grid, t_end=2e-3, ledger_stride=5), init)
        outs.append((traj.final_state.rho.copy(), traj.final_state.mom.copy(),
                     ledger.column("E_eq15").copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])


def test_mass_and_momentum_conservation_smooth_run():
    grid = PeriodicGrid((64,))
    init = make_initial("smooth_bump", grid)
    traj, _ = run(make_config(grid, t_end=2e-3), init)
    mass0 = integrate(init.rho, grid)
    assert abs(integrate(traj.final_state.rho, grid) - mass0) <= 1e-12 * mass0
    mom0 = integrate(init.mom[0], grid)
    assert abs(integrate(traj.final_state.mom[0], grid) - mom0) <= 1e-10 * max(abs(mom0), 1.0)
    assert traj.clamp_count == 0


def test_energy_decays_on_smooth_run():
    grid = PeriodicGrid((64,))
    init = make_initial("smooth_bump", grid)
    traj, _ = run(make_config(grid, t_end=2e-3), init)
    E = np.array(traj.step_energies)
    assert np.all(np.diff(E) <= 1e-10 * E[0])
    assert E[-1] < E[0]


def test_vacuum_state_preserved_and_momentum_zeroed():
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid)
    # plant momentum on a dry cell: the solver must zero and report it
    dry = np.where(init.rho == 0.0)[0]
    init.mom[0, dry[0]] = 0.1
    traj, _ = run(make_config(grid, t_end=5e-4, eps_vac=None), init)
    assert traj.initial_vacuum_momentum_zeroed >= 1
    assert np.all(traj.final_state.rho >= 0.0)


def test_nan_aborts_with_diagnostics():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    state = State(0.0, np.ones(grid.sizes), np.full((1, 32), np.nan))
    with pytest.raises(SolverError):
        run(cfg, state)


def test_non_admissible_law_needs_override():
    grid = PeriodicGrid((32,))
    bad = ViscosityLaw(constant=1.0)
    init = State(0.0, np.ones(grid.sizes), np.zeros((1, 32)))
    with pytest.raises(NonAdmissibleLawError):
        run(make_config(grid, law=bad), init)
    traj, _ = run(make_config(grid, law=bad, allow_non_admissible=True, t_end=1e-4), init)
    assert traj.non_admissible


def test_step_counters_on_manufactured_negative_density():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, eps_vac=1e-10)
    # steep density spike next to vacuum provokes a clamped update
    rho = np.zeros(grid.sizes)
    rho[10] = 1.0
    state = State(0.0, rho, np.zeros((1, 32)))
    new, clamps, zeros = step(state, cfg, 1e-5)
    assert np.all(new.rho >= 0.0)


def test_checkpoints_recorded_at_stride():
    grid = PeriodicGrid((32,))
    init = make_initial("smooth_bump", grid)
    traj, ledger = run(make_config(grid, t_end=1e-3, ledger_stride=3), init)
    assert len(traj.times) == len(ledger.rows)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1e-3)
    assert all(t2 > t1 for t1, t2 in zip(traj.times, traj.times[1:]))


@pytest.mark.parametrize("integrator", ["RK2_SSP", "RK4"])
def test_counters_sum_every_stage(monkeypatch, integrator):
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    counts = []
    real = solver._apply_floors

    def counting(rho, mom, eps_vac):
        counts.append(real(rho, mom, eps_vac))
        return counts[-1]

    monkeypatch.setattr(solver, "_apply_floors", counting)
    traj, _ = run(make_config(grid, t_end=2e-4, eps_vac=None, integrator=integrator), init)
    # the first call floors the initial data; every later one is a stage of a step
    in_step = counts[1:]
    assert len(in_step) == traj.step_count * (2 if integrator == "RK2_SSP" else 4)
    assert traj.vacuum_zero_count == sum(z for _, z in in_step) > 0
    assert traj.clamp_count == sum(c for c, _ in in_step)


def test_nan_in_intermediate_rk4_stage_aborts(monkeypatch):
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, integrator="RK4")
    state = make_initial("smooth_bump", grid)
    real = solver.rhs
    calls = []

    def poisoned(s, config):
        calls.append(1)
        dr, dm = real(s, config)
        if len(calls) == 2:
            dr[0] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)
    with pytest.raises(SolverError, match="after stage 3"):
        step(state, cfg, 1e-6)
    assert len(calls) == 2


# -- manufactured-solution forcing ------------------------------------------------


def manufactured_forcing(grid, law, gamma, c_wave=1.0, k_shift=0.2, amp=0.3):
    """Traveling-wave manufactured solution: rho = 1 + amp sin(2 pi (x - c t)),
    m = c rho + K satisfies continuity exactly; the momentum source makes the
    pair solve the full system."""
    x = grid.coords()[0]

    def rho_exact(t):
        return 1.0 + amp * np.sin(2 * np.pi * (x - c_wave * t))

    def m_exact(t):
        return c_wave * rho_exact(t) + k_shift

    def forcing(t, g):
        r = rho_exact(t)
        m = m_exact(t)
        u = m / r
        dm_dt = -(c_wave**2) * 2 * np.pi * amp * np.cos(2 * np.pi * (x - c_wave * t))
        conv = _spectral_ddx(m * u, g, 0)
        press = _spectral_ddx(r**gamma, g, 0)
        visc = _spectral_ddx(law.h(r) * _spectral_ddx(u, g, 0), g, 0)
        gdiv = _spectral_ddx(law.g(r) * _spectral_ddx(u, g, 0), g, 0)
        return (dm_dt + conv + press - visc - gdiv)[np.newaxis]

    return rho_exact, m_exact, forcing


def mms_errors(cells, t_end=0.01, limiter="none"):
    errs = []
    for n in cells:
        grid = PeriodicGrid((n,))
        rho_exact, m_exact, forcing = manufactured_forcing(grid, LINEAR, 2.0)
        cfg = make_config(grid, t_end=t_end, ledger_stride=10**6, limiter=limiter,
                          forcing=forcing)
        traj, _ = run(cfg, State(0.0, rho_exact(0.0), m_exact(0.0)[np.newaxis]))
        errs.append(
            (
                lp_norm(traj.final_state.rho - rho_exact(t_end), grid, 2),
                lp_norm(traj.final_state.mom[0] - m_exact(t_end), grid, 2),
            )
        )
    return errs


def test_manufactured_solution_second_order():
    errs = mms_errors((64, 128))
    assert np.log2(errs[0][0] / errs[1][0]) >= 1.9
    assert np.log2(errs[0][1] / errs[1][1]) >= 1.9
