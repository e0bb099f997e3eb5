import math
import tracemalloc
import warnings

import numpy as np
import pytest

import bdns.solver as solver
from bdns import diagnostics
from bdns.grid import PeriodicGrid, State, derived, integrate, lp_norm
from bdns.grid import _spectral_ddx
from bdns.harness import InitialDataSpec, generate_sequence
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
from bdns.viscosity import AdmissibilityParams, TamperedLaw, ViscosityLaw

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

    def poisoned(s, config, *, _work=None):
        calls.append(1)
        dr, dm = real(s, config, _work=_work)
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


# -- reference kernel ---------------------------------------------------------------
# The np.roll formulation of rhs and stable_dt that the halo-sliced kernel
# replaced, kept as the oracle: the kernel must reproduce it bit for bit.


def _roll_grad(f, grid):
    return np.stack([(np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)) / (2.0 * grid.spacing[a])
                     for a in range(grid.dim)])


def _ref_limited_slope(q, axis, h, limiter):
    dminus = (q - np.roll(q, 1, axis=axis)) / h
    dplus = (np.roll(q, -1, axis=axis) - q) / h
    central = 0.5 * (dminus + dplus)
    if limiter == "none":
        return central
    if limiter == "van_albada":
        # smooth limiter: second order at smooth extrema, damped at fronts
        denom = dminus * dminus + dplus * dplus
        slope = dminus * dplus * (dminus + dplus) / np.where(denom > 0.0, denom, 1.0)
        return np.where((denom > 0.0) & (dminus * dplus > 0.0), slope, 0.0)
    same = dminus * dplus > 0.0
    if limiter == "minmod":
        mag = np.minimum(np.abs(dminus), np.abs(dplus))
    else:  # monotonized central
        mag = np.minimum(np.abs(central), 2.0 * np.minimum(np.abs(dminus), np.abs(dplus)))
    return np.where(same, np.sign(central) * mag, 0.0)


def _ref_face_states(q, axis, h, limiter):
    """Left/right reconstructions at face i+1/2 for every i."""
    sl = _ref_limited_slope(q, axis, h, limiter)
    q_left = q + 0.5 * h * sl
    q_right = np.roll(q, -1, axis=axis) - 0.5 * h * np.roll(sl, -1, axis=axis)
    return q_left, q_right


def _ref_face_velocity(rho_face, m_face, eps_vac):
    wet = rho_face > eps_vac
    return np.where(wet, m_face / np.where(wet, rho_face, 1.0), 0.0)


def _ref_harmonic_face(h_cell, axis):
    right = np.roll(h_cell, -1, axis=axis)
    s = h_cell + right
    return np.where(s > 0.0, 2.0 * h_cell * right / np.where(s > 0.0, s, 1.0), 0.0)


def ref_rhs(state, config):
    grid = config.grid
    state.check_shapes(grid)
    eps_vac = config.eps_vac
    gamma = config.gamma
    rho = state.rho
    mom = state.mom
    d = derived(state, grid, eps_vac)

    drho = grid.zeros()
    dmom = grid.zeros_vector()

    # local wave speed |u| + sound speed, per cell
    cs = np.sqrt(gamma * np.maximum(rho, 0.0) ** (gamma - 1.0))
    speed = np.sqrt(np.sum(d.u**2, axis=0)) + cs

    for axis in range(grid.dim):
        h = grid.spacing[axis]
        a_face = np.maximum(speed, np.roll(speed, -1, axis=axis))
        rho_l, rho_r = _ref_face_states(rho, axis, h, config.limiter)
        rho_l = np.maximum(rho_l, 0.0)
        rho_r = np.maximum(rho_r, 0.0)
        m_l = np.empty_like(mom)
        m_r = np.empty_like(mom)
        for j in range(grid.dim):
            m_l[j], m_r[j] = _ref_face_states(mom[j], axis, h, config.limiter)
        u_ax_l = _ref_face_velocity(rho_l, m_l[axis], eps_vac)
        u_ax_r = _ref_face_velocity(rho_r, m_r[axis], eps_vac)

        # mass: local Lax-Friedrichs on the reconstructed states
        flux_rho = 0.5 * (m_l[axis] + m_r[axis]) - 0.5 * a_face * (rho_r - rho_l)
        drho -= (flux_rho - np.roll(flux_rho, 1, axis=axis)) / h

        # momentum convection, upwinded the same way
        for j in range(grid.dim):
            flux_m = 0.5 * (m_l[j] * u_ax_l + m_r[j] * u_ax_r) - 0.5 * a_face * (m_r[j] - m_l[j])
            dmom[j] -= (flux_m - np.roll(flux_m, 1, axis=axis)) / h

    # pressure gradient, centered
    dmom -= _roll_grad(np.maximum(rho, 0.0) ** gamma, grid)

    # shear viscosity in compact flux form
    h_cell = config.law.h(np.maximum(rho, 0.0))
    for axis in range(grid.dim):
        h_sp = grid.spacing[axis]
        h_face = _ref_harmonic_face(h_cell, axis)
        for j in range(grid.dim):
            du_face = (np.roll(d.u[j], -1, axis=axis) - d.u[j]) / h_sp
            visc_flux = h_face * du_face
            dmom[j] += (visc_flux - np.roll(visc_flux, 1, axis=axis)) / h_sp

    # second-coefficient term grad(g * div u), centered
    g_cell = config.law.g(np.maximum(rho, 0.0))
    if np.any(g_cell != 0.0):
        div_u = grid.zeros()
        for axis in range(grid.dim):
            div_u += (np.roll(d.u[axis], -1, axis=axis) - np.roll(d.u[axis], 1, axis=axis)) / (
                2.0 * grid.spacing[axis]
            )
        dmom += _roll_grad(g_cell * div_u, grid)

    if config.forcing is not None:
        dmom = dmom + config.forcing(state.t, grid)
    return drho, dmom


def ref_stable_dt(state, config):
    grid = config.grid
    eps_vac = config.eps_vac
    gamma = config.gamma
    dx = min(grid.spacing)
    rho = np.maximum(state.rho, 0.0)
    d = derived(state, grid, eps_vac)
    umax = float(np.max(np.sqrt(np.sum(d.u**2, axis=0))))
    cmax = float(np.max(np.sqrt(gamma * rho ** (gamma - 1.0))))
    wet = rho > eps_vac
    if not np.any(wet):
        h_ref = max(float(config.law.h(eps_vac)), 1e-300)
        return config.cfl * dx * dx * eps_vac / (2.0 * grid.dim * h_ref)
    adv = dx / (umax + cmax) if umax + cmax > 0 else math.inf
    h_cell = config.law.h(rho)
    rate = np.zeros(grid.sizes)
    for axis in range(grid.dim):
        h_face = _ref_harmonic_face(h_cell, axis)
        rate += (h_face + np.roll(h_face, 1, axis=axis)) / grid.spacing[axis] ** 2
    with np.errstate(divide="ignore"):
        diff_all = np.where(rate > 0.0, rho / np.where(rate > 0.0, rate, 1.0), math.inf)
    diff = float(np.min(diff_all[wet]))
    return config.cfl * min(adv, diff)


def rough_state(grid, seed):
    """Random density with dry cells and a few negative ones, random momentum."""
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.5 * rng.standard_normal(grid.sizes)
    rho[rng.random(grid.sizes) < 0.15] = 0.0
    rho[rng.random(grid.sizes) < 0.05] = -1e-3
    return State(0.3, rho, 0.4 * rng.standard_normal((grid.dim, *grid.sizes)))


def assert_same_kernel(state, cfg):
    for got, want in zip(rhs(state, cfg), ref_rhs(state, cfg)):
        assert np.array_equal(got, want)
    assert stable_dt(state, cfg) == ref_stable_dt(state, cfg)


@pytest.mark.parametrize("sizes", [(48,), (16, 16), (12, 20)])
@pytest.mark.parametrize("limiter", solver.LIMITERS)
def test_kernel_matches_roll_reference(sizes, limiter):
    grid = PeriodicGrid(sizes, tuple(0.7 + 0.2 * a for a in range(len(sizes))))
    cfg = make_config(grid, limiter=limiter)
    for seed in range(3):
        assert_same_kernel(rough_state(grid, seed), cfg)
    assert_same_kernel(make_initial("vacuum_bump", grid), cfg)


@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
def test_kernel_matches_roll_reference_g_term_and_forcing(sizes):
    grid = PeriodicGrid(sizes)
    src = np.random.default_rng(5).standard_normal((grid.dim, *grid.sizes))
    cfg = make_config(grid, law=TamperedLaw(LINEAR, 0.7), forcing=lambda t, g: t * src)
    for seed in range(3):
        assert_same_kernel(rough_state(grid, seed), cfg)


def test_run_matches_roll_reference(monkeypatch):
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    cfg = make_config(grid, t_end=4e-4, eps_vac=None, ledger_stride=7)
    runs = [run(cfg, init)]
    monkeypatch.setattr(solver, "rhs", lambda s, c, _work=None: ref_rhs(s, c))
    monkeypatch.setattr(solver, "stable_dt", lambda s, c, _work=None: ref_stable_dt(s, c))
    runs.append(run(cfg, init))
    (new, new_ledger), (ref, ref_ledger) = runs
    assert new.step_count == ref.step_count > 0
    assert new.clamp_count == ref.clamp_count
    assert new.vacuum_zero_count == ref.vacuum_zero_count > 0
    assert new.step_times == ref.step_times
    assert new.step_energies == ref.step_energies
    assert np.array_equal(new.final_state.rho, ref.final_state.rho)
    assert np.array_equal(new.final_state.mom, ref.final_state.mom)
    assert new_ledger.rows == ref_ledger.rows


# -- batched stepping ---------------------------------------------------------------
# A batch stacks members on a leading axis; every kernel call on it must give
# each member exactly (bit for bit) what the call on that member alone gives.


def stack(states):
    return State(np.array([s.t for s in states]), np.stack([s.rho for s in states]),
                 np.stack([s.mom for s in states], axis=1))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def batch_members(grid, times=(0.3, 0.3, 0.3, 0.3)):
    """Rough states with dry and negative cells, a smooth bump with a dry
    region, and an all-dry member, at the given times."""
    states = [rough_state(grid, 0), rough_state(grid, 1), make_initial("vacuum_bump", grid),
              State(0.0, np.zeros(grid.sizes), np.zeros((grid.dim, *grid.sizes)))]
    return [State(t, s.rho, s.mom) for t, s in zip(times, states)]


def assert_batch_kernel_matches_members(states, cfg):
    batch = stack(states)
    drho, dmom = rhs(batch, cfg)
    for k, st in enumerate(states):
        r, m = rhs(st, cfg)
        assert bits(drho[k]) == bits(r) and bits(dmom[:, k]) == bits(m)
    dts = stable_dt(batch, cfg)
    assert dts.tolist() == [stable_dt(st, cfg) for st in states]
    dts = 0.5 * dts
    new, clamps, zeros = step(batch, cfg, dts)
    for k, st in enumerate(states):
        one, c, z = step(st, cfg, float(dts[k]))
        assert float(new.t[k]) == one.t
        assert bits(new.rho[k]) == bits(one.rho) and bits(new.mom[:, k]) == bits(one.mom)
        assert (clamps[k], zeros[k]) == (c, z)


@pytest.mark.parametrize("integrator", solver.INTEGRATORS)
@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
@pytest.mark.parametrize("limiter", solver.LIMITERS)
def test_batched_kernel_matches_members(sizes, limiter, integrator):
    grid = PeriodicGrid(sizes, tuple(0.7 + 0.2 * a for a in range(len(sizes))))
    cfg = make_config(grid, limiter=limiter, integrator=integrator)
    assert_batch_kernel_matches_members(batch_members(grid), cfg)


@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
def test_batched_kernel_matches_members_g_term_and_forcing(sizes):
    grid = PeriodicGrid(sizes)
    src = np.random.default_rng(5).standard_normal((grid.dim, *grid.sizes))
    cfg = make_config(grid, law=TamperedLaw(LINEAR, 0.7), forcing=lambda t, g: t * src)
    # the forcing is evaluated at each member's own (stage) time
    assert_batch_kernel_matches_members(batch_members(grid, (0.1, 0.2, 0.35, 0.5)), cfg)


def test_batched_floors_and_finiteness_match_members():
    grid = PeriodicGrid((12, 20))
    states = batch_members(grid)
    states[1].mom[0, 3, 4] = np.nan
    states[2].rho[5, 5] = np.inf
    batch = stack([s.copy() for s in states])
    failures = solver._check_finite(batch, "here")
    assert sorted(failures) == [1, 2]
    for k, st in enumerate(states):
        solo = solver._check_finite(st, "here")
        assert [str(e) for e in solo.values()] == ([str(failures[k])] if k in failures else [])
    clamps, zeros = solver._apply_floors(batch.rho, batch.mom, 1e-10)
    for k, st in enumerate(states):
        one = st.copy()
        assert (clamps[k], zeros[k]) == solver._apply_floors(one.rho, one.mom, 1e-10)
        assert bits(batch.rho[k]) == bits(one.rho) and bits(batch.mom[:, k]) == bits(one.mom)
    assert clamps.sum() > 0 and zeros.sum() > 0


def test_batched_stable_dt_marks_a_member_without_a_bound():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    good = make_initial("smooth_bump", grid)
    # an overflowing velocity leaves no positive timestep
    bad = State(0.0, np.full(grid.sizes, 1e-5), np.full((1, 32), 1e305))
    with pytest.raises(SolverError, match="no finite stable timestep"):
        stable_dt(bad, cfg)
    dts = stable_dt(stack([good, bad]), cfg)
    assert dts[0] == stable_dt(good, cfg) and np.isnan(dts[1])


def assert_same_run(got, want):
    (traj, ledger), (ref, ref_ledger) = got, want
    assert traj.step_count == ref.step_count > 0
    assert traj.times == ref.times and traj.step_times == ref.step_times
    assert all(type(t) is float for t in traj.times + traj.step_times)
    assert traj.step_energies == ref.step_energies
    assert (traj.clamp_count, traj.vacuum_zero_count, traj.initial_vacuum_momentum_zeroed,
            traj.non_admissible) == (ref.clamp_count, ref.vacuum_zero_count,
                                     ref.initial_vacuum_momentum_zeroed, ref.non_admissible)
    for a, b in zip(traj.states + [traj.final_state], ref.states + [ref.final_state]):
        assert a.t == b.t and bits(a.rho) == bits(b.rho) and bits(a.mom) == bits(b.mom)
    assert ledger.rows == ref_ledger.rows
    assert ledger.metadata == ref_ledger.metadata


def test_run_members_matches_solo_runs_with_member_dts():
    # with h = rho + rho^2 the viscous bound, so dt, differs between members
    grid = PeriodicGrid((256,))
    cfg = make_config(grid, t_end=0.002, nu=0.3, law=ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0))),
                      ledger_stride=20)
    spec = InitialDataSpec("smooth_bump", {"amp": 0.3, "width": 0.3, "u_amp": 0.1},
                           sigma0=0.04, n_max=2)
    initials, _ = generate_sequence(spec, grid, cfg.law, 2.0, 0.05, 1e-10)
    results = solver.run_members(cfg, initials)
    solos = [run(cfg, st) for st in initials]
    assert len({traj.step_count for traj, _ in solos}) == len(initials)
    for got, want in zip(results, solos):
        assert_same_run(got, want)


def test_run_members_matches_solo_runs_rk4_and_own_eps_vac():
    grid = PeriodicGrid((64,))
    cfg = make_config(grid, t_end=2e-4, integrator="RK4", eps_vac=None, ledger_stride=3)
    initials = [make_initial("vacuum_bump", grid, p) for p in
                ({"amp": 1.0, "width": 0.25, "u_amp": 0.05},
                 {"amp": 1.0, "width": 0.3, "u_amp": 0.02},
                 {"amp": 0.5, "width": 0.25, "u_amp": 0.05})]
    results = solver.run_members(cfg, initials)
    for got, init in zip(results, initials):
        assert_same_run(got, run(cfg, init))
    # the dry regions exercise the cutoffs in every member
    assert all(traj.vacuum_zero_count > 0 for traj, _ in results)


def test_run_members_fails_a_member_as_its_solo_run():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=1e-4)
    good = make_initial("smooth_bump", grid)
    negative = good.copy()
    negative.rho[3] = -1.0
    nan = State(0.0, np.ones(grid.sizes), np.full((1, 32), np.nan))
    results = solver.run_members(cfg, [good, negative, nan])
    assert_same_run(results[0], run(cfg, good))
    for res, init in zip(results[1:], (negative, nan)):
        with pytest.raises(type(res)) as solo:
            run(cfg, init)
        assert str(res) == str(solo.value)
    bad_law = make_config(grid, t_end=1e-4, law=ViscosityLaw(constant=1.0))
    results = solver.run_members(bad_law, [good, good])
    with pytest.raises(NonAdmissibleLawError) as solo:
        run(bad_law, good)
    assert [str(r) for r in results] == [str(solo.value)] * 2


def test_run_members_drops_a_member_that_fails_mid_run(monkeypatch):
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=3e-4)
    initials = [make_initial("smooth_bump", grid, {"amp": a}) for a in (0.1, 0.2, 0.3)]
    clean = solver.run_members(cfg, initials)
    real = solver.rhs
    calls = []

    def poisoned(state, config, *, _work=None):
        calls.append(1)
        dr, dm = real(state, config, _work=_work)
        if len(calls) == 4:  # the second stage of the second step
            dr[1] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)
    results = solver.run_members(cfg, initials)
    assert isinstance(results[1], SolverError)
    assert str(results[1]).startswith("non-finite fields after step")
    for k in (0, 2):
        assert_same_run(results[k], clean[k])


# -- viscosity laws whose g vanishes ------------------------------------------------


def test_g_vanishes_only_for_one_linear_term():
    rho = np.abs(np.random.default_rng(2).standard_normal(1000)) * 10.0 ** np.arange(-5, 5).repeat(100)
    assert ViscosityLaw(terms=((0.7, 1.0),)).g_vanishes
    assert np.all(ViscosityLaw(terms=((0.7, 1.0),)).g(rho) == 0.0)
    for law in (ViscosityLaw(terms=((1.0, 1.0), (2.0, 1.0))), ViscosityLaw(terms=((1.0, 2.0),)),
                ViscosityLaw(constant=1.0), TamperedLaw(LINEAR, 0.0)):
        assert not law.g_vanishes


def test_vanishing_g_is_never_evaluated(monkeypatch):
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    cfg = make_config(grid, t_end=2e-4, eps_vac=None, ledger_stride=7)
    calls = []
    real_g = ViscosityLaw.g

    def counting_g(self, rho):
        calls.append(1)
        return real_g(self, rho)

    monkeypatch.setattr(ViscosityLaw, "g", counting_g)
    fast = run(cfg, init)
    fast_calls = len(calls)
    monkeypatch.setattr(ViscosityLaw, "g_vanishes", property(lambda self: False))
    full = run(cfg, init)
    assert_same_run(fast, full)
    # the solver's per-state bundles (two per RK2 step) no longer evaluate g;
    # the validator and the ledger rows still do
    assert len(calls) - fast_calls == fast_calls + fast[0].step_count * 2


def test_batched_step_failure_is_the_members_own():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    good = make_initial("smooth_bump", grid)
    broken = State(0.0, np.ones(grid.sizes), np.ones((1, 32)))
    broken.mom[0, 5] = np.nan
    batch = stack([good, broken])
    with pytest.raises(SolverError) as solo:
        step(broken, cfg, 1e-6)
    with pytest.raises(SolverError) as batched:
        step(batch, cfg, np.array([1e-6, 1e-6]))
    assert str(batched.value) == str(solo.value)
    failures = {}
    new, clamps, zeros = step(batch, cfg, np.array([1e-6, 1e-6]), _failures=failures)
    assert list(failures) == [1] and str(failures[1]) == str(solo.value)
    one, c, z = step(good, cfg, 1e-6)
    assert bits(new.rho[0]) == bits(one.rho) and bits(new.mom[:, 0]) == bits(one.mom)
    assert (clamps[0], zeros[0]) == (c, z)


# -- the per-run workspace ------------------------------------------------------------
# The stage loop writes every field-sized array into buffers allocated once per
# run.  The step body that allocated every stage array, kept as the oracle:
# the workspace step must reproduce it bit for bit.


def ref_step(state, config, dt):
    eps_vac = config.eps_vac
    batch = np.ndim(state.t) > 0
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim) if batch else dt
    clamps = zeros = 0

    def floored(t, rho, mom, where):
        nonlocal clamps, zeros
        out = State(t, rho, mom)
        c, z = solver._apply_floors(out.rho, out.mom, eps_vac)
        clamps += c
        zeros += z
        for exc in solver._check_finite(out, where).values():
            raise exc
        return out

    k1 = solver.rhs(state, config)
    if config.integrator == "RK2_SSP":
        dr, dm = k1
        s1 = floored(state.t + dt, state.rho + w * dr, state.mom + w * dm, "after stage 1")
        dr, dm = solver.rhs(s1, config)
        new = floored(
            state.t + dt,
            0.5 * state.rho + 0.5 * (s1.rho + w * dr),
            0.5 * state.mom + 0.5 * (s1.mom + w * dm),
            "after step",
        )
    else:  # RK4
        ks = [k1]
        for n, c in enumerate((0.5, 0.5, 1.0), start=2):
            kr, km = ks[-1]
            s = floored(state.t + c * dt, state.rho + c * w * kr, state.mom + c * w * km,
                        f"after stage {n}")
            ks.append(solver.rhs(s, config))
        (k1r, k1m), (k2r, k2m), (k3r, k3m), (k4r, k4m) = ks
        new = floored(
            state.t + dt,
            state.rho + w / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            state.mom + w / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            "after step",
        )
    return new, clamps, zeros


@pytest.mark.parametrize("integrator", solver.INTEGRATORS)
@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
def test_step_matches_allocating_reference(sizes, integrator):
    grid = PeriodicGrid(sizes, tuple(0.7 + 0.2 * a for a in range(len(sizes))))
    src = np.random.default_rng(5).standard_normal((grid.dim, *grid.sizes))
    cfg = make_config(grid, integrator=integrator, forcing=lambda t, g: t * src)
    # dry and negative cells in every member but the smooth one
    states = [rough_state(grid, 0), rough_state(grid, 1), make_initial("vacuum_bump", grid),
              make_initial("smooth_bump", grid)]
    states = [State(t, s.rho, s.mom) for t, s in zip((0.1, 0.2, 0.35, 0.5), states)]
    dts = np.array([2e-6, 5e-6, 1e-6, 3e-6])
    for st, dt in zip(states, dts.tolist()):
        got, want = step(st, cfg, dt), ref_step(st, cfg, dt)
        assert got[0].t == want[0].t and got[1:] == want[1:]
        assert bits(got[0].rho) == bits(want[0].rho) and bits(got[0].mom) == bits(want[0].mom)
    batch = stack(states)
    (new, clamps, zeros), (ref, ref_clamps, ref_zeros) = step(batch, cfg, dts), ref_step(
        batch, cfg, dts)
    assert new.t.tolist() == ref.t.tolist()
    assert bits(new.rho) == bits(ref.rho) and bits(new.mom) == bits(ref.mom)
    assert clamps.tolist() == ref_clamps.tolist() and zeros.tolist() == ref_zeros.tolist()
    assert clamps.sum() > 0 and zeros.sum() > 0


# numpy's iterator buffer size, in elements, for the allocation test: a ufunc
# on operands sliced along the last axis of a 2D field copies them through
# buffers allocated per call (64 KiB each at numpy's default of 8192), which
# at this size stay well under the test's 32 KiB field
ITER_BUFFER_ELEMENTS = 256


def test_stage_loop_allocates_no_field(monkeypatch):
    # after the first (warm-up) step of a run, a step allocates no array as
    # large as a field outside the law's evaluation of h: its states,
    # derivatives, bundle and scratch live in the run's workspace.  The law
    # allocates three fields at its peak (see ViscosityLaw.h); its values are
    # copied into an array allocated before the run, and its peak counts only
    # towards the bound of four fields on the whole step
    grid = PeriodicGrid((64, 64))
    cfg = make_config(grid, t_end=1e-4, ledger_stride=1000)
    init = make_initial("saint_venant_demo", grid)
    field_bytes = init.rho.nbytes
    h_values = np.empty(grid.sizes)
    outside, whole = [], []  # per step: its peak outside the law, its whole peak
    windows, evaluations = [], []  # within a step: the peaks between and of law.h calls
    real_step, real_h = solver.step, ViscosityLaw.h

    def h_apart(law, rho):
        if not windows:  # not within a step
            return real_h(law, rho)
        windows.append(tracemalloc.get_traced_memory()[1])  # the window before h
        tracemalloc.reset_peak()
        np.copyto(h_values, real_h(law, rho))
        evaluations.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return h_values

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        windows[:], evaluations[:] = [before], []
        out = real_step(*args, **kwargs)
        windows.append(tracemalloc.get_traced_memory()[1])
        outside.append(max(windows) - before)
        whole.append(max(windows + evaluations) - before)
        windows.clear()
        return out

    monkeypatch.setattr(solver, "step", measured)
    monkeypatch.setattr(ViscosityLaw, "h", h_apart)
    old_bufsize = np.setbufsize(ITER_BUFFER_ELEMENTS)
    tracemalloc.start()
    try:
        traj, _ = run(cfg, init)
    finally:
        tracemalloc.stop()
        np.setbufsize(old_bufsize)
    assert traj.step_count == len(outside) >= 3
    assert max(outside[1:]) < field_bytes
    assert max(whole[1:]) < 4 * field_bytes


@pytest.mark.parametrize("sizes", [(512,), (40, 48)])
def test_energy_in_workspace_lanes_allocates_no_field(sizes):
    # the per-step energy writes every field into lanes of the run's
    # workspace, and gets the value the allocating call gets
    grid = PeriodicGrid(sizes)
    cfg = make_config(grid)
    states = [rough_state(grid, 0), make_initial("vacuum_bump", grid),
              State(0.0, np.zeros(grid.sizes), np.zeros((grid.dim, *grid.sizes)))]
    for st in [*states, stack(states)]:
        scratch = solver._Workspace(cfg, st.rho.shape).energy_scratch
        want = diagnostics.energy(st, grid, cfg.gamma, cfg.eps_vac)
        tracemalloc.start()
        try:
            got = diagnostics.energy(st, grid, cfg.gamma, cfg.eps_vac, _scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits(np.asarray(got)) == bits(np.asarray(want))
        assert peak < states[0].rho.nbytes


def test_results_own_their_arrays():
    grid = PeriodicGrid((12, 20))
    cfg = make_config(grid, t_end=2e-3, ledger_stride=2)
    init = make_initial("smooth_bump", grid)
    first = [*rhs(init, cfg), *rhs(init, cfg)]
    new, _, _ = step(init, cfg, 1e-6)
    again, _, _ = step(init, cfg, 1e-6)
    first += [new.rho, new.mom, again.rho, again.mom]
    traj, _ = run(cfg, init)
    first += [a for st in traj.states + [traj.final_state] for a in (st.rho, st.mom)]
    kept = [a.copy() for a in first]
    later, _ = run(cfg, init)
    second = [a for st in later.states + [later.final_state] for a in (st.rho, st.mom)]
    arrays = first + second
    assert traj.step_count >= 4 and len(traj.states) >= 3
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    # a later run leaves the first one's results as they were
    assert all(bits(a) == bits(b) for a, b in zip(first, kept))


def test_check_finite_reports_an_all_nan_density_without_a_warning():
    grid = PeriodicGrid((16,))
    nan = State(0.0, np.full(grid.sizes, np.nan), np.zeros((1, 16)))
    some = State(0.0, np.linspace(-2.0, 1.0, 16), np.zeros((1, 16)))
    some.rho[3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (err,) = solver._check_finite(nan, "here").values()
        (partial,) = solver._check_finite(some, "here").values()
    assert str(err) == ("non-finite fields here (t=0): 16 density cells, 0 momentum entries; "
                        "no finite density")
    assert str(partial).endswith("1 density cells, 0 momentum entries; max finite |rho|=2")


def test_overflowing_velocity_warns_nothing():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    good = make_initial("smooth_bump", grid)
    bad = State(0.0, np.full(grid.sizes, 1e-5), np.full((1, 32), 1e305))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="no finite stable timestep"):
            stable_dt(bad, cfg)
        dts = stable_dt(stack([good, bad]), cfg)
    assert np.isnan(dts[1])
