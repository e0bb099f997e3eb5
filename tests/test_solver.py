import gc
import importlib.util
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bdns.solver as solver
from bdns import diagnostics, identities
from bdns._workspace import _limited_slope
from bdns.grid import PeriodicGrid, State, integrate, lp_norm, spectral_grad
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
from bdns.viscosity import AdmissibilityParams, TamperedLaw, ViscosityLaw, validate

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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("law", [LINEAR, ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))],
                         ids=["h=rho", "h=rho+rho^2"])
def test_rhs_is_second_order_against_the_certifiers_pde(dim, law):
    # the solver and the identity certifier solve the same equations: on the
    # band-limited field of criteria 1-3, rhs with unlimited slopes converges
    # at second order to the certifier's exact d rho/dt and d m/dt, the g
    # term and the 2D cross terms included.  Only the finest pair is gated:
    # 2D h = rho momentum reads 1.82 on 32 -> 64
    field = identities.manufactured_field(dim, seed=7 + dim)
    errors = []
    for n in (32, 64, 128):
        ctx = identities._Ctx(field, law, 2.0, n)
        cfg = make_config(ctx.grid, law=law, limiter="none")
        drho, dmom = rhs(State(0.0, ctx.rho, ctx.m), cfg)
        errors.append([lp_norm(drho - ctx.dt_rho, ctx.grid, 2),
                       lp_norm(dmom - ctx.dt_m, ctx.grid, 2)])
    orders = np.log2(np.divide(errors[1], errors[2]))
    assert np.all(orders >= 1.9), orders


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


def test_stable_dt_bounds_the_g_term():
    # h = rho + rho^3 gives g = 2 rho^3: on a tall bump the centered
    # grad(g div u) stencil is stiffer than the shear stencil, and a bound
    # without it lets the run blow up into a timestep underflow
    law = ViscosityLaw(terms=((1.0, 1.0), (1.0, 3.0)))
    grid = PeriodicGrid((128,))
    cfg = make_config(grid, nu=0.1, t_end=0.002, cfl=0.99,
                      moment=diagnostics.MomentParams(delta=0.0125, alpha=0.003), law=law)
    assert validate(law, cfg.params).overall
    init = make_initial("smooth_bump", grid, {"amp": 2.0, "width": 0.3, "u_amp": 0.1})
    traj, _ = run(cfg, init)
    assert traj.final_state.t == pytest.approx(0.002)
    E = np.array(traj.step_energies)
    assert np.all(np.diff(E) <= 0.0)


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


@pytest.mark.parametrize("integrator", ["RK2_SSP"])
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
    assert len(in_step) == traj.step_count * 2
    assert traj.vacuum_zero_count == sum(z for _, z in in_step) > 0
    assert traj.clamp_count == sum(c for c, _ in in_step)


def test_nan_in_intermediate_stage_aborts(monkeypatch):
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    state = make_initial("smooth_bump", grid)
    real = solver.rhs
    calls = []

    def poisoned(s, config, *, _work=None):
        calls.append(1)
        dr, dm = real(s, config, _work=_work)
        if len(calls) == 1:  # k1: the stage state is non-finite
            dr[0] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)
    with pytest.raises(SolverError, match="after stage 1"):
        step(state, cfg, 1e-6)
    assert len(calls) == 1


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

    def ddx(f, g):
        return spectral_grad(f, g)[0]

    def forcing(t, g):
        r = rho_exact(t)
        m = m_exact(t)
        u = m / r
        dm_dt = -(c_wave**2) * 2 * np.pi * amp * np.cos(2 * np.pi * (x - c_wave * t))
        conv = ddx(m * u, g)
        press = ddx(r**gamma, g)
        visc = ddx(law.h(r) * ddx(u, g), g)
        gdiv = ddx(law.g(r) * ddx(u, g), g)
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
# The np.roll formulation of rhs and stable_dt that the windowed kernel
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


def _ref_velocity(rho, m, eps_vac):
    """m / rho where rho > eps_vac and 0 elsewhere, written out apart from the
    solver's own cutoff."""
    wet = rho > eps_vac
    return np.where(wet, m / np.where(wet, rho, 1.0), 0.0)


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
    u = _ref_velocity(rho, mom, eps_vac)

    drho = grid.zeros()
    dmom = grid.zeros_vector()

    # local wave speed |u| + sound speed, per cell
    cs = np.sqrt(gamma * np.maximum(rho, 0.0) ** (gamma - 1.0))
    speed = np.sqrt(np.sum(u**2, axis=0)) + cs

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
        u_ax_l = _ref_velocity(rho_l, m_l[axis], eps_vac)
        u_ax_r = _ref_velocity(rho_r, m_r[axis], eps_vac)

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
            du_face = (np.roll(u[j], -1, axis=axis) - u[j]) / h_sp
            visc_flux = h_face * du_face
            dmom[j] += (visc_flux - np.roll(visc_flux, 1, axis=axis)) / h_sp

    # second-coefficient term grad(g * div u), centered
    g_cell = config.law.g(np.maximum(rho, 0.0))
    if np.any(g_cell != 0.0):
        div_u = grid.zeros()
        for axis in range(grid.dim):
            div_u += (np.roll(u[axis], -1, axis=axis) - np.roll(u[axis], 1, axis=axis)) / (
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
    u = _ref_velocity(state.rho, state.mom, eps_vac)
    umax = float(np.max(np.sqrt(np.sum(u**2, axis=0))))
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
    if not config.law.g_vanishes:
        g = np.abs(config.law.g(rho))
        rate_g = np.zeros(grid.sizes)
        for axis in range(grid.dim):
            coef = sum(1.0 / (4.0 * grid.spacing[axis] * h_b) for h_b in grid.spacing)
            rate_g = np.maximum(rate_g, (np.roll(g, -1, axis) + np.roll(g, 1, axis)) * coef)
        rate = rate + rate_g
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

    def one(s):  # a run is a batch of one; the references take the one state
        return State(float(s.t[0]), s.rho[0], s.mom[:, 0])

    def batched_ref_rhs(s, c, _work=None):
        drho, dmom = ref_rhs(one(s), c)
        return drho[np.newaxis], dmom[:, np.newaxis]

    monkeypatch.setattr(solver, "rhs", batched_ref_rhs)
    monkeypatch.setattr(solver, "stable_dt",
                        lambda s, c, _work=None: np.array([ref_stable_dt(one(s), c)]))
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


def kernels_in_workspace(states, cfg, poison):
    """stable_dt, rhs and one step of a batch in a fresh workspace of its
    own, each result copied; with ``poison``, every lane and the buffers of
    the harmonic faces are filled with NaN first, their slack included."""
    batch = stack(states)
    work = solver._Workspace(cfg, batch.rho.shape)
    if poison:
        work._lanes.fill(np.nan)
        for faces, _ in work.h_faces:
            assert faces.base.size > faces.size  # the window and its slack
            faces.base.fill(np.nan)
    state = solver._load(work, cfg, batch.t,
                         np.concatenate((batch.rho[np.newaxis], batch.mom)))
    dt = stable_dt(state, cfg, _work=work)
    drho, dmom = (a.copy() for a in rhs(state, cfg, _work=work))
    new, clamps, zeros = step(state, cfg, 0.5 * dt, _work=work)
    return [dt, drho, dmom, new.t, new.q.copy(), clamps, zeros]


def assert_no_valid_entry_reads_a_seam(states, cfg):
    clean = kernels_in_workspace(states, cfg, poison=False)
    poisoned = kernels_in_workspace(states, cfg, poison=True)
    assert all(np.isfinite(a).all() for a in clean)
    assert [bits(a) for a in poisoned] == [bits(a) for a in clean]


@pytest.mark.parametrize("integrator", solver.INTEGRATORS)
@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
@pytest.mark.parametrize("limiter", solver.LIMITERS)
def test_no_valid_entry_reads_a_seam(sizes, limiter, integrator):
    # the stencils compute every entry of their windows, the seams (which
    # read the next row or the slack) among them; NaN in every lane shows
    # that no entry read outside the stencils depends on one
    grid = PeriodicGrid(sizes, tuple(0.7 + 0.2 * a for a in range(len(sizes))))
    cfg = make_config(grid, limiter=limiter, integrator=integrator)
    assert_no_valid_entry_reads_a_seam(batch_members(grid), cfg)


@pytest.mark.parametrize("sizes", [(48,), (12, 20)])
def test_no_valid_entry_reads_a_seam_g_term_and_forcing(sizes):
    grid = PeriodicGrid(sizes, tuple(0.7 + 0.2 * a for a in range(len(sizes))))
    src = np.random.default_rng(5).standard_normal((grid.dim, *grid.sizes))
    cfg = make_config(grid, law=TamperedLaw(LINEAR, 0.7), forcing=lambda t, g: t * src)
    assert_no_valid_entry_reads_a_seam(batch_members(grid, (0.1, 0.2, 0.35, 0.5)), cfg)


def limited_slopes(q, limiter):
    """The workspace's limited slope of a stacked 1D batch ``q`` of (2, B, n)
    with unit spacing, for cells 0 .. n - 1, under warnings as errors."""
    grid = PeriodicGrid(q.shape[-1:], (float(q.shape[-1]),))
    work = solver._Workspace(make_config(grid, limiter=limiter), q.shape[1:])
    s, state = work.axes[0], work.stacked[0]
    state.q[...] = q
    np.concatenate(state.halos[0], axis=s.axis, out=s.qp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = _limited_slope(s, limiter)
    return slope[..., 1:q.shape[-1] + 1]


def field_with_differences(dminus, dplus, n=8):
    """A field of n cells whose cell 3 has exactly these backward and
    forward differences; the other cells hold zeros."""
    q = np.zeros(n)
    # cell 3 is -0.0 where dminus is: x - y is -0.0 only for x = -0.0, y = +0.0
    q[3] = -0.0 if dminus == 0.0 and math.copysign(1.0, dminus) < 0 else 0.0
    q[2], q[4] = q[3] - dminus, dplus
    assert bits(np.array([q[3] - q[2], q[4] - q[3]])) == bits(np.array([dminus, dplus]))
    return q


@pytest.mark.parametrize("limiter", ["mc", "minmod"])
def test_clamp_limiters_match_the_oracle(limiter):
    # every pair of these differences but (-0.0, -0.0), which the differences
    # of no field give
    values = (0.0, -0.0, 1.0, -1.0, 1e300, -1e300)
    pairs = [(a, b) for a in values for b in values
             if not (a == b == 0.0 and math.copysign(1.0, a) < 0 and math.copysign(1.0, b) < 0)]
    fields = np.stack([field_with_differences(a, b) for a, b in pairs])
    q = np.stack([fields, -fields])  # both rows, the signs reversed in the second
    got = limited_slopes(q, limiter)
    with np.errstate(over="ignore"):  # the oracle's product dminus * dplus overflows
        want = _ref_limited_slope(q, -1, 1.0, limiter)
    assert bits(got) == bits(want)
    # where dminus * dplus underflows, the oracle reads no common sign and
    # gives 0; the clamps keep the slope
    tiny = field_with_differences(1e-300, 1e-300)[np.newaxis, np.newaxis]
    assert _ref_limited_slope(tiny, -1, 1.0, limiter)[0, 0, 3] == 0.0
    assert limited_slopes(np.concatenate((tiny, tiny)), limiter)[0, 0, 3] == 1e-300


def one_batch(state):
    """A single state as a batch of one that views its arrays."""
    return State(np.array([state.t], dtype=float), state.rho[np.newaxis], state.mom[:, np.newaxis])


def floors(batch, config):
    """The floors of a batch, in place, through a workspace of its shape:
    its clamped and its zeroed cells, one count per member each."""
    work = solver._Workspace(config, batch.rho.shape)
    return tuple((work.no_counts + n).tolist()
                 for n in solver._apply_floors(batch.rho, batch.mom, work))


def test_batched_floors_and_finiteness_match_members():
    grid = PeriodicGrid((12, 20))
    cfg = make_config(grid)
    states = batch_members(grid)
    states[1].mom[0, 3, 4] = np.nan
    states[2].rho[5, 5] = np.inf
    batch = stack([s.copy() for s in states])
    failures = solver._check_finite(batch, "here")
    assert sorted(failures) == [1, 2]
    for k, st in enumerate(states):
        solo = solver._check_finite(one_batch(st), "here")
        assert [str(e) for e in solo.values()] == ([str(failures[k])] if k in failures else [])
    clamps, zeros = floors(batch, cfg)
    for k, st in enumerate(states):
        one = st.copy()
        assert ([clamps[k]], [zeros[k]]) == floors(one_batch(one), cfg)
        assert bits(batch.rho[k]) == bits(one.rho) and bits(batch.mom[:, k]) == bits(one.mom)
    assert sum(clamps) > 0 and sum(zeros) > 0


def test_batched_stable_dt_marks_a_member_without_a_bound():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    good = make_initial("smooth_bump", grid)
    # an overflowing velocity leaves no positive timestep
    bad = State(0.0, np.full(grid.sizes, 1e-5), np.full((1, 32), 1e305))
    dry = State(0.0, np.zeros(grid.sizes), np.zeros((1, 32)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="no finite stable timestep") as solo:
            stable_dt(bad, cfg)
        with pytest.raises(SolverError) as batched:
            stable_dt(stack([good, bad, dry, bad]), cfg)
    # the all-dry member keeps its bound; each bad one ends with its own error
    assert sorted(batched.value.errors) == [1, 3]
    assert [str(e) for e in batched.value.errors.values()] == [str(solo.value)] * 2
    assert str(batched.value) == str(solo.value)
    assert list(solo.value.errors) == [0]


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


def counting_bundles(monkeypatch):
    """A list that grows by one at every construction of a field bundle."""
    made = []
    real = diagnostics._Fields.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(diagnostics._Fields, "__init__", counting)
    return made


def test_a_state_evaluates_rho_gamma_once(monkeypatch):
    # the pressure rho^gamma of a state is made by its bundle alone: the
    # pressure gradient of rhs and the per-step energy's potential read it,
    # so an RK2 step evaluates it twice, for its stage state and its new
    # state, and a run once more for its initial state
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    cfg = make_config(grid, t_end=2e-4, eps_vac=None, ledger_stride=10**6)
    evaluations = []
    real = diagnostics._power

    def counting(x, exponent, out=None):
        if exponent == cfg.gamma:
            evaluations.append(1)
        return real(x, exponent, out)

    for module in (solver, diagnostics):
        if "_power" in vars(module):
            monkeypatch.setattr(module, "_power", counting)
    traj, _ = run(cfg, init)
    assert traj.step_count >= 3
    assert len(evaluations) == 1 + 2 * traj.step_count


@pytest.mark.parametrize("integrator, per_step", [("RK2_SSP", 2)])
def test_a_step_builds_a_bundle_per_stage_and_a_ledger_instant_none(monkeypatch, integrator,
                                                                    per_step):
    # one bundle for the initial state, then one per stage state and one for
    # the new state, whose energy, ledger row, next stable_dt and next first
    # stage share it: the count does not depend on the ledger stride
    grid = PeriodicGrid((64,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    made = counting_bundles(monkeypatch)
    for stride in (1, 10**6):
        made.clear()
        traj, ledger = run(make_config(grid, t_end=2e-4, eps_vac=None, integrator=integrator,
                                       ledger_stride=stride), init)
        assert len(made) == 1 + per_step * traj.step_count
        assert len(ledger.rows) == (traj.step_count + 1 if stride == 1 else 2)


def test_batch_ledger_rows_come_from_the_step_bundle(monkeypatch):
    # with h = rho + rho^2 each member has its own dt, so the members reach
    # t_end, and fall due for their last row, at different steps.  Taking the
    # rows builds no bundle, and every row equals the public ledger_row of
    # the state the trajectory keeps, column for column and bit for bit
    grid = PeriodicGrid((256,))
    cfg = make_config(grid, t_end=0.002, nu=0.3, law=ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0))),
                      ledger_stride=20)
    spec = InitialDataSpec("smooth_bump", {"amp": 0.3, "width": 0.3, "u_amp": 0.1},
                           sigma0=0.04, n_max=2)
    initials, _ = generate_sequence(spec, grid, cfg.law, 2.0, 0.05, 1e-10)
    made = counting_bundles(monkeypatch)
    counts = {}
    for stride in (10**6, 20):
        made.clear()
        results = solver.run_members(replace(cfg, ledger_stride=stride), initials)
        counts[stride] = len(made)
    assert counts[20] == counts[10**6]
    assert len({traj.step_count for traj, _ in results}) == len(initials)
    for traj, ledger in results:
        assert len(ledger.rows) == len(traj.states) > 2
        for row, st in zip(ledger.rows, traj.states):
            want = diagnostics.ledger_row(st, grid, cfg.law, cfg.gamma, cfg.moment, cfg.eps_vac,
                                          row["clamp_count"], row["cutoff_count"])
            assert list(row) == list(want)
            assert [float(v).hex() for v in row.values()] == [v.hex() for v in want.values()]


def test_run_members_matches_solo_runs_with_their_own_eps_vac():
    grid = PeriodicGrid((64,))
    cfg = make_config(grid, t_end=2e-4, eps_vac=None, ledger_stride=3)
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


def test_initial_checks_rerun_on_the_survivors_keep_their_counts():
    # the NaN member fails after the floors have zeroed the dry momentum of
    # the others, which are then checked and floored again: their counts add
    grid = PeriodicGrid((64,))
    cfg = make_config(grid, t_end=2e-4)
    dry = []
    for cells in ((2,), (3, 5), (1, 4, 30)):
        init = make_initial("vacuum_bump", grid)
        init.mom[0, np.flatnonzero(init.rho == 0.0)[list(cells)]] = 0.1
        dry.append(init)
    negative = make_initial("smooth_bump", grid)
    negative.rho[3] = -1.0
    nan = make_initial("vacuum_bump", grid)
    nan.rho[7] = np.nan
    initials = [dry[0], nan, dry[1], negative, dry[2]]
    results = solver.run_members(cfg, initials)
    for k in (0, 2, 4):
        assert_same_run(results[k], run(cfg, initials[k]))
    assert [results[k][0].initial_vacuum_momentum_zeroed for k in (0, 2, 4)] == [1, 2, 3]
    assert type(results[3]) is ValueError and str(results[3]) == "initial density must be nonnegative"
    assert type(results[1]) is SolverError
    assert str(results[1]).startswith("non-finite fields in initial data (t=0): 1 density cells")
    for k in (1, 3):
        with pytest.raises(type(results[k])) as solo:
            run(cfg, initials[k])
        assert str(results[k]) == str(solo.value)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_initial_time_fails_before_any_step(monkeypatch, t):
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=1e-4)
    good = make_initial("smooth_bump", grid)
    bad = State(t, good.rho.copy(), good.mom.copy())
    clean = run(cfg, good)
    steps = []
    real = solver.step

    def counting(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counting)
    with pytest.raises(ValueError, match=r"^initial time must be finite, got ") as solo:
        run(cfg, bad)
    assert str(solo.value) == f"initial time must be finite, got {t}" and not steps
    results = solver.run_members(cfg, [good, bad, good])
    assert type(results[1]) is ValueError and str(results[1]) == str(solo.value)
    for k in (0, 2):
        assert_same_run(results[k], clean)


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


def test_run_members_ends_members_below_the_timestep_floor():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=1e-4)
    good = make_initial("smooth_bump", grid)
    # a velocity of 1e15 needs a step below the floor of 1e-12 * t_end
    fast = [State(0.0, np.ones(grid.sizes), np.full((1, 32), v)) for v in (1e15, 2e15)]
    results = solver.run_members(cfg, [fast[0], good, fast[1]])
    assert_same_run(results[1], run(cfg, good))
    for res, init in zip(results[::2], fast):
        with pytest.raises(SolverError, match="timestep underflow: required dt ") as solo:
            run(cfg, init)
        assert str(res) == str(solo.value)
    assert str(results[0]) != str(results[2])


def test_run_members_ends_two_members_at_different_stages_of_one_step(monkeypatch):
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=3e-4)
    initials = [make_initial("smooth_bump", grid, {"amp": a}) for a in (0.1, 0.2, 0.3)]
    solo = run(cfg, initials[2])
    real = solver.rhs
    calls = []

    def poisoned(state, config, *, _work=None):
        calls.append(len(state.t))
        dr, dm = real(state, config, _work=_work)
        if len(calls) == 3:  # k1 of the second step: member 0 ends after stage 1
            dr[0] = np.nan
        if len(calls) == 5:  # k2 of that step, redone without member 0: member 1 after the step
            dr[0] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = solver.run_members(cfg, initials)
    assert calls[:6] == [3, 3, 3, 2, 2, 1]
    assert isinstance(results[0], SolverError) and isinstance(results[1], SolverError)
    assert str(results[0]).startswith("non-finite fields after stage 1 ")
    assert str(results[1]).startswith("non-finite fields after step ")
    assert_same_run(results[2], solo)


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

    def counting_g(self, rho, *scratch):
        calls.append(1)
        return real_g(self, rho, *scratch)

    made = counting_bundles(monkeypatch)
    monkeypatch.setattr(ViscosityLaw, "g", counting_g)
    validate(cfg.law, cfg.params)
    validating = len(calls)
    calls.clear()
    fast = run(cfg, init)
    fast_calls, fast_bundles = len(calls), len(made)
    monkeypatch.setattr(ViscosityLaw, "g_vanishes", property(lambda self: False))
    full = run(cfg, init)
    assert_same_run(fast, full)
    # beyond the validator, each bundle evaluates g at most once: with g
    # vanishing only the bundles of ledger rows do, for the dissipation, and
    # else every bundle does, for its stage kernels, a ledger row sharing it
    assert fast_calls - validating == len(fast[1].rows)
    assert len(calls) - fast_calls - validating == len(made) - fast_bundles == fast_bundles


def test_batched_step_failure_is_the_members_own():
    grid = PeriodicGrid((32,))
    cfg = make_config(grid)
    good = make_initial("smooth_bump", grid)
    broken = State(0.0, np.ones(grid.sizes), np.ones((1, 32)))
    broken.mom[0, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite fields after stage 1") as solo:
            step(broken, cfg, 1e-6)
        with pytest.raises(SolverError) as batched:
            step(stack([good, broken, good, broken]), cfg, np.full(4, 1e-6))
    assert list(solo.value.errors) == [0]
    assert sorted(batched.value.errors) == [1, 3]
    assert [str(e) for e in batched.value.errors.values()] == [str(solo.value)] * 2
    assert str(batched.value) == str(solo.value)


# -- the per-run workspace ------------------------------------------------------------
# The stage loop writes every field-sized array into buffers allocated once per
# run.  The step body that allocated every stage array, kept as the oracle:
# the workspace step must reproduce it bit for bit.


def ref_step(state, config, dt):
    batch = np.ndim(state.t) > 0
    w = np.reshape(dt, (-1,) + (1,) * config.grid.dim) if batch else dt
    counts = []  # of every stage: the clamped and the zeroed cells per member

    def floored(t, rho, mom, where):
        out = State(t, rho, mom)
        rows = out if batch else one_batch(out)
        counts.append(floors(rows, config))
        for exc in solver._check_finite(rows, where).values():
            raise exc
        return out

    dr, dm = solver.rhs(state, config)
    s1 = floored(state.t + dt, state.rho + w * dr, state.mom + w * dm, "after stage 1")
    dr, dm = solver.rhs(s1, config)
    new = floored(
        state.t + dt,
        0.5 * state.rho + 0.5 * (s1.rho + w * dr),
        0.5 * state.mom + 0.5 * (s1.mom + w * dm),
        "after step",
    )
    clamps, zeros = (np.sum([c[i] for c in counts], axis=0) for i in (0, 1))
    if not batch:
        return new, int(clamps[0]), int(zeros[0])
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
# on operands sliced along the last axis of a 2D field (a valid box) copies
# them through buffers allocated per call (64 KiB each at numpy's default of
# 8192), which at this size stay well under the test's 32 KiB field
ITER_BUFFER_ELEMENTS = 256


def test_stage_loop_allocates_no_field(monkeypatch):
    # after the first (warm-up) step of a run, a step allocates no array as
    # large as a field: its states, derivatives, bundle and scratch live in
    # the run's workspace, and the bundle evaluates the law's h, and for
    # h = rho + rho^2 its g, into buffers of its own
    grid = PeriodicGrid((64, 64))
    init = make_initial("saint_venant_demo", grid)
    field_bytes = init.rho.nbytes
    peaks = []  # per step: its peak above the memory it started with
    real_step = solver.step

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real_step(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(solver, "step", measured)
    for law, nu in ((LINEAR, 0.9), (ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0))), 0.3)):
        cfg = make_config(grid, t_end=1e-4, nu=nu, law=law, ledger_stride=1000)
        peaks.clear()
        old_bufsize = np.setbufsize(ITER_BUFFER_ELEMENTS)
        tracemalloc.start()
        try:
            traj, _ = run(cfg, init)
        finally:
            tracemalloc.stop()
            np.setbufsize(old_bufsize)
        assert traj.step_count == len(peaks) >= 3
        assert max(peaks[1:]) < field_bytes, law.describe()


@pytest.mark.parametrize("sizes", [(512,), (40, 48)])
def test_energy_in_workspace_lanes_allocates_no_field(sizes):
    # the solver's bundle of a state writes its energy's fields into lanes
    # of the run's workspace, and gets the value the allocating call gets
    grid = PeriodicGrid(sizes)
    cfg = make_config(grid)
    states = [rough_state(grid, 0), make_initial("vacuum_bump", grid),
              State(0.0, np.zeros(grid.sizes), np.zeros((grid.dim, *grid.sizes)))]
    for st in [*states, stack(states)]:
        bundle = solver._bundle(st, cfg, solver._Workspace(cfg, st.rho.shape))
        want = diagnostics.energy(st, grid, cfg.gamma, cfg.eps_vac)
        tracemalloc.start()
        try:
            got = bundle.energy()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits(np.asarray(got)) == bits(np.asarray(want))
        assert peak < states[0].rho.nbytes


def test_finished_run_frees_its_workspace(monkeypatch):
    # a workspace holds the bundle of the state its kernels last read, and
    # the bundle holds the workspace's arrays but not the workspace: with no
    # reference cycle between them, a run's workspaces are freed when the
    # run returns, without a garbage collection
    made = []
    real = solver._Workspace

    def tracked(*args):
        work = real(*args)
        made.append(weakref.ref(work))
        return work

    monkeypatch.setattr(solver, "_Workspace", tracked)
    grid = PeriodicGrid((32,))
    cfg = make_config(grid, t_end=2e-4, ledger_stride=3)
    inits = [make_initial("smooth_bump", grid), make_initial("vacuum_bump", grid)]
    gc.disable()
    try:
        (traj, _), = solver.run_members(cfg, inits[:1])
        results = solver.run_members(cfg, inits)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert traj.step_count >= 2 and len(made) == 2 and not alive
    assert all(not isinstance(res, Exception) for res in results)


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
        (err,) = solver._check_finite(one_batch(nan), "here").values()
        (partial,) = solver._check_finite(one_batch(some), "here").values()
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
        with pytest.raises(SolverError, match="no finite stable timestep") as solo:
            stable_dt(bad, cfg)
        with pytest.raises(SolverError) as batched:
            stable_dt(stack([good, bad]), cfg)
    assert list(batched.value.errors) == [1]
    assert str(batched.value.errors[1]) == str(solo.value)


# -- call budget ----------------------------------------------------------------------
# A 1D step is bound by its call count, not by arithmetic: the counting pass of
# tools/count_step_calls.py keeps that count from creeping back, and keeps a
# step free of field-sized allocations and of strided operands beyond the
# valid-box reads and the per-component face rows.


def test_1d_step_call_budget():
    path = Path(__file__).resolve().parents[1] / "tools" / "count_step_calls.py"
    spec = importlib.util.spec_from_file_location("count_step_calls", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    counts = tool.count(tool.VACUUM1D_256)
    step = counts["step"]
    assert step["python"] <= 100, counts
    assert step["ufunc"] <= 167, counts
    assert step["fields"] == 2 and counts["ledger_instant_fields"] == 0, counts
    # a ledger row's reductions: one quadrature per column or factor today
    assert counts["ledger_instant_integrals"] <= 20, counts
    assert sum(phase["python"] for phase in counts["phases"].values()) == step["python"]
    # the stencils run on contiguous windows, and the law's h is evaluated
    # into the bundle's buffer
    assert step["allocations"] == 0 and step["strided"] <= 10, counts
    step_2d = tool.count(tool.SV2D_128)["step"]
    assert step_2d["allocations"] == 0 and step_2d["strided"] <= 27, step_2d
