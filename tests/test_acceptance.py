"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The expensive runs (the 2D shallow-water pair, the vacuum run, the
stability study) are session-scoped fixtures shared by the criteria that
consume them.  Tolerances are fixed here, not configurable.
"""

import numpy as np
import pytest

from bdns.diagnostics import make_test_fields, weak_form_residual
from bdns.grid import PeriodicGrid, State, integrate, lp_norm
from bdns.identities import manufactured_field, run_all_identities
from bdns.harness import InitialDataSpec, run_study
from bdns.presets import make_initial
from bdns.solver import SolverConfig, run
from bdns.viscosity import AdmissibilityParams, TamperedLaw, ViscosityLaw, find_max_nu, validate
from test_solver import manufactured_forcing

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
MIXED = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))
GAMMA = 2.0
DECAY_FLOOR = 1e-11
GRIDS = {1: [32, 64, 128], 2: [32, 64, 128]}
FINEST = {1: 128, 2: 64}  # residual threshold grid per dimension
NU_FOR = {LINEAR: 0.9, MIXED: 0.3}


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {tag}: {desc}" + (f" [{detail}]" if detail else "")
    print(line, flush=True)
    assert ok, line


def fields_for(dim):
    return manufactured_field(dim, seed=7 + dim)


@pytest.fixture(scope="session")
def saint_venant_runs():
    """Criterion-4 configuration at two resolutions (reused by 6 and 10)."""
    out = {}
    for n in (64, 128):
        grid = PeriodicGrid((n, n))
        init = make_initial("saint_venant_demo", grid)
        cfg = SolverConfig(
            law=LINEAR,
            params=AdmissibilityParams(nu=0.9, gamma=GAMMA, N=2),
            grid=grid,
            t_end=0.01,
            cfl=0.4,
            ledger_stride=8,
            eps_vac=1e-10,
        )
        traj, ledger = run(cfg, init)
        out[n] = (cfg, traj, ledger)
    return out


@pytest.fixture(scope="session")
def vacuum_run():
    grid = PeriodicGrid((256,))
    init = make_initial("vacuum_bump", grid, {"amp": 1.0, "width": 0.25, "u_amp": 0.05})
    cfg = SolverConfig(
        law=LINEAR,
        params=AdmissibilityParams(nu=0.9, gamma=GAMMA, N=1),
        grid=grid,
        t_end=0.02,
        cfl=0.4,
        ledger_stride=20,
    )
    traj, ledger = run(cfg, init)
    return cfg, init, traj, ledger


def test_criterion_01_identity_certification():
    worst = 0.0
    ok = True
    for dim in (1, 2):
        mf = fields_for(dim)
        grids = GRIDS[dim]
        idx = grids.index(FINEST[dim])
        for law in (LINEAR, MIXED):
            # the four derivation steps, before the moment balance
            *reports, _ = run_all_identities(mf, law, GAMMA, grids, nu=NU_FOR[law])
            for rep in reports:
                for name, series in rep.residuals.items():
                    worst = max(worst, series[idx])
                    if series[idx] >= 1e-8:
                        ok = False
                    for a, b in zip(series, series[1:]):
                        if b > max(a * 1e-2, DECAY_FLOOR):
                            ok = False
    _report(1, "entropy-identity residuals < 1e-8 with spectral decay", ok,
            f"worst residual at threshold grid {worst:.2e}")


def test_criterion_02_structural_relation_necessity():
    bad = TamperedLaw(LINEAR, 1.0)
    ok = True
    smallest = np.inf
    for dim in (1, 2):
        reports = run_all_identities(fields_for(dim), bad, GAMMA, GRIDS[dim], nu=NU_FOR[LINEAR])
        rep = reports[3]  # bd_combination
        smallest = min(smallest, min(rep.residuals["step4_chain"]))
        if any(r <= 1e-2 for r in rep.residuals["step4_chain"]):
            ok = False
        if rep.verdict:
            ok = False
    _report(2, "tampered pair g != rho h' - h leaves O(1) residual at all grids",
            ok, f"smallest residual {smallest:.2e}")


def test_criterion_03_moment_estimate_certification():
    ok = True
    worst_slack = np.inf
    for dim in (1, 2):
        mf = fields_for(dim)
        for law in (LINEAR, MIXED):
            for delta in (0.01, 0.05):
                *_, rep = run_all_identities(mf, law, GAMMA, GRIDS[dim], delta=delta,
                                             nu=NU_FOR[law])
                worst_slack = min(worst_slack, min(rep.slacks["end_to_end_slack"]))
                if any(s < -1e-8 for s in rep.slacks["end_to_end_slack"]):
                    ok = False
                if any(r >= 1e-8 for r in rep.residuals["equality"]):
                    ok = False
    # delta -> 0 limit agrees with the energy balance kinetic rate
    mf = fields_for(1)
    energy, *_, moment = run_all_identities(mf, LINEAR, GAMMA, [64], delta=1e-6, nu=0.9)
    dk = energy.terms[0]["d_dt_kinetic"]
    dm = moment.terms[0]["d_dt_moment"]
    if abs(dm - dk) > 1e-4 * abs(dk):
        ok = False
    _report(3, "moment-balance equality and end-to-end inequality certified",
            ok, f"worst end-to-end slack {worst_slack:.2e}, delta->0 rel {abs(dm-dk)/abs(dk):.2e}")


def _energy_violation(traj):
    incr = np.diff(np.asarray(traj.step_energies))
    return max(0.0, float(np.max(incr))) / traj.step_energies[0]


def _bd_violation(ledger):
    ebd = ledger.column("E_BD_lemma31")
    xint = ledger.cumulative_integral("X_BD_lemma31")
    return max(0.0, float(np.max(ebd + xint - ebd[0]))) / ebd[0]


def test_criterion_04_solver_entropy_behavior(saint_venant_runs):
    cfg128, traj128, ledger128 = saint_venant_runs[128]
    cfg64, traj64, ledger64 = saint_venant_runs[64]
    ok = traj128.step_count >= 500
    ev128, ev64 = _energy_violation(traj128), _energy_violation(traj64)
    bd128, bd64 = _bd_violation(ledger128), _bd_violation(ledger64)
    if ev128 > 1e-6:
        ok = False
    if bd128 > 1e-3:
        ok = False
    # both violation measures shrink by >= 3x under refinement (zero stays zero)
    if ev128 > ev64 / 3.0 + 1e-14:
        ok = False
    if bd128 > bd64 / 3.0 + 1e-14:
        ok = False
    _report(4, "energy non-increasing and weighted-entropy inequality along the run",
            ok, f"steps={traj128.step_count}, E-viol={ev128:.2e}, BD-viol={bd128:.2e}")


def test_criterion_05_manufactured_solution_convergence():
    errs = []
    cells = (64, 128, 256)
    for n in cells:
        grid = PeriodicGrid((n,))
        rho_exact, m_exact, forcing = manufactured_forcing(grid, LINEAR, GAMMA)
        cfg = SolverConfig(
            law=LINEAR,
            params=AdmissibilityParams(nu=0.9, gamma=GAMMA, N=1),
            grid=grid,
            t_end=0.01,
            cfl=0.4,
            ledger_stride=10**6,
            limiter="none",  # design-order configuration for smooth fields
            forcing=forcing,
            eps_vac=1e-10,
        )
        traj, _ = run(cfg, State(0.0, rho_exact(0.0), m_exact(0.0)[np.newaxis]))
        errs.append((lp_norm(traj.final_state.rho - rho_exact(0.01), grid, 2),
                     lp_norm(traj.final_state.mom[0] - m_exact(0.01), grid, 2)))
    logs = np.log(np.asarray(cells, dtype=float))
    order_rho = -np.polyfit(logs, np.log([e[0] for e in errs]), 1)[0]
    order_m = -np.polyfit(logs, np.log([e[1] for e in errs]), 1)[0]
    ok = order_rho >= 1.9 and order_m >= 1.9
    _report(5, "forced-run L2 convergence order >= 1.9 for density and momentum",
            ok, f"order_rho={order_rho:.2f}, order_m={order_m:.2f}")


def test_criterion_06_conservation(saint_venant_runs):
    cfg, traj, _ = saint_venant_runs[128]
    grid = cfg.grid
    mass0 = integrate(traj.states[0].rho, grid)
    mass_drift = abs(integrate(traj.final_state.rho, grid) - mass0) / mass0
    mom0 = np.array([integrate(traj.states[0].mom[a], grid) for a in range(2)])
    mom1 = np.array([integrate(traj.final_state.mom[a], grid) for a in range(2)])
    mom_scale = np.linalg.norm(mom0)
    assert mom_scale > 0  # the demo preset carries nonzero mean momentum
    mom_drift = float(np.linalg.norm(mom1 - mom0)) / mom_scale
    ok = mass_drift <= 1e-10 and mom_drift <= 1e-8
    _report(6, "mass and mean momentum conserved along the 2D run",
            ok, f"mass drift {mass_drift:.2e}, momentum drift {mom_drift:.2e}")


def test_criterion_07_vacuum_run(vacuum_run):
    cfg, init, traj, ledger = vacuum_run
    grid = cfg.grid
    eps_vac = 1e-10 * float(np.max(init.rho))
    cell_steps = traj.step_count * grid.n_cells
    ok = np.all(np.isfinite(traj.final_state.rho))
    clamp_frac = traj.clamp_count / cell_steps
    if clamp_frac > 1e-3:
        ok = False
    worst_ratio = 0.0
    for st in traj.states:
        m_total = integrate(np.abs(st.mom[0]), grid)
        v = integrate(np.abs(st.mom[0]) * (st.rho <= eps_vac), grid)
        if m_total > 0:
            worst_ratio = max(worst_ratio, v / m_total)
    if worst_ratio > 1e-8:
        ok = False
    _report(7, "compact-support run completes with dry cells carrying no momentum",
            ok, f"clamped {100 * clamp_frac:.4f}% of cell-steps, worst vacuum ratio {worst_ratio:.2e}")


def test_criterion_08_validator_classification():
    ok = True
    if not validate(LINEAR, AdmissibilityParams(nu=0.9, gamma=GAMMA, N=2)).overall:
        ok = False
    cubic = ViscosityLaw(terms=((1.0, 1.0), (1.0, 3.0)))
    nu_star = find_max_nu(cubic, gamma=GAMMA, N=2)
    if nu_star is None or not validate(
        cubic, AdmissibilityParams(nu=nu_star, gamma=GAMMA, N=2)
    ).overall:
        ok = False
    const_report = validate(ViscosityLaw(constant=1.0),
                            AdmissibilityParams(nu=0.5, gamma=GAMMA, N=2))
    if const_report.overall or const_report.record("(10)").passed:
        ok = False
    sub_report = validate(ViscosityLaw(terms=((1.0, 2.0 / 3.0),)),
                          AdmissibilityParams(nu=0.1, gamma=GAMMA, N=3))
    if sub_report.overall or sub_report.record("(8)").passed:
        ok = False
    growth = validate(LINEAR, AdmissibilityParams(nu=0.5, gamma=3.5, N=3, eps_growth=0.2))
    if growth.overall or growth.record("(12)").passed:
        ok = False
    _report(8, "validator classifies the reference laws exactly as expected",
            ok, f"bisected nu for h=rho+rho^3: {nu_star:.4f}" if nu_star else "")


def test_criterion_09_stability_study():
    grid = PeriodicGrid((256,))
    spec = InitialDataSpec(
        "smooth_bump",
        {"amp": 0.3, "width": 0.3, "u_amp": 0.1, "u_mean": 0.05},
        sigma0=0.04,
        n_max=4,
    )
    cfg = SolverConfig(
        law=LINEAR,
        params=AdmissibilityParams(nu=0.9, gamma=GAMMA, N=1),
        grid=grid,
        t_end=0.02,
        cfl=0.4,
        ledger_stride=20,
    )
    study = run_study(spec, cfg)
    ok = not study.partial and study.metric_axioms_ok
    ratios = []
    for which in ("rho", "u", "m"):
        cons = study.consecutive(which)
        if any(c2 > c1 * (1 + 1e-9) for c1, c2 in zip(cons, cons[1:])):
            ok = False
        if cons[3] > cons[0] / 4.0:
            ok = False
        ratios.append(cons[3] / cons[0])
    worst_bound_ratio = 0.0
    for name, vals in study.uniform_bounds_per_member.items():
        arr = np.asarray(vals)
        ratio = float(arr.max() / max(arr.min(), 1e-300))
        worst_bound_ratio = max(worst_bound_ratio, ratio)
        if ratio > 3.0:
            ok = False
    _report(9, "mollified sequence is Cauchy in all three distances with uniform bounds",
            ok, f"d(3,4)/d(0,1)={max(ratios):.3f}, worst bound ratio {worst_bound_ratio:.2f}")


def test_criterion_10_weak_form_residual(saint_venant_runs):
    cfg64, traj64, _ = saint_venant_runs[64]
    cfg128, traj128, _ = saint_venant_runs[128]
    fields = make_test_fields(2, t_end=0.01, seed=11, count=3)
    orders = []
    ok = True
    for tf in fields:
        r64 = weak_form_residual(traj64, cfg64.grid, LINEAR, GAMMA, tf, cfg64.eps_vac)
        r128 = weak_form_residual(traj128, cfg128.grid, LINEAR, GAMMA, tf, cfg128.eps_vac)
        order = float(np.log2(r64 / r128))
        orders.append(order)
        if order < 1.0:
            ok = False
    _report(10, "weak-form residual refines at first order or better",
            ok, "orders " + ", ".join(f"{o:.2f}" for o in orders))
