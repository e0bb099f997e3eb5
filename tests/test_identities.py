import json
import math
import weakref

import numpy as np
import pytest

import bdns.identities as identities
from bdns.grid import PeriodicGrid, spectral_div, spectral_grad
from bdns.identities import (
    IdentityReport,
    ManufacturedField,
    fitted_order,
    gradient_flow_field,
    manufactured_field,
    run_all_identities,
)
from bdns.viscosity import TamperedLaw, ViscosityLaw

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
MIXED = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))

GRIDS_1D = [32, 64, 128]
GRIDS_2D = [32, 64]


def constant_field(dim, rho=1.0, u=0.5):
    # one microscopic mode keeps the construction honest while staying
    # effectively constant
    return ManufacturedField(
        dim=dim,
        rho_mean=rho,
        rho_modes=((0.0, tuple(1 if i == 0 else 0 for i in range(dim)), 0.0),),
        u_mean=tuple(u for _ in range(dim)),
        u_modes=tuple(((0.0, tuple(1 if i == 0 else 0 for i in range(dim)), 0.0),) for _ in range(dim)),
    )


def certify(mf, law, grids, delta=0.05, nu=0.9):
    """The reports of run_all_identities by identity name, the moment
    balance's as "moment"."""
    *steps, moment = run_all_identities(mf, law, 2.0, grids, delta=delta, nu=nu)
    return {**{rep.identity: rep for rep in steps}, "moment": moment}


def certify_one(mf, law, grids, name):
    """The report of one derivation step's body alone, for a field outside
    the moment check's domain (its speed vanishes somewhere)."""
    return identities._certify(mf, law, 2.0, grids, [(name, getattr(identities, f"_{name}"))])[0]


# -- manufactured fields ---------------------------------------------------------


def test_manufactured_field_positivity_and_band_limit():
    mf = manufactured_field(2, seed=4)
    assert mf.rho_min > 0
    assert mf.band_limit <= 2
    grid_rho, grid_u = mf.evaluate(__import__("bdns").grid.PeriodicGrid((32, 32)))
    assert grid_rho.min() >= mf.rho_min - 1e-12


def test_manufactured_field_is_reproducible():
    a = manufactured_field(1, seed=9)
    b = manufactured_field(1, seed=9)
    assert a == b


def test_manufactured_field_rejects_vacuum_touching_density():
    with pytest.raises(ValueError):
        ManufacturedField(1, 0.2, ((0.5, (1,), 0.0),), (1.0,), (((0.1, (1,), 0.0),),))


def test_band_limit_guard():
    mf = manufactured_field(1, seed=0, kmax=4)
    with pytest.raises(ValueError, match="band limit"):
        run_all_identities(mf, LINEAR, 2.0, [16], nu=0.9)


# -- trivial cases -----------------------------------------------------------------


def test_constant_field_gives_zero_rates():
    mf = constant_field(1)
    rep = certify(mf, LINEAR, [32])["energy_step"]
    t = rep.terms[0]
    assert abs(t["d_dt_kinetic"]) < 1e-12 and abs(t["visc_h"]) < 1e-24


def test_step2_trivial_when_density_flat():
    mf = ManufacturedField(
        1, 1.0, ((0.0, (1,), 0.0),), (1.0,), (((0.3, (2,), 0.1),),)
    )
    rep = certify(mf, LINEAR, [32, 64])["grad_phi_transport"]
    assert all(abs(t["lhs"]) < 1e-13 for t in rep.terms)
    assert rep.verdict


def test_step3_trivial_when_velocity_zero():
    mf = ManufacturedField(
        1, 1.0, ((0.3, (1,), 0.2),), (0.0,), (((0.0, (1,), 0.0),),)
    )
    rep = certify_one(mf, LINEAR, [32, 64], "cross_term_expansion")
    assert rep.verdict
    # with u = 0 the g/h pairings carry no velocity: both sides vanish
    assert all(abs(t["g_lhs"]) < 1e-12 and abs(t["h_lhs"]) < 1e-12 for t in rep.terms)


# -- equality residuals -------------------------------------------------------------


@pytest.mark.parametrize("dim,grids", [(1, GRIDS_1D), (2, GRIDS_2D)])
@pytest.mark.parametrize("law", [LINEAR, MIXED], ids=["h=rho", "h=rho+rho2"])
def test_identity_residuals_below_floor(dim, grids, law):
    mf = manufactured_field(dim, seed=7 + dim)
    reports = run_all_identities(mf, law, 2.0, grids, nu=0.9 if law is LINEAR else 0.3)
    for rep in reports[:4]:  # the four derivation steps before the moment balance
        for name, series in rep.residuals.items():
            assert series[-1] < 1e-8, (rep.identity, name, series)
        assert rep.verdict, rep.identity


@pytest.mark.parametrize("seed", [3, 11, 26])
def test_identities_hold_when_terms_vanish_by_orthogonality(seed):
    # the modes of these 2D fields make every term of the transport identity,
    # or of a pairing, vanish: its terms and its defect are round-off (the
    # 1D case is the verify-identities test of the command line)
    mf = manufactured_field(2, seed=seed)
    reports = run_all_identities(mf, LINEAR, 2.0, [32, 64, 128], nu=0.9)
    assert [r.identity for r in reports if not r.verdict] == []
    tampered = run_all_identities(mf, TamperedLaw(LINEAR, 1.0), 2.0, [32, 64, 128], nu=0.9)
    assert [r.identity for r in tampered if not r.verdict] == ["bd_combination"]


@pytest.mark.parametrize("dim", [1, 2])
def test_certifier_sweep_with_the_command_line_defaults(dim):
    # the verify-identities defaults (h = rho, nu 0.9, grids 32/64/128) on the
    # fields of seeds 0-31 and 2007; seed 2007 in 1D is the field whose terms
    # vanish by orthogonality
    tampered_law = TamperedLaw(LINEAR, 1.0)
    for seed in [*range(32), 2007]:
        mf = manufactured_field(dim, seed=seed + dim)
        true = run_all_identities(mf, LINEAR, 2.0, [32, 64, 128], nu=0.9)
        assert [r.identity for r in true if not r.verdict] == [], seed
        tampered = run_all_identities(mf, tampered_law, 2.0, [32, 64, 128], nu=0.9)
        assert [r.identity for r in tampered if not r.verdict] == ["bd_combination"], seed


def test_one_dimensional_transpose_contraction_degenerates():
    # in 1D the transpose contraction equals |grad u|^2 identically
    mf = manufactured_field(1, seed=3)
    rep = certify(mf, LINEAR, [32, 64])["bd_combination"]
    assert all(abs(s) < 1e-13 for s in rep.slacks["symmetry_slack"])


def test_gradient_flow_symmetry_slack_vanishes():
    gf = gradient_flow_field(2, seed=5)
    rep = certify_one(gf, LINEAR, [32, 64], "bd_combination")
    assert all(abs(s) < 1e-10 for s in rep.slacks["symmetry_slack"])


def test_rotational_flow_has_strictly_positive_slack():
    # u = (-sin(2 pi y), sin(2 pi x)) is divergence-free with asymmetric gradient
    mf = ManufacturedField(
        2,
        1.0,
        ((0.2, (1, 1), 0.3),),
        (0.0, 0.0),
        (
            ((-1.0, (0, 1), 0.5 * np.pi),),
            ((1.0, (1, 0), 0.5 * np.pi),),
        ),
    )
    rep = certify_one(mf, LINEAR, [32, 64], "bd_combination")
    assert all(s > 0.1 for s in rep.slacks["symmetry_slack"])
    assert all(r < 1e-6 for r in rep.residuals["step4_chain"])


def test_tampered_pair_residual_does_not_converge():
    bad = TamperedLaw(LINEAR, 1.0)
    for dim, grids in ((1, GRIDS_1D), (2, GRIDS_2D)):
        mf = manufactured_field(dim, seed=7 + dim)
        rep = certify(mf, bad, grids)["bd_combination"]
        assert all(r > 1e-2 for r in rep.residuals["step4_chain"])
        assert not rep.verdict


# -- moment derivation -----------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_moment_equality_and_slacks(delta):
    for dim, grids in ((1, GRIDS_1D), (2, GRIDS_2D)):
        mf = manufactured_field(dim, seed=7 + dim)
        rep = certify(mf, LINEAR, grids, delta=delta)["moment"]
        assert all(r < 1e-8 for r in rep.residuals["equality"])
        for name, series in rep.slacks.items():
            assert all(s >= -1e-8 for s in series), (name, series)
        assert rep.verdict


def test_moment_constant_velocity_trivial():
    # uniform speed: viscous terms vanish and the moment reduces to a
    # multiple of the conserved mass
    mf = ManufacturedField(1, 1.0, ((0.3, (1,), 0.0),), (2.0,), (((0.0, (1,), 0.0),),))
    rep = certify(mf, LINEAR, [32])["moment"]
    t = rep.terms[0]
    assert abs(t["v_h"]) < 1e-12 and abs(t["d_dt_moment"]) < 1e-10


def test_moment_small_delta_matches_energy_identity():
    mf = manufactured_field(1, seed=8)
    reports = certify(mf, LINEAR, [64], delta=1e-6)
    re, rm = reports["energy_step"], reports["moment"]
    dk = re.terms[0]["d_dt_kinetic"]
    dm = rm.terms[0]["d_dt_moment"]
    assert abs(dm - dk) <= 1e-4 * abs(dk)


def test_moment_rejects_bad_delta():
    mf = manufactured_field(1, seed=8)
    with pytest.raises(ValueError, match="nu/4"):
        certify(mf, LINEAR, [32], delta=0.5)
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        certify(mf, LINEAR, [32], delta=2.5)


def test_moment_needs_nonvanishing_speed():
    mf = ManufacturedField(1, 1.0, ((0.2, (1,), 0.0),), (0.3,), (((0.3, (1,), 0.0),),))
    with pytest.raises(ValueError, match="bounded away from zero"):
        certify(mf, LINEAR, [32])


# -- spectral decay and reports -----------------------------------------------------------


def test_spectral_decay_until_floor():
    # the log-density weight of h = rho + rho^2 is transcendental, so the
    # residual is visibly above floor on the coarsest grid and must collapse
    mf = manufactured_field(2, seed=9, rho_amp=0.45)
    rep = certify(mf, MIXED, [16, 32, 64], nu=0.3)["grad_phi_transport"]
    series = rep.residuals["equality"]
    for a, b in zip(series, series[1:]):
        assert b <= max(a * 1e-2, 1e-11)


def test_fitted_order_on_synthetic_series():
    assert fitted_order([32, 64, 128], [1e-2, 1e-4, 1e-6]) == pytest.approx(
        np.log(1e4) / np.log(4.0), rel=1e-6
    )


def test_grid_sequence_must_increase():
    mf = manufactured_field(1, seed=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        certify(mf, LINEAR, [64, 32])


def test_report_json_schema():
    mf = manufactured_field(1, seed=1)
    rep = certify(mf, LINEAR, [32, 64])["energy_step"]
    payload = rep.to_json()
    assert set(payload) == {"identity", "grids", "residuals", "slacks", "order", "verdict"}
    json.dumps(payload)  # serializable


def test_run_all_identities_bundle():
    mf = manufactured_field(1, seed=2)
    reports = run_all_identities(mf, LINEAR, 2.0, [32, 64], delta=0.05, nu=0.9)
    assert len(reports) == 5
    assert all(r.verdict for r in reports)


def test_run_all_identities_shares_one_context_per_grid(monkeypatch):
    built = []

    class CountingCtx(identities._Ctx):
        def __init__(self, *args):
            built.append(args[-1].sizes)
            super().__init__(*args)

    grids = [32, 64]
    mf = manufactured_field(2, seed=9)
    # each body certified alone, on a spectral context of its own
    checks = [(name, getattr(identities, f"_{name}")) for name in (
        "energy_step", "grad_phi_transport", "cross_term_expansion", "bd_combination")]
    checks.append(identities._moment_check(mf, MIXED, 2.0, 0.05, 0.3))
    singles = [identities._certify(mf, MIXED, 2.0, grids, [check])[0] for check in checks]
    monkeypatch.setattr(identities, "_Ctx", CountingCtx)
    reports = run_all_identities(mf, MIXED, 2.0, grids, delta=0.05, nu=0.3)
    assert built == [(n, n) for n in grids]
    assert [r.to_json() for r in reports] == [r.to_json() for r in singles]


def test_each_grids_context_is_freed_before_the_next_one_is_built(monkeypatch):
    # a context holds some thirty fields of its grid: the finest grid's is
    # built with no coarser one alive
    previous, alive = [], []

    class WatchedCtx(identities._Ctx):
        def __init__(self, *args):
            alive.append([ref() is not None for ref in previous])
            super().__init__(*args)
            previous.append(weakref.ref(self))

    monkeypatch.setattr(identities, "_Ctx", WatchedCtx)
    run_all_identities(manufactured_field(2, seed=9), MIXED, 2.0, [32, 64, 128], nu=0.3)
    assert alive == [[], [False], [False, False]]


def test_one_forward_and_one_inverse_transform_per_spectral_derivative(monkeypatch):
    # ten spectral derivatives per grid, whatever the number of stacked
    # fields: grad u, grad phi, lap phi, grad p, div m, div(h grad u),
    # grad(g div u), div(rho u x u), dt grad phi and grad h
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kw):
            calls[_name] += 1
            return _fft(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    run_all_identities(manufactured_field(2, seed=9), MIXED, 2.0, [64], nu=0.3)
    assert calls["rfftn"] <= 10 and calls["irfftn"] <= 10, calls


def test_tensor_terms_and_contractions_match_per_component_loops(monkeypatch):
    # a non-square grid and a gradient with no symmetry, so that a
    # transposed index changes every term
    mf = manufactured_field(2, seed=5)
    c = identities._Ctx(mf, MIXED, 2.0, PeriodicGrid((32, 48)))
    grid, dim, u, w = c.grid, c.dim, c.u, c.w

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    gu = np.stack([spectral_grad(u[j], grid) for j in range(dim)], axis=1)  # [i, j] = d_i u_j
    close(c.grad_u, gu)
    close(c.visc_h_term, np.stack([spectral_div(c.h * gu[:, j], grid) for j in range(dim)]))
    close(c.conv_term, np.stack([spectral_div(c.rho * u * u[j], grid) for j in range(dim)]))
    grad_h = spectral_grad(c.h, grid)
    quad, mix, contraction, proj, cross = (np.zeros(grid.sizes) for _ in range(5))
    for i in range(dim):
        proj += sum(u[j] * gu[i, j] for j in range(dim)) ** 2
        for j in range(dim):
            quad += gu[i, j] * w[i] * w[j]
            mix += grad_h[i] * gu[j, i] * w[j]
            contraction += gu[i, j] * gu[j, i]
            cross += u[i] * u[j] * gu[i, j]

    contracted, real_einsum = [], np.einsum

    def einsum(*args, **kw):
        contracted.append(real_einsum(*args, **kw))
        return contracted[-1]

    monkeypatch.setattr(np, "einsum", einsum)
    identities._grad_phi_transport(c)
    identities._cross_term_expansion(c)
    identities._bd_combination(c)
    assert len(contracted) == 3
    for got, want in zip(contracted, (quad, mix, contraction)):
        close(got, want)
    delta = 0.05
    _, _, terms = identities._moment_balance(c, delta, 0.3)
    weight = np.sqrt(np.sum(u**2, axis=0)) ** (delta - 2.0)
    close(np.array(terms["v_h_delta"]), np.array(delta * c.int_(c.h * weight * proj)))
    close(np.array(terms["v_g_delta"]), np.array(delta * c.int_(c.g * weight * c.div_u * cross)))


def test_moment_prechecks_run_before_grid_work(monkeypatch):
    def no_grid_work(*args):
        raise AssertionError("grid work before the moment prechecks")

    monkeypatch.setattr(identities, "_Ctx", no_grid_work)
    mf = manufactured_field(1, seed=2)
    with pytest.raises(ValueError, match="nu/4"):
        run_all_identities(mf, LINEAR, 2.0, [32, 64], delta=0.5, nu=0.9)


@pytest.mark.parametrize("grids", [[64, 32], [32, 32], []])
def test_grid_sequence_is_checked_before_any_grid_work(monkeypatch, grids):
    # a sequence that is empty or not strictly increasing certifies no grid first
    def no_grid_work(*args):
        raise AssertionError("grid work before the grid sequence is checked")

    monkeypatch.setattr(identities, "_Ctx", no_grid_work)
    mf = manufactured_field(1, seed=2)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_all_identities(mf, LINEAR, 2.0, grids, nu=0.9)
    with pytest.raises(ValueError, match="strictly increasing"):
        identities._certify(mf, LINEAR, 2.0, grids, [("energy_step", identities._energy_step)])


@pytest.mark.parametrize("make", [manufactured_field, gradient_flow_field])
@pytest.mark.parametrize("dim", [0, 3, -1])
def test_field_of_a_dimension_other_than_one_or_two_is_refused_before_any_draw(
        monkeypatch, make, dim):
    # a wave vector of no entries is never nonzero: its draw would never end
    def no_draw(*args):
        raise AssertionError("a wave vector drawn for a dimension that is refused")

    monkeypatch.setattr(identities, "_wave_vector", no_draw)
    with pytest.raises(ValueError, match=f"dim must be 1 or 2, got {dim}"):
        make(dim, seed=1)


def test_empty_grid_sequence_is_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        run_all_identities(manufactured_field(1, seed=1), LINEAR, 2.0, [], nu=0.9)


@pytest.mark.parametrize("residuals, slacks", [
    ({"r": [1e-3, math.nan]}, {}),
    ({"r": [math.nan, 1e-14]}, {}),
    ({"r": [1e-3, math.inf]}, {}),
    ({"r": [1e-14, 1e-15]}, {"s": [0.1, math.nan]}),
])
def test_non_finite_residual_or_slack_fails_the_verdict(residuals, slacks):
    # a converging order must not save a non-finite residual either
    rep = IdentityReport("x", [32, 64], residuals=residuals, slacks=slacks,
                         orders={name: 10.0 for name in residuals})
    assert not rep.verdict
    assert IdentityReport("x", [32, 64], residuals={"r": [1e-14, 1e-15]},
                          slacks={"s": [0.1, 0.0]}).verdict
