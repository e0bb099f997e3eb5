import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdns import diagnostics, identities
from bdns._draws import _Draws
from bdns.diagnostics import _Fields, make_test_fields
from bdns.grid import (
    _QUIET,
    GridError,
    PeriodicGrid,
    State,
    _cutoff,
    _wave_vector,
    div,
    grad,
    integrate,
    load_checkpoint,
    lp_norm,
    save_checkpoint,
    spectral_div,
    spectral_grad,
)
from bdns.identities import _Ctx, gradient_flow_field, manufactured_field
from bdns.viscosity import ViscosityLaw


def random_scalar(grid, seed=0):
    return np.random.default_rng(seed).standard_normal(grid.sizes)


def random_vector(grid, seed=1):
    return np.random.default_rng(seed).standard_normal((grid.dim, *grid.sizes))


# -- grid construction --------------------------------------------------------


def test_grid_basics():
    g = PeriodicGrid((64, 32), (2.0, 1.0))
    assert g.dim == 2
    assert g.spacing == (2.0 / 64, 1.0 / 32)
    assert g.cell_volume == pytest.approx((2.0 / 64) * (1.0 / 32))
    assert g.n_cells == 64 * 32


def test_grid_rejects_bad_shapes():
    with pytest.raises(GridError):
        PeriodicGrid((4,))
    with pytest.raises(GridError):
        PeriodicGrid((8, 8, 8))
    with pytest.raises(GridError):
        PeriodicGrid((16,), (0.0,))


def test_field_shape_checks():
    g = PeriodicGrid((16,))
    with pytest.raises(GridError):
        grad(np.zeros(17), g)
    with pytest.raises(GridError):
        div(np.zeros((2, 16)), g)


# -- centered operators --------------------------------------------------------


def test_grad_of_constant_is_zero():
    g = PeriodicGrid((32,))
    assert np.all(grad(np.full(g.sizes, 3.7), g) == 0.0)


def test_grad_converges_at_second_order():
    errs = []
    for n in (128, 256, 512):
        g = PeriodicGrid((n,))
        x = g.axis_coords(0)
        err = np.max(np.abs(grad(np.sin(2 * np.pi * x), g)[0] - 2 * np.pi * np.cos(2 * np.pi * x)))
        errs.append(err)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_grad_and_div_equal_the_roll_formula_exactly():
    def ddx(f, g, a):
        return (np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)) / (2.0 * g.spacing[a])

    for sizes in ((40,), (16, 24)):
        g = PeriodicGrid(sizes, tuple(0.3 + a for a in range(len(sizes))))
        f = random_scalar(g, seed=9)
        v = random_vector(g, seed=10)
        assert np.array_equal(grad(f, g), np.stack([ddx(f, g, a) for a in range(g.dim)]))
        assert np.array_equal(div(v, g), sum(ddx(v[a], g, a) for a in range(g.dim)))


def test_integration_by_parts_is_exact():
    for sizes in ((64,), (16, 16)):
        g = PeriodicGrid(sizes)
        f = random_scalar(g, seed=5)
        v = random_vector(g, seed=6)
        lhs = integrate(f * div(v, g), g)
        rhs = -integrate(np.sum(grad(f, g) * v, axis=0), g)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_grad_and_div_have_zero_mean():
    g = PeriodicGrid((16, 16))
    f = random_scalar(g, seed=7)
    v = random_vector(g, seed=8)
    assert integrate(div(v, g), g) == pytest.approx(0.0, abs=1e-12)
    for a in range(2):
        assert integrate(grad(f, g)[a], g) == pytest.approx(0.0, abs=1e-12)


# -- spectral operators ---------------------------------------------------------


def test_spectral_grad_near_machine_precision():
    g = PeriodicGrid((64,))
    x = g.axis_coords(0)
    err = np.max(np.abs(spectral_grad(np.sin(2 * np.pi * x), g)[0] - 2 * np.pi * np.cos(2 * np.pi * x)))
    assert err < 1e-10


def test_spectral_div_of_grad_is_lap():
    g = PeriodicGrid((32, 32))
    xs = g.coords()
    f = np.sin(2 * np.pi * xs[0]) * np.cos(4 * np.pi * xs[1])
    lap_f = -20.0 * np.pi**2 * f  # (2 pi)^2 + (4 pi)^2 = 20 pi^2
    assert np.max(np.abs(spectral_div(spectral_grad(f, g), g) - lap_f)) < 1e-10


def test_spectral_constant_field_derivative_zero():
    g = PeriodicGrid((32,))
    assert np.max(np.abs(spectral_grad(np.full(g.sizes, 2.0), g))) < 1e-13


def test_spectral_2d_mixed_mode():
    g = PeriodicGrid((64, 64))
    xs = g.coords()
    f = np.sin(2 * np.pi * (2 * xs[0] + 3 * xs[1]))
    exact = 2 * np.pi * 2 * np.cos(2 * np.pi * (2 * xs[0] + 3 * xs[1]))
    assert np.max(np.abs(spectral_grad(f, g)[0] - exact)) < 1e-9


def complex_spectral_ddx(f, grid, axis):
    """Reference: the derivative through the full complex transform of every
    axis, with the unpaired Nyquist mode zeroed along ``axis``."""
    fh = np.fft.fftn(f)
    n = grid.sizes[axis]
    if n % 2 == 0:
        idx = [slice(None)] * grid.dim
        idx[axis] = n // 2
        fh[tuple(idx)] = 0.0
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[axis])
    shape = [1] * grid.dim
    shape[axis] = n
    return np.real(np.fft.ifftn(1j * k.reshape(shape) * fh))


SPECTRAL_GRIDS = [((16,), (1.0,)), ((15,), (2.0,)), ((16, 16), (1.0, 1.0)),
                  ((12, 20), (2.0, 0.5)), ((9, 16), (1.0, 3.0)), ((16, 9), (0.7, 1.0))]


@pytest.mark.parametrize("sizes,lengths", SPECTRAL_GRIDS)
def test_spectral_operators_match_the_complex_transform(sizes, lengths):
    # white noise carries every mode, the Nyquist mode of even axes included
    g = PeriodicGrid(sizes, lengths)
    f, v = random_scalar(g, seed=3), random_vector(g, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad_f = spectral_grad(f, g)
        div_v = spectral_div(v, g)
    ref_grad = np.stack([complex_spectral_ddx(f, g, a) for a in range(g.dim)])
    ref_div = sum(complex_spectral_ddx(v[a], g, a) for a in range(g.dim))
    for got, ref in [(grad_f, ref_grad), (div_v, ref_div)]:
        assert got.dtype == np.float64 and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=32 * np.finfo(float).eps * np.max(np.abs(ref)))
    assert grad_f.shape == (g.dim, *sizes) and div_v.shape == sizes


def test_spectral_operators_act_on_each_member_of_a_batch():
    g = PeriodicGrid((16, 12))
    f = np.stack([random_scalar(g, seed=5), random_scalar(g, seed=6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = spectral_grad(f, g)
        div_batch = spectral_div(batch, g)
    for b in range(2):
        np.testing.assert_array_equal(batch[:, b], spectral_grad(f[b], g))
        np.testing.assert_array_equal(div_batch[b], spectral_div(batch[:, b], g))


@pytest.mark.parametrize("dim", [1, 2])
def test_identity_context_lap_phi_is_spectral_lap_bit_for_bit(dim):
    law = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))
    ctx = _Ctx(manufactured_field(dim, seed=7 + dim), law, 2.0, PeriodicGrid((32,) * dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(ctx.lap_phi,
                                      spectral_div(spectral_grad(ctx.phi, ctx.grid), ctx.grid))


# -- quadrature -----------------------------------------------------------------


def test_integrate_unit():
    for sizes in ((32,), (16, 16)):
        g = PeriodicGrid(sizes)
        assert integrate(np.ones(g.sizes), g) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_of_sine():
    g = PeriodicGrid((256,))
    x = g.axis_coords(0)
    # int sin^2 = 1/2 exactly (trig polynomial below Nyquist)
    assert lp_norm(np.sin(2 * np.pi * x), g, 2) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_lp_norm_max():
    g = PeriodicGrid((64,))
    f = np.zeros(g.sizes)
    f[10] = -3.5
    assert lp_norm(f, g, np.inf) == 3.5


@given(c=st.floats(-100.0, 100.0), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 6.0]))
@settings(max_examples=40, deadline=None)
def test_lp_norm_homogeneity(c, p):
    g = PeriodicGrid((32,))
    f = random_scalar(g, seed=11)
    assert lp_norm(c * f, g, p) == pytest.approx(abs(c) * lp_norm(f, g, p), rel=1e-10, abs=1e-12)


def test_lp_norm_rejects_small_p():
    g = PeriodicGrid((16,))
    with pytest.raises(ValueError):
        lp_norm(np.ones(g.sizes), g, 0.5)


@pytest.mark.parametrize("p", [float("nan"), -float("inf")])
def test_lp_norm_rejects_a_p_that_is_not_a_number_or_below_one(p):
    # NaN passed both guards (neither infinite nor below 1) and gave 1.0 for
    # a field of ones
    g = PeriodicGrid((16,))
    for f in (np.ones(g.sizes), np.arange(16.0)):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(f, g, p)


# -- vacuum cutoff ----------------------------------------------------------------


def fields(rho, mom, g, eps_vac=1e-10):
    return _Fields(State(0.0, rho, mom), g, None, None, eps_vac)


def test_cutoff_uniform_flow():
    g = PeriodicGrid((16, 16))
    rho = 4.0 * np.ones(g.sizes)
    mom = np.stack([2.0 * np.ones(g.sizes), np.zeros(g.sizes)])
    f = fields(rho, mom, g)
    assert np.all(f.u[0] == 0.5) and np.all(f.u[1] == 0.0)
    assert np.all(f.sqrt_rho_u[0] == 1.0) and np.all(f.sqrt_rho_u[1] == 0.0)


def test_cutoff_vacuum_conventions():
    g = PeriodicGrid((16,))
    rho = np.ones(g.sizes)
    mom = np.ones((1, *g.sizes))
    rho[3] = 0.0
    mom[0, 3] = 0.0  # clean vacuum
    rho[5] = 1e-20
    mom[0, 5] = 1e-15  # momentum on a sub-cutoff density
    f = fields(rho, mom, g)
    for q in (f.u, f.sqrt_rho_u):
        assert q[0, 3] == 0.0 and q[0, 5] == 0.0
        assert np.all(np.delete(q[0], [3, 5]) == 1.0)
    assert np.array_equal(_cutoff(mom, rho, np.logical_not(rho > 1e-10)), f.u)


def test_cutoff_scales_linearly():
    g = PeriodicGrid((32,))
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * g.axis_coords(0))
    mom = (0.3 * np.cos(2 * np.pi * g.axis_coords(0)))[np.newaxis]
    rho[::5] = 0.0
    f1, f4 = fields(rho, mom, g), fields(rho, 4.0 * mom, g)
    assert np.array_equal(f4.u, 4.0 * f1.u)
    assert np.array_equal(f4.sqrt_rho_u, 4.0 * f1.sqrt_rho_u)


def test_cutoff_matches_the_quotient_on_wet_cells_bit_for_bit():
    # every pair of these numerators and denominators: zeros of both signs,
    # NaN, infinities, subnormals, extremes and plain values; a batch of two
    # numerators over one row of denominators
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e-300, 0.5,
              -1.0, 3.0, 1e300, -1.7976931348623157e308]
    num, den = (a.ravel() for a in np.meshgrid(values, values))
    num = np.stack([num, num[::-1]])
    rng = np.random.default_rng(3)
    for wet in (den > 1e-10, den > 0.0, rng.random(den.size) < 0.5):
        with np.errstate(all="ignore"):
            want = np.where(wet, num / den, 0.0)
        dry = np.logical_not(wet)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cutoff(num, den, dry)  # the allocating form holds its own error state
            out = np.full(num.shape, np.nan)  # whatever the buffer held before
            in_place = num.copy()
            with np.errstate(**_QUIET):  # into a buffer, the caller holds it
                assert _cutoff(num, den, dry, out) is out
                _cutoff(in_place, den, dry, in_place)
        for a in (got, out, in_place):
            assert a.tobytes() == want.tobytes()


def test_fields_require_positive_cutoff():
    g = PeriodicGrid((16,))
    with pytest.raises(ValueError):
        fields(np.ones(g.sizes), np.zeros((1, 16)), g, eps_vac=0.0)


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    g = PeriodicGrid((16, 24), (1.0, 2.0))
    rng = np.random.default_rng(13)
    state = State(0.625, rng.random(g.sizes), rng.random((2, *g.sizes)))
    path = tmp_path / "state.bdns"
    save_checkpoint(path, state, g)
    loaded, g2 = load_checkpoint(path)
    assert g2 == g
    assert loaded.t == state.t
    assert np.array_equal(loaded.rho, state.rho)
    assert np.array_equal(loaded.mom, state.mom)


def test_checkpoint_magic_bytes(tmp_path):
    g = PeriodicGrid((16,))
    path = tmp_path / "state.bdns"
    save_checkpoint(path, State(0.0, np.ones(g.sizes), np.zeros((1, 16))), g)
    assert open(path, "rb").read(4) == b"BDNS"
    bad = tmp_path / "bad.bdns"
    bad.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(bad)


class _NoWaveVectorDraw:
    """A generator whose uniform draws are bdns's and whose integer draws,
    those of wave vectors, fail the test instead of looping."""

    def __init__(self, seed=0):
        self._rng = _Draws(seed)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        raise AssertionError("a wave vector drawn with no nonzero vector to draw")


@pytest.mark.parametrize("kmax", [0, -1])
def test_wave_vector_refuses_kmax_below_one_before_any_draw(kmax):
    with pytest.raises(ValueError, match=f"kmax must be at least 1, got {kmax}"):
        _wave_vector(_NoWaveVectorDraw(), 1, kmax)


@pytest.mark.parametrize("make", [
    lambda kmax: make_test_fields(1, 1.0, kmax=kmax),
    lambda kmax: manufactured_field(1, kmax=kmax),
    lambda kmax: gradient_flow_field(1, kmax=kmax),
], ids=["make_test_fields", "manufactured_field", "gradient_flow_field"])
@pytest.mark.parametrize("kmax", [0, -1])
def test_field_generators_refuse_kmax_below_one(monkeypatch, make, kmax):
    # with kmax = 0 the only wave vector is zero: drawing until one is
    # nonzero would never end
    for module in (diagnostics, identities):
        monkeypatch.setattr(module, "_Draws", _NoWaveVectorDraw)
    with pytest.raises(ValueError, match=f"kmax must be at least 1, got {kmax}"):
        make(kmax)
