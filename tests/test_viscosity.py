import ast
import copy
import inspect
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdns.viscosity import (
    AdmissibilityParams,
    DomainError,
    LawError,
    TamperedLaw,
    ViscosityLaw,
    default_sample_grid,
    find_max_nu,
    growth_envelope,
    validate,
)

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
QUADRATIC = ViscosityLaw(terms=((1.0, 2.0),))
MIXED = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))


# -- evaluation -------------------------------------------------------------


def test_g_vanishes_for_linear_law():
    for rho in (0.0, 0.5, 2.0, 17.3):
        assert LINEAR.g(rho) == 0.0


def test_g_constant_law_is_negated_constant():
    law = ViscosityLaw(constant=2.5)
    for rho in (0.0, 1.0, 10.0):
        assert law.g(rho) == -2.5


def test_g_quadratic_law():
    # rho*h' - h = 3*6 - 9; finite differences of h at rho=3 agree to 1e-6
    assert QUADRATIC.g(3.0) == pytest.approx(9.0, abs=1e-12)


def test_negative_density_rejected():
    with pytest.raises(DomainError):
        LINEAR.h(-1.0)
    with pytest.raises(DomainError):
        LINEAR.g(np.array([1.0, -0.5]))


def test_phi_linear_law_is_log():
    assert LINEAR.phi(math.e, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_phi_quadratic_law():
    # phi = 2(rho - 1) for h = rho^2
    assert QUADRATIC.phi(3.0, 1.0) == pytest.approx(4.0, rel=1e-14)


def test_phi_mixed_law_against_quadrature_oracle():
    # adaptive quadrature of (1 + 2s)/s over [1, 2]
    assert MIXED.phi(2.0, 1.0) == pytest.approx(2.6931471805599454, rel=1e-13)


def test_phi_additivity_and_reference_offset():
    a, b, c = 0.7, 2.3, 5.1
    assert MIXED.phi(a, c) == pytest.approx(MIXED.phi(a, b) + MIXED.phi(b, c), rel=1e-12)
    # differences of phi do not depend on the reference density
    d1 = MIXED.phi(a, 1.0) - MIXED.phi(b, 1.0)
    d2 = MIXED.phi(a, 0.2) - MIXED.phi(b, 0.2)
    assert d1 == pytest.approx(d2, rel=1e-12)


def test_phi_rejects_vacuum():
    with pytest.raises(DomainError):
        LINEAR.phi(0.0, 1.0)


def test_psi_linear_law():
    assert LINEAR.psi(4.0) == pytest.approx(4.0, rel=1e-14)
    assert LINEAR.psi(0.0) == 0.0


def test_psi_quadratic_law_against_quadrature_oracle():
    # adaptive quadrature of 2s/sqrt(s) over [0, 1]
    assert QUADRATIC.psi(1.0) == pytest.approx(1.3333333333333333, rel=1e-13)


def test_psi_divergent_exponent_is_law_error():
    law = ViscosityLaw(terms=((1.0, 0.4),))
    with pytest.raises(LawError):
        law.psi(1.0)


def test_constructor_rejects_bad_terms():
    with pytest.raises(LawError):
        ViscosityLaw(terms=((-1.0, 1.0),))
    with pytest.raises(LawError):
        ViscosityLaw(terms=((1.0, 0.0),))
    with pytest.raises(LawError):
        ViscosityLaw(terms=((1.0, 1.0),), constant=1.0)
    with pytest.raises(LawError):
        ViscosityLaw()


def test_json_round_trip():
    assert ViscosityLaw.from_json({"terms": [[1, 1], [0.5, 3]]}).terms == ((1.0, 1.0), (0.5, 3.0))
    assert ViscosityLaw.from_json({"constant": 2.0}).constant == 2.0
    assert ViscosityLaw.from_json(MIXED.to_json()) == MIXED


# -- structural properties ---------------------------------------------------


@given(
    a1=st.floats(0.1, 5.0),
    a2=st.floats(0.0, 5.0),
    b2=st.floats(1.0, 4.0),
    rho=st.floats(1e-6, 1e6),
)
@settings(max_examples=100, deadline=None)
def test_structural_relation_is_exact(a1, a2, b2, rho):
    law = ViscosityLaw(terms=((a1, 1.0), (a2, b2)))
    lhs = law.g(rho) + law.h(rho)
    rhs = rho * law.h_prime(rho)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


def test_phi_psi_chain_consistency():
    rng = np.random.default_rng(42)
    rhos = rng.uniform(0.05, 20.0, size=100)
    eps = 1e-6
    for law in (LINEAR, MIXED, QUADRATIC):
        dphi = (law.phi(rhos + eps, 1.0) - law.phi(rhos - eps, 1.0)) / (2 * eps)
        np.testing.assert_allclose(dphi, law.h_prime(rhos) / rhos, rtol=1e-7)
        dpsi = (law.psi(rhos + eps) - law.psi(rhos - eps)) / (2 * eps)
        np.testing.assert_allclose(dpsi, law.h_prime(rhos) / np.sqrt(rhos), rtol=1e-7)


def test_log_derivative_bounds_for_validated_law():
    # validated laws obey (N-1+nu)/(N rho) <= h'/h <= (N-1+1/nu)/(N rho)
    params = AdmissibilityParams(nu=0.2, gamma=2.0, N=2)
    law = ViscosityLaw(terms=((1.0, 1.0), (0.5, 3.0)))
    assert validate(law, params).overall
    rhos = np.logspace(-6, 6, 200)
    ratio = law.h_prime(rhos) / law.h(rhos)
    lo = (params.N - 1 + params.nu) / (params.N * rhos)
    hi = (params.N - 1 + 1 / params.nu) / (params.N * rhos)
    assert np.all(ratio >= lo * (1 - 1e-12))
    assert np.all(ratio <= hi * (1 + 1e-12))


@given(
    a2=st.floats(0.0, 3.0),
    b2=st.floats(1.0, 3.5),
    a3=st.floats(0.0, 3.0),
    b3=st.floats(1.0, 3.5),
)
@settings(max_examples=25, deadline=None)
def test_power_combinations_admit_some_nu(a2, b2, a3, b3):
    # every positive combination that includes a linear term validates for
    # some nu found by bisection
    law = ViscosityLaw(terms=((1.0, 1.0), (a2, b2), (a3, b3)))
    nu = find_max_nu(law, gamma=2.0, N=2)
    assert nu is not None and nu > 0.0
    params = AdmissibilityParams(nu=nu, gamma=2.0, N=2)
    assert validate(law, params).overall


# -- validator classifications ----------------------------------------------


def test_validate_linear_law_passes():
    report = validate(LINEAR, AdmissibilityParams(nu=0.9, gamma=2.0, N=2))
    assert report.overall
    assert all(r.passed for r in report.records if r.applicable)


def test_validate_constant_law_fails_combination_condition():
    report = validate(ViscosityLaw(constant=1.0), AdmissibilityParams(nu=0.5, gamma=2.0, N=2))
    assert not report.overall
    rec = report.record("(10)")
    assert not rec.passed
    assert rec.margin < 0


def test_validate_sublinear_law_fails_slope_condition_at_large_density():
    report = validate(
        ViscosityLaw(terms=((1.0, 2.0 / 3.0),)),
        AdmissibilityParams(nu=0.1, gamma=2.0, N=3),
    )
    rec = report.record("(8)")
    assert not rec.passed
    assert rec.worst_rho == pytest.approx(1e6)


def test_validate_growth_condition():
    law = LINEAR
    # gamma = 3.5, N = 3: leading exponent 1 passes iff 1 >= gamma/3 + eps
    bad = validate(law, AdmissibilityParams(nu=0.5, gamma=3.5, N=3, eps_growth=0.2))
    assert not bad.record("(12)").passed
    assert not bad.overall
    # inapplicable when gamma < 3
    ok = validate(law, AdmissibilityParams(nu=0.5, gamma=2.0, N=3, eps_growth=0.2))
    assert not ok.record("(12)").applicable
    assert ok.overall


def test_validate_rejects_empty_grid():
    with pytest.raises(ValueError):
        validate(LINEAR, AdmissibilityParams(nu=0.9, gamma=2.0, N=2), np.array([]))


def test_report_json_shape():
    report = validate(LINEAR, AdmissibilityParams(nu=0.9, gamma=2.0, N=2))
    payload = report.to_json()
    assert payload["overall"] is True
    for rec in payload["conditions"]:
        assert {"condition", "pass", "worst_rho", "margin"} <= set(rec)


def test_admissibility_params_ranges():
    with pytest.raises(ValueError):
        AdmissibilityParams(nu=0.0, gamma=2.0, N=2)
    with pytest.raises(ValueError):
        AdmissibilityParams(nu=1.0, gamma=2.0, N=2)
    with pytest.raises(ValueError):
        AdmissibilityParams(nu=0.5, gamma=1.0, N=2)
    with pytest.raises(ValueError):
        AdmissibilityParams(nu=0.5, gamma=2.0, N=4)


# -- growth envelope ---------------------------------------------------------


def test_envelope_calibration_point():
    params = AdmissibilityParams(nu=0.9, gamma=2.0, N=2)
    lo, hi = growth_envelope(LINEAR, params, 1.0)
    assert lo == 1.0 and hi == 1.0


def test_envelope_exponents_above_one():
    params = AdmissibilityParams(nu=0.9, gamma=2.0, N=2)
    lo, hi = growth_envelope(LINEAR, params, 4.0)
    assert lo == pytest.approx(4.0 ** (0.5 + 0.45), rel=1e-14)
    assert hi == pytest.approx(4.0 ** (0.5 + 1.0 / 1.8), rel=1e-14)
    assert lo <= 4.0 <= hi


def test_envelope_exponents_below_one():
    params = AdmissibilityParams(nu=0.5, gamma=2.0, N=3)
    lo, hi = growth_envelope(LINEAR, params, 0.25)
    assert lo == pytest.approx(0.25 ** (2.0 / 3.0 + 2.0 / 3.0), rel=1e-14)
    assert hi == pytest.approx(0.25 ** (2.0 / 3.0 + 1.0 / 6.0), rel=1e-14)
    assert lo <= 0.25 <= hi


def test_envelope_brackets_validated_law():
    params = AdmissibilityParams(nu=0.2, gamma=2.0, N=2)
    law = ViscosityLaw(terms=((1.0, 1.0), (0.5, 3.0)))
    assert validate(law, params).overall
    rhos = default_sample_grid()
    lo, hi = growth_envelope(law, params, rhos)
    h = law.h(rhos)
    assert np.all(lo <= h * (1 + 1e-12))
    assert np.all(h <= hi * (1 + 1e-12))


def test_envelope_rejects_vacuum():
    with pytest.raises(DomainError):
        growth_envelope(LINEAR, AdmissibilityParams(nu=0.9, gamma=2.0, N=2), 0.0)


# -- bisection and tampering ---------------------------------------------------


def test_find_max_nu_for_cubic_mix():
    law = ViscosityLaw(terms=((1.0, 1.0), (1.0, 3.0)))
    nu = find_max_nu(law, gamma=2.0, N=2)
    # upper combination bound forces nu <= 1/5 for h = rho + rho^3 in 2D
    assert nu == pytest.approx(0.2, abs=1e-3)


def test_find_max_nu_infeasible_for_constant_law():
    assert find_max_nu(ViscosityLaw(constant=1.0), gamma=2.0, N=2) is None


def test_find_max_nu_takes_its_eps_growth_default_from_admissibility_params():
    # the growth margin's default is written once, on AdmissibilityParams:
    # find_max_nu names that field instead of repeating its value
    default = inspect.signature(find_max_nu).parameters["eps_growth"].default
    assert default == AdmissibilityParams.__dataclass_fields__["eps_growth"].default
    (fn,) = ast.parse(inspect.getsource(find_max_nu)).body
    defaults = dict(zip((a.arg for a in reversed(fn.args.args)), reversed(fn.args.defaults)))
    assert ast.unparse(defaults["eps_growth"]) == "AdmissibilityParams.eps_growth"


def test_tampered_law_breaks_structural_relation():
    bad = TamperedLaw(LINEAR, 1.0)
    assert bad.g(3.0) == 1.0
    assert bad.h(3.0) == LINEAR.h(3.0)
    assert bad.g(3.0) + bad.h(3.0) != pytest.approx(3.0 * bad.h_prime(3.0))
    # what the wrapper does not define is its base law's, on a copy too
    for law in (bad, copy.deepcopy(bad), pickle.loads(pickle.dumps(bad))):
        assert (law.phi(3.0), law.psi(3.0)) == (LINEAR.phi(3.0), LINEAR.psi(3.0))
        assert law.max_exponent() == 1.0 and law.g(3.0) == 1.0


def test_validate_tampered_law_reads_its_base_law_exponent():
    params = AdmissibilityParams(nu=0.5, gamma=3.5, N=3)
    for base in (LINEAR, MIXED, ViscosityLaw(constant=2.5)):
        rec = validate(TamperedLaw(base, 1.0), params).record("(12)")
        assert rec.note == "exact leading exponent"
        assert rec.margin == validate(base, params).record("(12)").margin


def test_constant_law_is_one_term_of_exponent_zero():
    law = ViscosityLaw(constant=2.5)
    assert law.terms == ((2.5, 0.0),) and law.max_exponent() == 0.0
    rho = np.array([0.0, 5e-324, 1.0, np.inf])
    assert np.array_equal(law.h(rho), np.full(4, 2.5))
    for f in (law.h_prime, law.h_second, law.psi):
        assert np.array_equal(f(rho), np.zeros(4)) and f(0.0) == 0.0
    assert np.array_equal(law.phi(rho[1:]), np.zeros(3))
    assert law.describe() == "h = 2.5" and law.to_json() == {"constant": 2.5}


def test_psi_is_the_closed_form_sum_bit_for_bit():
    # psi takes the path of h, h' and h'': the terms a b / (b - 1/2) rho^(b - 1/2)
    # summed left to right from +0.0, the same bits as the plain sum
    dens = [0.0, -0.0, 5e-324, 1e-310, 1e-10, 0.25, 1.0, 3.7, 1e300, np.inf, np.nan]
    laws = (LINEAR, MIXED, ViscosityLaw(terms=((0.3, 0.75), (2.0, 1.5), (0.5, 3.0))),
            ViscosityLaw(terms=((0.7, 0.6),)))

    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def plain(law, r):
        out = np.zeros_like(r)
        for a, b in law.terms:
            out = out + a * b / (b - 0.5) * r ** (b - 0.5)
        return out

    arr = np.array(dens)
    with np.errstate(over="ignore"):  # 1e300 ** 2.5
        for law in laws:
            assert bits(law.psi(arr)) == bits(plain(law, arr))
            assert bits(law.psi(arr.reshape(1, -1))) == bits(plain(law, arr.reshape(1, -1)))
            for d in dens:
                ref = plain(law, np.array(d))
                for rho in (d, np.array(d), np.float64(d)):
                    value = law.psi(rho)
                    assert type(value) is float and bits(value) == bits(ref)


def test_h_with_out_gives_the_bits_of_h_in_place():
    # the solver's bundle evaluates h, and g, of its clamped density into its
    # own buffers, with scratch buffers, through the law (or the tampered
    # law around it); the sums start from +0.0 as those of a new array do,
    # and a NaN density passes the sign check
    dens = np.array([[0.0, 5e-324, 1e-310, 1e-10, 0.25, 1.0, 3.7, 1e300, np.inf, np.nan]])
    laws = (LINEAR, MIXED, ViscosityLaw(constant=2.5), ViscosityLaw(constant=0.0),
            ViscosityLaw(terms=((0.3, 0.75), (2.0, 1.5), (0.5, 3.0))))
    out, term, spare = (np.full_like(dens, np.nan) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 1e300 ** 1.5, 0 ** -0.25
        for law in laws:
            for wrapped in (law, TamperedLaw(law, 0.5)):
                assert wrapped.h(dens, out, term) is out
                assert out.tobytes() == law.h(dens).tobytes()
                assert wrapped.h_prime(dens, out, term) is out
                assert out.tobytes() == law.h_prime(dens).tobytes()
                assert wrapped.g(dens, out, term, spare) is out
                assert out.tobytes() == wrapped.g(dens).tobytes()


def test_sign_check_makes_no_field_sized_array():
    # the sign check of h, h' and g is one reduction: a negative density
    # anywhere is refused, NaN is not, and nothing of the field's size is made
    law = MIXED
    dens = np.linspace(0.0, 2.0, 4096)
    out, term, spare = (np.empty_like(dens) for _ in range(3))
    tracemalloc.start()
    try:
        law.h(dens, out, term)
        law.h_prime(dens, out, term)
        law.g(dens, out, term, spare)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dens.nbytes // 8
    for bad in (-1e-300, -np.inf):
        with pytest.raises(DomainError):
            law.h(np.array([1.0, np.nan, bad, 2.0]), out[:4], term[:4])
    assert np.isnan(law.h(np.array([np.nan, 1.0]))[0])


def test_validate_tampered_law_reports_failed_combination():
    # a tampered pair has no constant: (10) fails without the constant-law note
    report = validate(TamperedLaw(LINEAR, 1.0), AdmissibilityParams(nu=0.9, gamma=2.0, N=1))
    rec10 = report.record("(10)")
    assert not rec10.passed and rec10.note == ""
    assert not report.overall
