"""Density-dependent viscosity coefficient pairs and their admissibility.

A law stores the shear coefficient as a finite nonnegative combination of
power terms, ``h(rho) = sum_k a_k rho^{b_k}``.  A law may instead be given as
a constant, which it stores as the one term (mu, 0); the constant law is kept
only as a negative-control case: it degenerates because the derived second
coefficient cancels it.  The second coefficient is never stored; it is
always computed through the structural relation

    g(rho) = rho h'(rho) - h(rho).

Derived entropy weights:

* ``phi`` with phi'(rho) = h'(rho)/rho, anchored at a reference density,
* ``psi`` with psi'(rho) = h'(rho)/sqrt(rho), anchored at psi(0) = 0.

:func:`validate` checks the admissibility conditions on a log-spaced density
grid and returns a per-condition report:

* (8)  h'(rho) >= nu and h(0) >= 0,
* (9)  |g'(rho)| <= h'(rho)/nu,
* (10) nu h <= h + N g <= h/nu,
* (12) for gamma >= 3 and N = 3 only: h grows at least like
       rho^(gamma/3 + eps) at large density, read off the law's exact
       leading exponent.

Exponents below 1 are accepted by the constructor so that the validator can
classify sub-linear laws; the admissible family in the sense above needs
every exponent >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _json
from .grid import _power


class DomainError(ValueError):
    """Evaluation outside the coefficient's density domain."""


class LawError(ValueError):
    """Structurally invalid coefficient definition."""


def _as_array(rho):
    arr = np.asarray(rho, dtype=float)
    # one reduction, no boolean field; fmin passes over NaN, as rho < 0 does
    if np.fmin.reduce(arr, axis=None, initial=np.inf) < 0.0:
        raise DomainError("density must be nonnegative")
    return arr


def _power_sum(r: np.ndarray, terms, out: np.ndarray | None = None,
               term: np.ndarray | None = None) -> np.ndarray:
    """The sum of c * r^e over the (c, e) terms, an exponent 0 read as the
    constant c, into ``out`` with ``term`` as scratch (new arrays when not
    given).  It is accumulated in place from +0.0 (which turns a -0.0 term
    into +0.0), each term computed in one reused buffer, so that it holds
    two fields at its peak."""
    if out is None:
        out, term = np.zeros(r.shape), np.empty(r.shape)
    else:
        out.fill(0.0)
    for c, e in terms:
        if e == 0.0:
            np.add(out, c, out=out)
        else:
            np.add(out, np.multiply(c, _power(r, e, term), out=term), out=out)
    return out


def _scalar_like(rho, value):
    """``value`` as a float where ``rho`` is a scalar or 0-d, else as it is."""
    if isinstance(rho, np.ndarray):
        scalar = rho.ndim == 0
    else:
        scalar = np.isscalar(rho) or getattr(rho, "ndim", 1) == 0
    return float(value) if scalar else value


@dataclass(frozen=True)
class ViscosityLaw:
    """Shear viscosity h(rho) = sum_k a_k rho^{b_k}, or h = const, stored as
    the one term (const, 0)."""

    terms: tuple[tuple[float, float], ...] = ()
    constant: float | None = None

    def __post_init__(self):
        terms = tuple((float(a), float(b)) for a, b in self.terms)
        if self.constant is not None:
            if terms:
                raise LawError("give either power terms or a constant, not both")
            if not 0.0 <= self.constant < math.inf:
                raise LawError(f"constant coefficient {self.constant} must be finite and >= 0")
            terms = ((float(self.constant), 0.0),)
        elif not terms:
            raise LawError("at least one power term required")
        else:
            for a, b in terms:
                if not 0.0 <= a < math.inf:
                    raise LawError(f"coefficient {a} must be finite and >= 0")
                if not 0.0 < b < math.inf:
                    raise LawError(f"exponent {b} must be finite and > 0")
        object.__setattr__(self, "terms", terms)

    # -- evaluation ---------------------------------------------------------

    @property
    def _varying(self) -> tuple[tuple[float, float], ...]:
        """The terms of nonzero exponent: those that h', h'', phi and psi see."""
        return tuple((a, b) for a, b in self.terms if b != 0.0)

    # h, h' and g write into ``out`` when it is given (the solver's bundle),
    # with ``term`` and ``spare`` as scratch, the values of a new array

    def h(self, rho, out: np.ndarray | None = None, term: np.ndarray | None = None):
        return _scalar_like(rho, _power_sum(_as_array(rho), self.terms, out, term))

    def h_prime(self, rho, out: np.ndarray | None = None, term: np.ndarray | None = None):
        r = _as_array(rho)
        return _scalar_like(rho, _power_sum(r, [(a * b, b - 1.0) for a, b in self._varying],
                                            out, term))

    def h_second(self, rho):
        r = _as_array(rho)
        return _scalar_like(rho, _power_sum(r, [(a * b * (b - 1.0), b - 2.0)
                                                for a, b in self._varying if b != 1.0]))

    def g(self, rho, out: np.ndarray | None = None, term: np.ndarray | None = None,
          spare: np.ndarray | None = None):
        """Second coefficient rho*h'(rho) - h(rho); same arithmetic path
        whether called on scalars or arrays.  rho h' is made in ``out`` and h
        in ``spare``."""
        r = _as_array(rho)
        r_hp = np.multiply(r, self.h_prime(r, out, term), out=out)
        return _scalar_like(rho, np.subtract(r_hp, self.h(r, spare, term), out=out))

    def g_prime(self, rho):
        r = _as_array(rho)
        return _scalar_like(rho, r * self.h_second(r))

    @property
    def g_vanishes(self) -> bool:
        """Whether :meth:`g` is exactly 0.0 at every finite density: true for
        one linear term a rho, where rho*a - a*rho cancels exactly.  A sum of
        linear terms leaves rounding noise in g, so it does not count."""
        return len(self.terms) == 1 and self.terms[0][1] == 1.0

    def phi(self, rho, rho_ref: float = 1.0):
        """Integral of h'(s)/s from rho_ref to rho (closed form per term)."""
        r = np.asarray(rho, dtype=float)
        if np.any(r <= 0) or rho_ref <= 0:
            raise DomainError("phi needs strictly positive density")
        out = np.zeros_like(r)
        for a, b in self._varying:
            if b == 1.0:
                out = out + a * np.log(r / rho_ref)
            else:
                out = out + a * b / (b - 1.0) * (r ** (b - 1.0) - rho_ref ** (b - 1.0))
        return _scalar_like(rho, out)

    def psi(self, rho):
        """Integral of h'(s)/sqrt(s) from 0 to rho; psi(0) = 0."""
        r = _as_array(rho)
        for a, b in self._varying:
            if a > 0 and b <= 0.5:
                raise LawError(f"psi diverges at vacuum for exponent {b} <= 1/2")
        return _scalar_like(rho, _power_sum(r, [(a * b / (b - 0.5), b - 0.5)
                                                for a, b in self._varying]))

    # -- plumbing -----------------------------------------------------------

    def describe(self) -> str:
        if self.constant is not None:
            return f"h = {self.constant:g}"
        return "h = " + " + ".join(
            f"{a:g}*rho^{b:g}" if b != 1.0 else f"{a:g}*rho" for a, b in self.terms
        )

    def max_exponent(self) -> float:
        """The largest exponent of a term with a positive coefficient; 0 when
        there is none, as for a constant law."""
        return max((b for a, b in self.terms if a > 0), default=0.0)

    def to_json(self) -> dict:
        if self.constant is not None:
            return {"constant": self.constant}
        return {"terms": [[a, b] for a, b in self.terms]}

    @classmethod
    def from_json(cls, obj: dict) -> "ViscosityLaw":
        if not isinstance(obj, dict):
            raise LawError(f"law spec must be a JSON object, got {obj!r}")
        try:
            if "constant" in obj:
                return cls(constant=float(obj["constant"]))
            if "terms" in obj:
                return cls(terms=tuple((float(a), float(b)) for a, b in obj["terms"]))
        except LawError:
            raise
        except (TypeError, ValueError) as exc:
            raise LawError(f"malformed law spec {obj!r}: {exc}") from exc
        raise LawError(f"law spec needs 'terms' or 'constant', got {sorted(obj)}")


class TamperedLaw:
    """Wraps a law but reports a fixed g, breaking g = rho h' - h.

    Exists only as a negative control for the identity verifier: with a
    tampered pair the combined entropy identity must fail to converge.
    """

    g_vanishes = False

    def __init__(self, base: ViscosityLaw, g_value: float):
        self.base = base
        self.g_value = float(g_value)

    def h(self, rho, out=None, term=None):
        return self.base.h(rho, out, term)

    def h_prime(self, rho, out=None, term=None):
        return self.base.h_prime(rho, out, term)

    def h_second(self, rho):
        return self.base.h_second(rho)

    def phi(self, rho, rho_ref: float = 1.0):
        return self.base.phi(rho, rho_ref)

    def psi(self, rho):
        return self.base.psi(rho)

    def g(self, rho, out=None, term=None, spare=None):
        if out is not None:
            out.fill(self.g_value)
            return out
        r = np.asarray(rho, dtype=float)
        return _scalar_like(rho, np.full_like(r, self.g_value) if r.ndim else self.g_value)

    def g_prime(self, rho):
        r = np.asarray(rho, dtype=float)
        return _scalar_like(rho, np.zeros_like(r) if r.ndim else 0.0)

    def max_exponent(self) -> float:
        return self.base.max_exponent()

    def describe(self) -> str:
        return f"{self.base.describe()} [tampered: g = {self.g_value:g}]"


def _check_gamma(gamma: float):
    """The adiabatic exponent of every functional and check: the paper's
    result holds for gamma > 1."""
    if not 1.0 < gamma < math.inf:  # NaN too
        raise ValueError(f"gamma must be > 1 and finite, got {gamma}")


@dataclass(frozen=True)
class AdmissibilityParams:
    """Constants the admissibility conditions are checked against."""

    nu: float
    gamma: float
    N: int
    eps_growth: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie strictly in (0,1), got {self.nu}")
        _check_gamma(self.gamma)
        if self.N not in (1, 2, 3):
            raise ValueError(f"N must be 1, 2 or 3, got {self.N}")
        if not 0.0 < self.eps_growth < math.inf:
            raise ValueError(f"eps_growth must be > 0 and finite, got {self.eps_growth}")


@dataclass
class ConditionRecord:
    condition: str
    applicable: bool
    passed: bool
    worst_rho: float
    margin: float
    note: str = ""

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "pass": bool(self.passed),
            "worst_rho": self.worst_rho,
            "margin": self.margin,
            "applicable": self.applicable,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    law: str
    params: AdmissibilityParams
    records: list[ConditionRecord] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records if r.applicable)

    def record(self, condition: str) -> ConditionRecord:
        for r in self.records:
            if r.condition == condition:
                return r
        raise KeyError(condition)

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "nu": self.params.nu,
            "gamma": self.params.gamma,
            "N": self.params.N,
            "eps_growth": self.params.eps_growth,
            "overall": self.overall,
            "conditions": [r.to_json() for r in self.records],
        }

    def dumps(self) -> str:
        return _json.dumps(self.to_json(), indent=2, sort_keys=True)


def default_sample_grid() -> np.ndarray:
    """601 log-spaced densities on [1e-6, 1e6], covering both envelope regimes."""
    return np.logspace(-6.0, 6.0, 601)


def validate(law: ViscosityLaw, params: AdmissibilityParams,
             rho_samples: np.ndarray | None = None) -> ValidationReport:
    """Check conditions (8)-(10), and (12) when it applies, on a density grid."""
    if rho_samples is None:
        rho_samples = default_sample_grid()
    rho_samples = np.asarray(rho_samples, dtype=float)
    if rho_samples.size == 0:
        raise ValueError("empty density sample grid")
    nu, N = params.nu, params.N
    report = ValidationReport(law.describe(), params)

    h = law.h(rho_samples)
    hp = law.h_prime(rho_samples)
    g = law.g(rho_samples)
    gp = law.g_prime(rho_samples)

    # (8): h' >= nu everywhere and h(0) >= 0
    m8 = hp - nu
    i8 = int(np.argmin(m8))
    h0 = law.h(0.0)
    if h0 < m8[i8]:
        rec8 = ConditionRecord("(8)", True, h0 >= 0 and m8[i8] >= 0, 0.0, float(min(h0, m8[i8])))
    else:
        rec8 = ConditionRecord("(8)", True, h0 >= 0 and m8[i8] >= 0,
                               float(rho_samples[i8]), float(m8[i8]))
    if not rec8.passed:
        rec8.note = "degenerate shear slope; relaxed sub-linear regime unsupported"
    report.records.append(rec8)

    # (9): |g'| <= h'/nu
    m9 = hp / nu - np.abs(gp)
    i9 = int(np.argmin(m9))
    report.records.append(
        ConditionRecord("(9)", True, m9[i9] >= 0, float(rho_samples[i9]), float(m9[i9]))
    )

    # (10): nu h <= h + N g <= h/nu
    combo = h + N * g
    m10 = np.minimum(combo - nu * h, h / nu - combo)
    i10 = int(np.argmin(m10))
    rec10 = ConditionRecord("(10)", True, m10[i10] >= 0, float(rho_samples[i10]), float(m10[i10]))
    if isinstance(law, ViscosityLaw) and law.constant is not None and not rec10.passed:
        rec10.note = "constant pair degenerates: h + N*g = mu*(1-N) < nu*h"
    report.records.append(rec10)

    # (12): large-density growth, only for gamma >= 3 in three dimensions
    applicable12 = params.gamma >= 3.0 and N == 3
    m12 = law.max_exponent() - (params.gamma / 3.0 + params.eps_growth)
    report.records.append(ConditionRecord("(12)", applicable12, m12 >= 0, float(rho_samples[-1]),
                                          float(m12), "exact leading exponent"))

    # redundant consequence of (10): |g| <= C_nu h with C_nu = (1/nu - 1)/N
    if rec10.passed:
        c_nu = (1.0 / nu - 1.0) / N
        slack = c_nu * h - np.abs(g)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
        if np.min(slack) < -tol:
            raise AssertionError(
                "internal inconsistency: (10) holds but |g| <= C_nu*h fails"
            )
    return report


def growth_envelope(law: ViscosityLaw, params: AdmissibilityParams, rho):
    """Two-sided power envelope implied by (10), calibrated so both sides
    touch h at rho = 1.  Exponent regimes switch at rho = 1: the slow
    exponent (N-1)/N + nu/N bounds from below for rho >= 1 and from above
    for rho <= 1, the fast exponent (N-1)/N + 1/(N nu) conversely."""
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0):
        raise DomainError("envelope needs strictly positive density")
    N, nu = params.N, params.nu
    c = float(law.h(1.0))
    slow = (N - 1.0) / N + nu / N
    fast = (N - 1.0) / N + 1.0 / (N * nu)
    big = r >= 1.0
    lower = np.where(big, c * r**slow, c * r**fast)
    upper = np.where(big, c * r**fast, c * r**slow)
    if np.isscalar(rho) or r.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def find_max_nu(law: ViscosityLaw, gamma: float, N: int,
                rho_samples: np.ndarray | None = None,
                eps_growth: float = 0.1, tol: float = 1e-4) -> float | None:
    """Largest nu in (0,1) for which :func:`validate` passes on the grid,
    located by bisection (the pass set is monotone in nu).  None if even a
    tiny nu fails."""
    if rho_samples is None:
        rho_samples = default_sample_grid()

    def ok(nu: float) -> bool:
        params = AdmissibilityParams(nu=nu, gamma=gamma, N=N, eps_growth=eps_growth)
        return validate(law, params, rho_samples).overall

    lo, hi = 1e-9, 1.0 - 1e-9
    if not ok(lo):
        return None
    if ok(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
