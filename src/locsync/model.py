"""Oscillator nonlinearities and their bistability structure.

A node of the chain carries the complex vector field f(|Z|, mu, eps) * Z with
f = lambda + i*omega.  The real part lambda(r, mu) controls the amplitude
dynamics: an even polynomial in r plus a linear mu term, with two positive
roots r_-(mu) < r_+(mu) on the unit parameter interval.  The imaginary part
is split into a constant and an O(eps) part, omega = omega0 + eps*omega1(r, mu, eps).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "ModelError",
    "UnknownSpecError",
    "NotBistableError",
    "ParameterRangeError",
    "NonlinearitySpec",
    "BistabilityProfile",
    "HypothesisReport",
    "GridCheck",
    "builtin_spec",
    "polynomial_spec",
    "bistable_roots",
    "rest_state_roots",
    "verify_hypotheses",
]

ROOT_WINDOW = (1e-8, 10.0)  # search window for positive roots of lambda
NEAR_FOLD_GAP = 1e-6        # roots closer than this are flagged, not rejected
_ROOT_RTOL = 1e-12


class ModelError(ValueError):
    pass


class UnknownSpecError(ModelError):
    pass


class NotBistableError(ModelError):
    def __init__(self, message: str, root_count: int):
        super().__init__(message)
        self.root_count = root_count


class ParameterRangeError(ModelError):
    pass


@dataclass(frozen=True)
class NonlinearitySpec:
    """Split-form nonlinearity f = lambda + i*omega, stored as coefficients.

    lambda(r, mu) = a*mu + sum_j c_j r^(2j) with ``coeffs`` = (c_0, c_1, ...)
    and ``mu_coefficient`` = a; omega = omega0 + eps*omega1(r, mu, eps).  The
    derivatives the analytic Jacobian needs follow from the coefficients.
    The optional O(eps) part omega1 (with omega1_r, omega1_mu) is the only
    callable, so a spec without it is hashable and picklable.  Every method
    broadcasts over numpy arrays in r.
    """

    name: str
    coeffs: tuple[float, ...]
    mu_coefficient: float = 0.0
    omega0: float = 0.0
    omega1: Callable | None = None     # omega1(r, mu, eps)
    omega1_r: Callable | None = None
    omega1_mu: Callable | None = None

    def __post_init__(self):
        # a nonzero c_j is what gives lam the shape of r
        if not any(self.coeffs):
            raise ModelError(f"{self.name}: every lambda coefficient c_j is zero")

    def lam(self, r, mu):
        # mu term first, then c_j r2^j in order, r2 itself for j = 1: this
        # reproduces the quintic's closed form -mu + 2 r^2 - r^4 bit for bit
        r2 = r * r
        out = self.mu_coefficient * mu
        for j, cj in enumerate(self.coeffs):
            if cj:
                out = out + cj * (r2 if j == 1 else r2**j)
        return out

    def lam_r(self, r, mu):
        r2 = r * r
        out = 0.0 * r
        for j, cj in enumerate(self.coeffs[1:], start=1):
            if cj:
                out = out + (2 * j * cj) * r * r2 ** (j - 1)
        return out

    def lam_mu(self, r, mu):
        return np.full(np.shape(r), self.mu_coefficient)

    def omega(self, r, mu, eps):
        if self.omega1 is None:
            return np.full(np.shape(r), self.omega0)
        return self.omega0 + eps * self.omega1(r, mu, eps)

    def omega_r(self, r, mu, eps):
        if self.omega1_r is None:
            return np.zeros(np.shape(r))
        return eps * self.omega1_r(r, mu, eps)

    def omega_mu(self, r, mu, eps):
        if self.omega1_mu is None:
            return np.zeros(np.shape(r))
        return eps * self.omega1_mu(r, mu, eps)

    def with_omega1(self, omega1, omega1_r, omega1_mu=None, name=None) -> "NonlinearitySpec":
        """Return a copy with an O(eps) frequency part attached."""
        return replace(
            self,
            name=name if name is not None else self.name + "+omega1",
            omega1=omega1,
            omega1_r=omega1_r,
            omega1_mu=omega1_mu,
        )


@dataclass(frozen=True)
class BistabilityProfile:
    mu: float
    r_minus: float
    r_plus: float
    lambda_r_minus: float
    lambda_r_plus: float
    lambda_at_zero: float
    near_fold: bool = False


def builtin_spec(name: str) -> NonlinearitySpec:
    """Return one of the built-in nonlinearities.

    quintic           lambda = -mu + 2 r^2 - r^4, omega = 0
    quintic_rotating  same lambda, omega0 = 1
    hbm               harmonic-balance reduction of the mechanical chain at
                      unit frequency: lambda = -((12 pi^2/8) r^4
                      - (12 pi^4/5) r^2 + 2 mu), omega = 0
    """
    if name in ("quintic", "quintic_rotating"):
        return polynomial_spec((0.0, 2.0, -1.0), mu_coefficient=-1.0, name=name,
                               omega0_const=1.0 if name == "quintic_rotating" else 0.0)
    if name == "hbm":
        return polynomial_spec((0.0, 12.0 * np.pi**4 / 5.0, -12.0 * np.pi**2 / 8.0),
                               mu_coefficient=-2.0, name="hbm")
    raise UnknownSpecError(f"unknown built-in nonlinearity {name!r}")


def polynomial_spec(
    coeffs,
    omega0_const: float = 0.0,
    mu_coefficient: float = 0.0,
    name: str = "polynomial",
) -> NonlinearitySpec:
    """Even polynomial nonlinearity lambda = sum_j c_j r^(2j) + a*mu.

    ``coeffs`` lists (c0, c1, c2, ...);  ``mu_coefficient`` is the optional
    linear-in-mu term a (the quintic is coeffs=(0, 2, -1), a=-1).
    """
    return NonlinearitySpec(
        name=name,
        coeffs=tuple(float(v) for v in coeffs),
        mu_coefficient=float(mu_coefficient),
        omega0=float(omega0_const),
    )


def _bisect(f, a, b, fa, fb):
    """Bisection to ~1e-15 absolute, assuming a sign change on [a, b]."""
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _newton_polish(f, fprime, x0, rtol=_ROOT_RTOL, maxit=10):
    x = x0
    for _ in range(maxit):
        d = fprime(x)
        if d == 0.0:
            break
        step = f(x) / d
        x_new = x - step
        if abs(step) <= rtol * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def _positive_roots(f, fr, window=ROOT_WINDOW, n_grid=4096):
    """Simple positive roots of f, plus near-double roots at critical points.

    The window is partitioned at the critical points of f (sign changes of
    fr), so every monotone piece contributes at most one bracketed root.
    A run of grid points where fr is exactly 0 is a stretch on which f is
    flat; only its first point is a critical point.  Returns (roots, doubles).
    """
    lo, hi = window
    grid = np.linspace(lo, hi, n_grid)
    dv = np.array([fr(x) for x in grid])
    crits = []
    for i in range(n_grid - 1):
        if dv[i] == 0.0:
            if i == 0 or dv[i - 1] != 0.0:
                crits.append(grid[i])
        elif (dv[i] < 0.0) != (dv[i + 1] < 0.0):
            crits.append(_bisect(fr, grid[i], grid[i + 1], dv[i], dv[i + 1]))
    knots = [lo] + sorted(crits) + [hi]

    roots = []
    for a, b in zip(knots[:-1], knots[1:]):
        fa, fb = f(a), f(b)
        if fa == 0.0:
            roots.append(a)
            continue
        if (fa < 0.0) != (fb < 0.0):
            x = _bisect(f, a, b, fa, fb)
            roots.append(_newton_polish(f, fr, x))

    doubles = []
    for cpt in crits:
        if roots and min(abs(cpt - x) for x in roots) < 1e-6:
            continue
        if abs(f(cpt)) <= 1e-9:
            doubles.append(cpt)
    return sorted(roots), doubles


def bistable_roots(spec: NonlinearitySpec, mu: float) -> BistabilityProfile:
    """Both positive roots of lambda(., mu) with derivative values.

    Valid for mu in (0, 1]; at the fold limit a coincident pair is returned
    with the near_fold flag set instead of raising.
    """
    if not (0.0 < mu <= 1.0):
        raise ParameterRangeError(f"mu={mu} outside the bistability interval (0, 1]")

    def f(r):
        return float(spec.lam(r, mu))

    def fr(r):
        return float(spec.lam_r(r, mu))

    roots, doubles = _positive_roots(f, fr)
    if len(roots) == 2:
        r_minus, r_plus = roots
    elif len(roots) == 0 and len(doubles) == 1:
        r_minus = r_plus = doubles[0]
    elif len(roots) < 2:
        raise NotBistableError(
            f"not bistable at mu={mu}: "
            + ("one positive root" if len(roots) == 1 else "no positive roots"),
            len(roots),
        )
    else:
        raise NotBistableError(
            f"not bistable at mu={mu}: {len(roots)} positive roots", len(roots)
        )

    return BistabilityProfile(
        mu=float(mu),
        r_minus=float(r_minus),
        r_plus=float(r_plus),
        lambda_r_minus=fr(r_minus),
        lambda_r_plus=fr(r_plus),
        lambda_at_zero=f(0.0),
        near_fold=bool(r_plus - r_minus < NEAR_FOLD_GAP),
    )


def rest_state_roots(spec: NonlinearitySpec, window=ROOT_WINDOW) -> tuple[float, float]:
    """(r_minus, r_plus) limits at mu = 0, where r_minus = 0 by the pitchfork."""

    def f(r):
        return float(spec.lam(r, 0.0))

    def fr(r):
        return float(spec.lam_r(r, 0.0))

    roots, doubles = _positive_roots(f, fr, window=window)
    candidates = [x for x in roots + doubles if x > 1e-4]
    if not candidates:
        raise NotBistableError("no positive root of lambda(., 0) found", 0)
    return 0.0, max(candidates)


@dataclass(frozen=True)
class GridCheck:
    mu: float
    root_count: int
    signs_ok: bool
    message: str = ""
    profile: BistabilityProfile | None = None


@dataclass(frozen=True)
class HypothesisReport:
    spec_name: str
    entries: tuple[GridCheck, ...]
    evenness_defect: float
    pitchfork_trend_ok: bool
    fold_trend_ok: bool
    admissible: bool


def verify_hypotheses(spec: NonlinearitySpec, mu_grid) -> HypothesisReport:
    """Numerical check of the bistability hypotheses on a parameter grid.

    Per grid point: two positive roots and the stability signs
    lambda(0) < 0, lambda_r(r_plus) < 0 < lambda_r(r_minus).  Endpoint
    trends (r_minus shrinking toward mu=0, gap closing toward mu=1) are
    checked by monotonicity over the grid.  Failures are reported, never
    raised.
    """
    mus = sorted(float(m) for m in mu_grid)
    if not mus:
        raise ModelError("mu_grid must be nonempty")

    entries: list[GridCheck] = []
    for mu in mus:
        try:
            prof = bistable_roots(spec, mu)
        except ModelError as err:
            entries.append(GridCheck(mu=mu, root_count=getattr(err, "root_count", -1),
                                     signs_ok=False, message=str(err)))
            continue
        signs_ok = (
            prof.lambda_at_zero < 0.0
            and prof.lambda_r_plus < 0.0 < prof.lambda_r_minus
        )
        entries.append(GridCheck(mu=mu, root_count=2, signs_ok=signs_ok,
                                 profile=prof,
                                 message="" if signs_ok else "stability signs violated"))

    r_sample = np.linspace(0.0, ROOT_WINDOW[1], 257)
    defect = 0.0
    for mu in mus:
        defect = max(defect, float(np.max(np.abs(
            np.asarray(spec.lam(r_sample, mu)) - np.asarray(spec.lam(-r_sample, mu))
        ))))

    ok_entries = [e for e in entries if e.profile is not None]
    if len(ok_entries) == len(entries) and len(ok_entries) >= 2:
        rm = [e.profile.r_minus for e in ok_entries]
        gap = [e.profile.r_plus - e.profile.r_minus for e in ok_entries]
        pitchfork_ok = all(a < b for a, b in zip(rm[:-1], rm[1:]))
        fold_ok = all(a > b for a, b in zip(gap[:-1], gap[1:]))
    else:
        pitchfork_ok = fold_ok = False

    admissible = (
        pitchfork_ok
        and fold_ok
        and defect <= 1e-12
        and all(e.root_count == 2 and e.signs_ok for e in entries)
    )
    return HypothesisReport(
        spec_name=spec.name,
        entries=tuple(entries),
        evenness_defect=defect,
        pitchfork_trend_ok=pitchfork_ok,
        fold_trend_ok=fold_ok,
        admissible=admissible,
    )
