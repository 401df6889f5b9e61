"""Oscillator nonlinearities and their bistability structure.

A node of the chain carries the complex vector field f(|Z|, mu, eps) * Z with
f = lambda + i*omega.  The real part lambda(r, mu) controls the amplitude
dynamics: an even polynomial in r plus a linear mu term, with two positive
roots r_-(mu) < r_+(mu) on the unit parameter interval.  The imaginary part
is split into a constant and an O(eps) part, omega = omega0 + eps*omega1(r),
with omega1 a polynomial in r; without an omega1 part omega is the scalar
omega0.  Both are stored as coefficients, and a spec is built one way, from
its coefficients; this module is the only one that evaluates them, and it
takes the roots of lambda from its coefficients as a polynomial in r^2.
``bistable_roots`` returns the pair (r_minus, r_plus) and raises
``ModelError`` unless lambda(., mu) has exactly two positive roots.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelError",
    "NonlinearitySpec",
    "BistableRoots",
    "builtin_spec",
    "bistable_roots",
    "rest_state_roots",
]

_DOUBLE_ROOT_RTOL = 1e-7  # |Im u| / |u| below which a root of lambda in u is real


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class NonlinearitySpec:
    """Split-form nonlinearity f = lambda + i*omega, stored as coefficients.

    lambda(r, mu) = a*mu + sum_j c_j r^(2j) with ``coeffs`` = (c_0, c_1, ...)
    and ``mu_coefficient`` = a; omega = omega0 + eps*omega1(r) with
    omega1(r) = sum_j d_j r^j and ``omega1_coeffs`` = (d_0, d_1, ...), empty
    when there is no O(eps) part.  The Jacobian's derivatives follow from the
    coefficients: d lambda/d mu = a, and omega does not depend on mu.  A spec
    is plain data: it hashes, pickles and compares by value, and its numbers
    are stored as floats, so a spec given ints equals one given floats.
    Every method broadcasts over numpy arrays in r; with no omega1 part,
    ``omega`` is the scalar omega0, and with a constant or no omega1 ``omega_r`` is 0.0.
    """

    name: str
    coeffs: tuple[float, ...]
    mu_coefficient: float = 0.0
    omega0: float = 0.0
    omega1_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        for key in ("coeffs", "omega1_coeffs"):
            object.__setattr__(self, key, tuple(float(v) for v in getattr(self, key)))
        for key in ("mu_coefficient", "omega0"):
            object.__setattr__(self, key, float(getattr(self, key)))
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
            if cj:  # r2**1 = r2 exactly, without calling pow; j = 1 has no power
                term = (2 * j * cj) * r
                out = out + (term if j == 1 else term * (r2 if j == 2 else r2 ** (j - 1)))
        return out

    def omega1(self, r):
        return _power_series(self.omega1_coeffs, r)

    def omega(self, r, mu, eps):
        if not self.omega1_coeffs:
            return self.omega0
        return self.omega0 + eps * self.omega1(r)

    def omega_r(self, r, mu, eps):
        derivative = tuple(j * dj for j, dj in enumerate(self.omega1_coeffs))[1:]
        return eps * _power_series(derivative, r) if any(derivative) else 0.0

    def with_omega1(self, coeffs, name=None) -> "NonlinearitySpec":
        """Return a copy with omega1(r) = sum_j coeffs[j] r^j attached."""
        return replace(
            self,
            name=name if name is not None else self.name + "+omega1",
            omega1_coeffs=coeffs,
        )


def _power_series(coeffs, x):
    """sum_j c_j x^j over the nonzero c_j, in order, with x itself for j = 1,
    so that (0, c) evaluates to c * x bit for bit."""
    terms = [cj * (x if j == 1 else x**j) for j, cj in enumerate(coeffs) if cj]
    if not terms:
        return np.zeros(np.shape(x))
    return sum(terms[1:], terms[0])


class BistableRoots(NamedTuple):
    r_minus: float
    r_plus: float


def builtin_spec(name: str) -> NonlinearitySpec:
    """Return one of the built-in nonlinearities.

    quintic           lambda = -mu + 2 r^2 - r^4, omega = 0
    quintic_rotating  same lambda, omega0 = 1
    hbm               harmonic-balance reduction of the mechanical chain at
                      unit frequency: lambda = -((12 pi^2/8) r^4
                      - (12 pi^4/5) r^2 + 2 mu), omega = 0
    """
    if name in ("quintic", "quintic_rotating"):
        return NonlinearitySpec(name, (0.0, 2.0, -1.0), mu_coefficient=-1.0,
                                omega0=1.0 if name == "quintic_rotating" else 0.0)
    if name == "hbm":
        return NonlinearitySpec("hbm", (0.0, 12.0 * np.pi**4 / 5.0, -12.0 * np.pi**2 / 8.0),
                                mu_coefficient=-2.0)
    raise ModelError(f"unknown built-in nonlinearity {name!r}")


def _newton_polish(f, fprime, x, maxit=10):
    """Newton steps while they shrink |f|; stops at the rounding floor of f."""
    fx = f(x)
    for _ in range(maxit):
        d = fprime(x)
        if fx == 0.0 or d == 0.0:
            break
        x_new = x - fx / d
        f_new = f(x_new)
        if abs(f_new) >= abs(fx):
            break
        x, fx = x_new, f_new
    return x


def _positive_r_roots(spec: NonlinearitySpec, mu: float) -> list[float]:
    """Positive roots of lambda(., mu), ascending, each polished in r.

    lambda is a polynomial in u = r^2, so its positive roots are the square
    roots of the positive real roots u.  A double root may come back from
    np.roots as a conjugate pair with an O(sqrt(machine eps)) imaginary
    part; it counts as two coincident real roots, the near-fold case.
    """
    u = np.roots([*spec.coeffs[:0:-1], spec.coeffs[0] + spec.mu_coefficient * mu])
    u = u.real[(np.abs(u.imag) <= _DOUBLE_ROOT_RTOL * np.abs(u)) & (u.real > 0.0)]

    def f(r):
        return float(spec.lam(r, mu))

    def fr(r):
        return float(spec.lam_r(r, mu))

    return sorted(_newton_polish(f, fr, float(x)) for x in np.sqrt(u))


def bistable_roots(spec: NonlinearitySpec, mu: float) -> BistableRoots:
    """Both positive roots of lambda(., mu), r_minus < r_plus.

    Valid for mu in (0, 1]; at the fold limit the coincident pair is
    returned instead of raising.
    """
    if not (0.0 < mu <= 1.0):
        raise ModelError(f"mu={mu} outside the bistability interval (0, 1]")
    roots = _positive_r_roots(spec, mu)
    if len(roots) != 2:
        found = {0: "no positive roots", 1: "one positive root"}.get(
            len(roots), f"{len(roots)} positive roots")
        raise ModelError(f"not bistable at mu={mu}: {found}")
    return BistableRoots(*roots)


def rest_state_roots(spec: NonlinearitySpec) -> tuple[float, float]:
    """(r_minus, r_plus) limits at mu = 0, where r_minus = 0 by the pitchfork."""
    candidates = [x for x in _positive_r_roots(spec, 0.0) if x > 1e-4]
    if not candidates:
        raise ModelError("no positive root of lambda(., 0) found")
    return 0.0, max(candidates)
