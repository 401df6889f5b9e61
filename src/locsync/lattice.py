"""Steady-state polar system of the coupled oscillator chain.

For the relative-equilibrium ansatz Z_n(t) = exp(i*rho*t) z_n with
z_n = r_n exp(i*theta_n), gauge invariance leaves the amplitudes r_1..r_N,
the phase differences phi_n = theta_{n+1} - theta_n, and the frequency rho
as unknowns.  Each node contributes an amplitude equation and a phase
equation; the chain is closed by ghost values encoding the on/off-site
reflection on the left and an off-site truncation on the right.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import NonlinearitySpec

__all__ = [
    "LatticeError",
    "BoundaryKind",
    "CouplingKind",
    "PolarState",
    "ghost_values",
    "residual",
    "complex_residual",
    "jacobian",
    "wrap_phase",
    "canonicalize",
    "polar_to_complex",
]


class LatticeError(ValueError):
    pass


class BoundaryKind(enum.Enum):
    ON_SITE = "on_site"
    OFF_SITE = "off_site"


@dataclass(frozen=True)
class CouplingKind:
    """Unit-modulus coupling constant c = c_re + i*c_im."""

    c_re: float
    c_im: float

    def __post_init__(self):
        if abs(self.c_re**2 + self.c_im**2 - 1.0) > 1e-12:
            raise LatticeError(
                f"coupling constant must have |c| = 1, got ({self.c_re}, {self.c_im})"
            )

    @classmethod
    def dissipative(cls) -> "CouplingKind":
        return cls(1.0, 0.0)

    @classmethod
    def conservative(cls) -> "CouplingKind":
        return cls(0.0, 1.0)


@dataclass
class PolarState:
    """One lattice solution candidate: amplitudes, phase differences, rho, mu."""

    r: np.ndarray
    phi: np.ndarray
    rho: float
    mu: float

    def __post_init__(self):
        self.r = np.atleast_1d(np.asarray(self.r, dtype=float)).copy()
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float)).copy() \
            if np.size(self.phi) else np.zeros(0)
        self.rho = float(self.rho)
        self.mu = float(self.mu)
        if self.phi.shape != (self.r.size - 1,):
            raise LatticeError(
                f"need len(phi) = len(r) - 1, got {self.phi.size} and {self.r.size}"
            )
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.phi))
                and np.isfinite(self.rho) and np.isfinite(self.mu)):
            raise LatticeError("non-finite entries in state")

    @property
    def n(self) -> int:
        return self.r.size

    def copy(self) -> "PolarState":
        return PolarState(self.r, self.phi, self.rho, self.mu)

    def pack(self) -> np.ndarray:
        """Flatten to (r, phi, rho, mu), length 2N + 1."""
        return np.concatenate([self.r, self.phi, [self.rho, self.mu]])

    @classmethod
    def unpack(cls, x: np.ndarray, n: int) -> "PolarState":
        x = np.asarray(x, dtype=float)
        if x.size != 2 * n + 1:
            raise LatticeError(f"packed vector must have length {2 * n + 1}")
        return cls(x[:n], x[n:2 * n - 1], x[2 * n - 1], x[2 * n])


def ghost_values(state: PolarState, bc: BoundaryKind):
    """(r0, phi0, r_right, phi_right) closing the chain.

    Left: on-site (r0, phi0) = (r2, -phi1), off-site (r0, phi0) = (r1, 0).
    Right: always off-site, (r_{N+1}, phi_N) = (r_N, 0).
    """
    if state.n < 2:
        raise LatticeError("chain needs at least 2 nodes")
    if bc is BoundaryKind.ON_SITE:
        r0, phi0 = state.r[1], -state.phi[0]
    elif bc is BoundaryKind.OFF_SITE:
        r0, phi0 = state.r[0], 0.0
    else:  # pragma: no cover
        raise LatticeError(f"unknown boundary kind {bc!r}")
    return float(r0), float(phi0), float(state.r[-1]), 0.0


def _extended(state: PolarState, bc: BoundaryKind):
    r0, phi0, r_right, phi_right = ghost_values(state, bc)
    r_ext = np.concatenate([[r0], state.r, [r_right]])
    phi_ext = np.concatenate([[phi0], state.phi, [phi_right]])
    return r_ext, phi_ext


def residual(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
) -> np.ndarray:
    """Polar residual, interleaved (amplitude eq, phase eq) per node.

    With A_n = r_{n+1} cos phi_n - 2 r_n + r_{n-1} cos phi_{n-1} and
    B_n = r_{n+1} sin phi_n - r_{n-1} sin phi_{n-1}:

        amplitude_n = lambda(r_n, mu) r_n + eps (c_re A_n - c_im B_n)
        phase_n     = (omega(r_n, mu, eps) - rho) r_n + eps (c_re B_n + c_im A_n)
    """
    r_ext, phi_ext = _extended(state, bc)
    cosp, sinp = np.cos(phi_ext), np.sin(phi_ext)
    r, mu = state.r, state.mu
    A = r_ext[2:] * cosp[1:] - 2.0 * r + r_ext[:-2] * cosp[:-1]
    B = r_ext[2:] * sinp[1:] - r_ext[:-2] * sinp[:-1]
    f_amp = np.asarray(spec.lam(r, mu)) * r + eps * (c.c_re * A - c.c_im * B)
    f_phase = (np.asarray(spec.omega(r, mu, eps)) - state.rho) * r \
        + eps * (c.c_re * B + c.c_im * A)
    out = np.empty(2 * state.n)
    out[0::2] = f_amp
    out[1::2] = f_phase
    return out


def polar_to_complex(state: PolarState) -> np.ndarray:
    """z_n = r_n exp(i theta_n) with theta_1 = 0 and theta_{n+1} = theta_n + phi_n."""
    theta = np.concatenate([[0.0], np.cumsum(state.phi)])
    return state.r * np.exp(1j * theta)


def complex_residual(
    spec: NonlinearitySpec,
    c: CouplingKind,
    z: np.ndarray,
    rho: float,
    mu: float,
    eps: float,
    bc: BoundaryKind = BoundaryKind.OFF_SITE,
) -> np.ndarray:
    """Algebraic residual in complex amplitudes; oracle for the polar form.

    Entry n is f(|z_n|) z_n - i rho z_n + eps c (z_{n+1} - 2 z_n + z_{n-1}),
    with ghosts z_0 = z_2 (on-site) or z_0 = z_1 (off-site) and z_{N+1} = z_N.
    """
    z = np.asarray(z, dtype=complex)
    if z.size < 2:
        raise LatticeError("chain needs at least 2 nodes")
    z0 = z[1] if bc is BoundaryKind.ON_SITE else z[0]
    z_ext = np.concatenate([[z0], z, [z[-1]]])
    lap = z_ext[2:] - 2.0 * z + z_ext[:-2]
    m = np.abs(z)
    fval = np.asarray(spec.lam(m, mu)) + 1j * np.asarray(spec.omega(m, mu, eps))
    cc = complex(c.c_re, c.c_im)
    return fval * z - 1j * rho * z + eps * cc * lap


def jacobian(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
) -> np.ndarray:
    """Analytic Jacobian of ``residual``, shape (2N, 2N + 1).

    Columns: r_1..r_N, phi_1..phi_{N-1}, rho, and the mu-derivative last.
    Ghost-value chain rules are folded in (off-site left adds the r0 terms
    to the r_1 column, on-site to the r_2 column with phi0 = -phi1).
    """
    n = state.n
    r_ext, phi_ext = _extended(state, bc)
    cosp, sinp = np.cos(phi_ext), np.sin(phi_ext)
    r, mu, rho = state.r, state.mu, state.rho
    cre, cim = c.c_re, c.c_im

    lam, lam_r, lam_mu = spec.lam(r, mu), spec.lam_r(r, mu), spec.lam_mu(r, mu)
    om, om_r = spec.omega(r, mu, eps), spec.omega_r(r, mu, eps)

    J = np.zeros((2 * n, 2 * n + 1))
    node = np.arange(n)
    ra, pa = 2 * node, 2 * node + 1  # amplitude and phase rows

    # Each (row, column) pair occurs at most once per statement, and no entry
    # takes more than two terms, so the fancy-indexed sums below equal those
    # of a per-node loop bit for bit (the walk's branch.csv rides on that).
    J[ra, node] += lam + r * lam_r - 2.0 * eps * cre
    J[pa, node] += (om - rho) + r * om_r - 2.0 * eps * cim
    J[pa, 2 * n - 1] = -r
    J[ra, 2 * n] = lam_mu * r  # omega does not depend on mu

    # right neighbor (r_{n+1}, phi_n): the ghost r_{N+1} = r_N folds into the
    # diagonal, and phi_N = 0 is constant
    cn, sn = cosp[1:], sinp[1:]
    right = np.minimum(node + 1, n - 1)
    J[ra, right] += eps * (cre * cn - cim * sn)
    J[pa, right] += eps * (cre * sn + cim * cn)
    rr, cn, sn = r[1:], cn[:-1], sn[:-1]
    J[ra[:-1], n + node[:-1]] += eps * rr * (-cre * sn - cim * cn)
    J[pa[:-1], n + node[:-1]] += eps * rr * (cre * cn - cim * sn)

    # left neighbor (r_{n-1}, phi_{n-1}): the ghost r0 is r1 off-site and r2
    # on-site; phi0 = -phi1 on-site (column n, factor -1), 0 off-site
    cm, sm = cosp[:-1], sinp[:-1]
    on_site = bc is BoundaryKind.ON_SITE
    left = node - 1
    left[0] = 1 if on_site else 0
    J[ra, left] += eps * (cre * cm + cim * sm)
    J[pa, left] += eps * (-cre * sm + cim * cm)
    keep = slice(0 if on_site else 1, None)
    col = (n + np.maximum(node - 1, 0))[keep]
    rl = (np.where(node == 0, -eps, eps) * r_ext[:-2])[keep]
    cm, sm = cm[keep], sm[keep]
    J[ra[keep], col] += rl * (-cre * sm + cim * cm)
    J[pa[keep], col] += rl * (-cre * cm - cim * sm)

    return J


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def canonicalize(state: PolarState) -> PolarState:
    """Flip negative amplitudes into phase shifts; wrap phases to (-pi, pi].

    Exact because lambda is even in r: the flipped node's residual rows only
    change sign, so solutions map to solutions and residual norms are kept.
    """
    flips = np.where(state.r < 0.0, np.pi, 0.0)
    phi = state.phi + flips[1:] - flips[:-1]
    return PolarState(np.abs(state.r), wrap_phase(phi), state.rho, state.mu)
