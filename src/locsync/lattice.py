"""Steady-state polar system of the coupled oscillator chain.

For the relative-equilibrium ansatz Z_n(t) = exp(i*rho*t) z_n with
z_n = r_n exp(i*theta_n), gauge invariance leaves the amplitudes r_1..r_N,
the phase differences phi_n = theta_{n+1} - theta_n, and the frequency rho
as unknowns.  Each node contributes an amplitude equation and a phase
equation; the chain is closed by ghost values encoding the on/off-site
reflection on the left and an off-site truncation on the right.  The ghosts,
cos/sin of the phases, lambda and omega are ``point_terms``: a Newton
iterate builds them once and hands them to both ``residual`` and ``jacobian``,
which can also scatter straight into the square bordered matrix [J; border].
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .model import NonlinearitySpec

__all__ = [
    "LatticeError",
    "BoundaryKind",
    "CouplingKind",
    "PolarState",
    "ghost_values",
    "point_terms",
    "residual",
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
    else:
        r0, phi0 = state.r[0], 0.0
    return float(r0), float(phi0), float(state.r[-1]), 0.0


def point_terms(spec: NonlinearitySpec, state: PolarState, eps: float,
                bc: BoundaryKind) -> tuple:
    """What ``residual`` and ``jacobian`` share at a point, built once:
    r_0..r_{N+1} with the ghosts, cos and sin of phi_0..phi_N, lambda, omega."""
    r0, phi0, r_right, phi_right = ghost_values(state, bc)
    r_ext, phi_ext = np.empty(state.n + 2), np.empty(state.n + 1)
    r_ext[0], r_ext[1:-1], r_ext[-1] = r0, state.r, r_right
    phi_ext[0], phi_ext[1:-1], phi_ext[-1] = phi0, state.phi, phi_right
    return (r_ext, np.cos(phi_ext), np.sin(phi_ext),
            spec.lam(state.r, state.mu), spec.omega(state.r, state.mu, eps))


def residual(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
    terms: tuple | None = None,
) -> np.ndarray:
    """Polar residual, interleaved (amplitude eq, phase eq) per node.

    With A_n = r_{n+1} cos phi_n - 2 r_n + r_{n-1} cos phi_{n-1} and
    B_n = r_{n+1} sin phi_n - r_{n-1} sin phi_{n-1}:

        amplitude_n = lambda(r_n, mu) r_n + eps (c_re A_n - c_im B_n)
        phase_n     = (omega(r_n, mu, eps) - rho) r_n + eps (c_re B_n + c_im A_n)

    ``terms`` are the state's ``point_terms``, shared with ``jacobian``.
    """
    r_ext, cosp, sinp, lam, om = terms or point_terms(spec, state, eps, bc)
    r = state.r
    A = r_ext[2:] * cosp[1:] - 2.0 * r + r_ext[:-2] * cosp[:-1]
    B = r_ext[2:] * sinp[1:] - r_ext[:-2] * sinp[:-1]
    out = np.empty(2 * state.n)
    out[0::2] = lam * r + eps * (c.c_re * A - c.c_im * B)
    out[1::2] = (om - state.rho) * r + eps * (c.c_re * B + c.c_im * A)
    return out


def polar_to_complex(state: PolarState) -> np.ndarray:
    """z_n = r_n exp(i theta_n) with theta_1 = 0 and theta_{n+1} = theta_n + phi_n."""
    theta = np.concatenate([[0.0], np.cumsum(state.phi)])
    return state.r * np.exp(1j * theta)


@functools.lru_cache(maxsize=None)
def _stencil_plan(n: int, bc: BoundaryKind) -> np.ndarray:
    """Flat (2N, 2N + 1) index of each value ``jacobian`` scatters, in order."""
    node = np.arange(n)
    ra, pa = 2 * node, 2 * node + 1  # amplitude and phase rows
    right = np.minimum(node + 1, n - 1)  # the ghost r_{N+1} = r_N
    on_site = bc is BoundaryKind.ON_SITE
    left = np.r_[1 if on_site else 0, node[:-1]]  # the ghost r0: r2 on-site, r1 off
    phi = n + node[:-1]  # phi_N = 0 is constant: no right phi at the last node
    keep = slice(0 if on_site else 1, None)  # phi0 = -phi1 on-site, 0 off-site
    rows = (ra, pa, ra, pa, ra[:-1], pa[:-1], ra, pa, ra[keep], pa[keep])
    cols = (node, node, right, right, phi, phi, left, left) + (np.r_[n, phi][keep],) * 2
    plan = np.concatenate([i * (2 * n + 1) + j for i, j in zip(rows, cols)])
    plan.flags.writeable = False
    return plan


def jacobian(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
    terms: tuple | None = None,
    border: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic Jacobian of ``residual``, shape (2N, 2N + 1).

    Columns: r_1..r_N, phi_1..phi_{N-1}, rho, and the mu-derivative last.
    Ghost-value chain rules are folded in (off-site left adds the r0 terms
    to the r_1 column, on-site to the r_2 column with phi0 = -phi1).  The
    entries are scattered through a plan cached per (N, boundary).  With a
    ``border`` row the result is the square bordered matrix [J; border],
    scattered in place; ``terms`` are the state's ``point_terms``.
    """
    n, r, mu, rho = state.n, state.r, state.mu, state.rho
    r_ext, cosp, sinp, lam, om = terms or point_terms(spec, state, eps, bc)
    cre, cim = c.c_re, c.c_im
    lam_r, lam_mu = spec.lam_r(r, mu), spec.lam_mu(r, mu)
    om_r = spec.omega_r(r, mu, eps)

    # c_re and c_im times cos and sin at phi_0..phi_N; the right neighbor
    # reads [1:], the left one [:-1].  Negating a product is exact, so each
    # sum has the bits of its per-node form, e.g. (-c_re sin) - c_im cos.
    cc, ss, cs, sc = cre * cosp, cim * sinp, cre * sinp, cim * cosp
    right_r, left_r_phase = (cc - ss)[1:], (sc - cs)[:-1]
    rr, rl = eps * r[1:], eps * r_ext[:-2]
    rl[0] = -rl[0]  # phi0 = -phi1 on-site; off-site, keep drops this entry
    keep = slice(0 if bc is BoundaryKind.ON_SITE else 1, None)
    values = np.concatenate([  # amplitude row, then phase row
        lam + r * lam_r - 2.0 * eps * cre, (om - rho) + r * om_r - 2.0 * eps * cim,
        eps * right_r, eps * (cs + sc)[1:],  # right r
        rr * (-cs - sc)[1:-1], rr * right_r[:-1],  # right phi
        eps * (cc + ss)[:-1], eps * left_r_phase,  # left r
        (rl * left_r_phase)[keep], (rl * (-cc - ss)[:-1])[keep],  # left phi
    ])
    # No entry takes more than two values and bincount adds them to 0 in plan
    # order, so this equals a per-node loop bit for bit (the walk's branch.csv
    # rides on it).  The rho and mu columns are assigned after the scatter,
    # which would turn their -0.0 at r_n = 0 into 0.0.  A flat index of the
    # (2N, 2N + 1) plan is the same entry of the (2N + 1)-row bordered matrix.
    rows = 2 * n + (border is not None)
    J = np.bincount(_stencil_plan(n, bc), values, rows * (2 * n + 1)).reshape(rows, -1)
    J[1:2 * n:2, 2 * n - 1] = -r
    J[0:2 * n:2, 2 * n] = lam_mu * r  # omega does not depend on mu
    if border is not None:
        J[2 * n] = border
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
