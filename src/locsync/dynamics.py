"""Time-domain verification of computed lattice states.

Integrates the complex oscillator chain with fixed-step RK4 and checks
that converged steady states are relative equilibria, i.e. rigid rotations
Z_n(t) = exp(i rho t) z_n.  A linearization spectrum of the co-rotating
vector field is provided as a diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BoundaryKind, CouplingKind, PolarState, polar_to_complex
from .model import NonlinearitySpec

__all__ = [
    "Trajectory",
    "chain_rhs",
    "integrate",
    "unfold_state",
    "rigid_rotation_deviation",
    "linearization_spectrum",
]


@dataclass
class Trajectory:
    times: np.ndarray
    z: np.ndarray          # shape (len(times), n_nodes), complex
    dt: float
    completed: bool = True

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.z = np.asarray(self.z, dtype=complex)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if self.z.shape != (self.times.size, self.z.shape[1]):
            raise ValueError("sample array shape mismatch")


def chain_rhs(
    spec: NonlinearitySpec,
    c: CouplingKind,
    z: np.ndarray,
    mu: float,
    eps: float,
) -> np.ndarray:
    """dZ_n/dt = f(|Z_n|) Z_n + eps c (Z_{n+1} - 2 Z_n + Z_{n-1}).

    The chain closes with off-site (reflecting) ghosts at both outer ends.
    """
    m = np.abs(z)
    fval = np.asarray(spec.lam(m, mu)) + 1j * np.asarray(spec.omega(m, mu, eps))
    z_l = np.concatenate([[z[0]], z[:-1]])
    z_r = np.concatenate([z[1:], [z[-1]]])
    lap = z_r - 2.0 * z + z_l
    return fval * z + eps * complex(c.c_re, c.c_im) * lap


def integrate(
    spec: NonlinearitySpec,
    c: CouplingKind,
    z0: np.ndarray,
    eps: float,
    mu: float,
    horizon: float,
    dt: float,
) -> Trajectory:
    """Classical fixed-step RK4 trajectory of the complex chain.

    Aborts on non-finite values and returns the partial trajectory with
    ``completed`` unset.
    """
    if dt <= 0.0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    z = np.asarray(z0, dtype=complex).copy()
    n_steps = int(round(horizon / dt))
    times = [0.0]
    samples = [z.copy()]
    completed = True
    for i in range(n_steps):
        k1 = chain_rhs(spec, c, z, mu, eps)
        k2 = chain_rhs(spec, c, z + 0.5 * dt * k1, mu, eps)
        k3 = chain_rhs(spec, c, z + 0.5 * dt * k2, mu, eps)
        k4 = chain_rhs(spec, c, z + dt * k3, mu, eps)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            completed = False
            break
        times.append((i + 1) * dt)
        samples.append(z.copy())
    return Trajectory(np.array(times), np.array(samples), dt, completed=completed)


def unfold_state(state: PolarState, bc: BoundaryKind) -> np.ndarray:
    """Expand a symmetry-reduced state to the full symmetric chain.

    Off-site states reflect across n = 1/2 into 2N nodes; on-site states
    reflect across n = 1 into 2N - 1 nodes.
    """
    z = polar_to_complex(state)
    if bc is BoundaryKind.OFF_SITE:
        return np.concatenate([z[::-1], z])
    return np.concatenate([z[:0:-1], z])


def rigid_rotation_deviation(traj: Trajectory, z0: np.ndarray, rho: float) -> float:
    """max_t || Z(t) - exp(i rho t) z0 ||_inf over the trajectory samples."""
    z0 = np.asarray(z0, dtype=complex)
    rot = np.exp(1j * rho * traj.times)[:, None] * z0[None, :]
    return float(np.max(np.abs(traj.z - rot)))


def linearization_spectrum(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind = BoundaryKind.OFF_SITE,
) -> np.ndarray:
    """Eigenvalues of the co-rotating linearization at a relative equilibrium.

    The co-rotating field g(w) = f(|w|) w - i rho w + eps c (Delta w) is
    differentiated as a real 2N x 2N system in (Re w, Im w) with the
    state's ghost closure.  Diagnostic only; the gauge mode contributes one
    eigenvalue at zero.
    """
    z = polar_to_complex(state)
    n = z.size
    x, y = z.real, z.imag
    m = np.abs(z)
    mu, rho = state.mu, state.rho

    lam = np.asarray(spec.lam(m, mu), dtype=float)
    om = np.asarray(spec.omega(m, mu, eps), dtype=float)
    lam_r = np.asarray(spec.lam_r(m, mu), dtype=float)
    om_r = np.asarray(spec.omega_r(m, mu, eps), dtype=float)
    safe_m = np.where(m > 1e-15, m, 1.0)
    gx = np.where(m > 1e-15, x / safe_m, 0.0)
    gy = np.where(m > 1e-15, y / safe_m, 0.0)

    jac = np.zeros((2 * n, 2 * n))
    for i in range(n):
        w = om[i] - rho
        # d/dx_i, d/dy_i of u_i = lam x - w y and v_i = lam y + w x
        jac[i, i] += lam[i] + lam_r[i] * gx[i] * x[i] - om_r[i] * gx[i] * y[i]
        jac[i, n + i] += lam_r[i] * gy[i] * x[i] - w - om_r[i] * gy[i] * y[i]
        jac[n + i, i] += w + lam_r[i] * gx[i] * y[i] + om_r[i] * gx[i] * x[i]
        jac[n + i, n + i] += lam[i] + lam_r[i] * gy[i] * y[i] + om_r[i] * gy[i] * x[i]

    # coupling: eps * c * (ghost-closed discrete Laplacian)
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, i] -= 2.0
        lap[i, i - 1 if i > 0 else (1 if bc is BoundaryKind.ON_SITE else 0)] += 1.0
        lap[i, i + 1 if i < n - 1 else n - 1] += 1.0
    cre, cim = eps * c.c_re, eps * c.c_im
    jac[:n, :n] += cre * lap
    jac[:n, n:] += -cim * lap
    jac[n:, :n] += cim * lap
    jac[n:, n:] += cre * lap

    return np.linalg.eigvals(jac)
