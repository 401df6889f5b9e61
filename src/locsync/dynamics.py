"""Time-domain verification of computed lattice states.

Integrates the complex oscillator chain with fixed-step RK4 and checks
that converged steady states are relative equilibria, i.e. rigid rotations
Z_n(t) = exp(i rho t) z_n, by a batched RK4 relative-equilibrium check
that tracks each state's deviation per step instead of storing trajectories.
A linearization spectrum of the co-rotating vector field is provided as a
diagnostic.

``chain_rhs`` is the only vector field, and it builds no array of
constants; ``integrate`` and ``rotation_deviation`` share one RK4 step,
which calls it by module name at every stage.  While every row of a batch
is live and finite, a step's deviation update is one ``np.maximum``; the
finite/live masks run only once a row stops or a shorter run ends.  Every
floating-point operation and its order are those of the plain RK4 step,
so deviations and ``completed`` flags are bitwise unchanged by these
shortcuts.  A row that turns non-finite stops with ``completed`` unset,
and ``verify`` fails such a sample.  ``verify``, and ``simulate`` by
default, run each state for one rotation period 2 pi/|rho|, at most 10
time units.
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
    "rotation_deviation",
    "unfold_state",
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
    mu: float | np.ndarray,
    eps: float,
) -> np.ndarray:
    """dZ_n/dt = f(|Z_n|) Z_n + eps c (Z_{n+1} - 2 Z_n + Z_{n-1}).

    The chain closes with off-site (reflecting) ghosts at both outer ends.
    ``z`` may be a batch of shape (..., n), with ``mu`` a scalar or an
    array of shape (..., 1); each row is computed exactly as on its own.
    """
    m = np.abs(z)
    # a constant frequency is one scalar, not an array of omega0
    omega = spec.omega(m, mu, eps) if spec.omega1_coeffs else spec.omega0
    fval = spec.lam(m, mu) + 1j * omega
    # indices -1 and n clip to the end nodes: the ghost-padded chain
    padded = z.take(np.arange(-1, z.shape[-1] + 1), axis=-1, mode="clip")
    lap = padded[..., 2:] - 2.0 * z + padded[..., :-2]
    return fval * z + eps * complex(c.c_re, c.c_im) * lap


def _rk4_step(spec, c, z, mu, eps, dt):
    k1 = chain_rhs(spec, c, z, mu, eps)
    k2 = chain_rhs(spec, c, z + 0.5 * dt * k1, mu, eps)
    k3 = chain_rhs(spec, c, z + 0.5 * dt * k2, mu, eps)
    k4 = chain_rhs(spec, c, z + dt * k3, mu, eps)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        z = _rk4_step(spec, c, z, mu, eps, dt)
        if not np.all(np.isfinite(z)):
            completed = False
            break
        times.append((i + 1) * dt)
        samples.append(z.copy())
    return Trajectory(np.array(times), np.array(samples), dt, completed=completed)


def rotation_deviation(spec, c, z0, eps, mu, rho, n_steps, dt):
    """Per-row max_k || Z_k - exp(i rho t_k) z0 ||_inf of one batched RK4 run.

    Row b of ``z0`` (shape (B, n)) takes ``n_steps[b]`` steps of size ``dt``
    at its own ``mu[b]`` and is compared with its own rotation ``rho[b]``.
    A row that turns non-finite stops there, keeps the deviation of its
    finite steps and is reported with ``completed[b]`` unset, as
    ``integrate`` does.  Returns ``(deviation, completed)``, both (B,).
    """
    z = z0 = np.asarray(z0, dtype=complex)
    mu = np.asarray(mu, dtype=float)[:, None]
    rho, n_steps = np.asarray(rho, dtype=float), np.asarray(n_steps, dtype=int)
    deviation, completed = np.zeros(rho.size), np.ones(rho.size, dtype=bool)
    i_rho = (1j * rho)[:, None]
    # until the shortest run ends, and while no row has stopped, every row is
    # live: the masks below would all be true, so a finite ``row`` (hence a
    # finite z) goes straight into ``deviation``
    last = int(n_steps.max(initial=0))
    all_live = int(n_steps.min(initial=last))
    for k in range(1, last + 1):
        z = _rk4_step(spec, c, z, mu, eps, dt)
        row = np.abs(z - np.exp(i_rho * (k * dt)) * z0).max(axis=1)
        if k <= all_live and np.isfinite(row).all():
            np.maximum(deviation, row, out=deviation)
            continue
        # a stopped row is zeroed, and |0 - rot| is finite: it must never
        # come back to the unmasked update
        all_live = 0
        finite = np.isfinite(z).all(axis=1)
        completed &= finite | (k > n_steps)
        z[~finite] = 0.0  # a stopped row is ignored; zeros keep it quiet
        live = completed & (k <= n_steps)
        if not live.any():
            break
        # only a row that is not live was zeroed, so ``row`` holds for the rest
        np.maximum(deviation, row, out=deviation, where=live)
    return deviation, completed


def unfold_state(state: PolarState, bc: BoundaryKind) -> np.ndarray:
    """Expand a symmetry-reduced state to the full symmetric chain.

    Off-site states reflect across n = 1/2 into 2N nodes; on-site states
    reflect across n = 1 into 2N - 1 nodes.
    """
    z = polar_to_complex(state)
    if bc is BoundaryKind.OFF_SITE:
        return np.concatenate([z[::-1], z])
    return np.concatenate([z[:0:-1], z])


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
