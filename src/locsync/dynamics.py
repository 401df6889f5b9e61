"""Time-domain verification of computed lattice states.

Integrates the complex oscillator chain with fixed-step RK4 and checks, in
one batched run that stores no trajectory, that converged steady states are
relative equilibria: rigid rotations Z_n(t) = exp(i rho t) z_n.  The
linearization spectrum of the co-rotating field is a diagnostic.

``chain_rhs`` is the only vector field; ``integrate`` and
``rotation_deviation`` share one RK4 step, which calls it by module name
at every stage.  ``rotation_deviation`` steps only the rows whose answer
can still change, compacting the batch as rows leave.  Leaving at rho = 0
after a step that returns a row bit for bit unchanged is exact: the step
is a function of the row's bits alone, so every later step would repeat
it, and the target exp(i rho t) z0 is z0 itself.  Rows never mix (a
stage is elementwise, the deviation a per-row max), and every operation
and its order are those of the plain RK4 step, so deviations and
``completed`` flags are bitwise those of stepping every row to its end.
``verify``, and ``simulate`` by default, run each state for one rotation
period 2 pi/|rho|, at most 10 time units.
"""
from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _clip_index(n: int) -> np.ndarray:
    """-1..n, which ``take`` clips to the end nodes: the ghost-padded chain."""
    index = np.arange(-1, n + 1)
    index.flags.writeable = False
    return index


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
    fval = spec.lam(m, mu) + 1j * spec.omega(m, mu, eps)
    padded = z.take(_clip_index(z.shape[-1]), axis=-1, mode="clip")
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
    It leaves the batch after its last step; at a non-finite step, keeping
    the deviation of its finite steps with ``completed[b]`` unset, as
    ``integrate`` does; or, at ``rho[b] == 0``, after a step that returns
    it bit for bit unchanged.  Returns ``(deviation, completed)``, both (B,).
    """
    z0 = np.asarray(z0, dtype=complex)
    mu = np.asarray(mu, dtype=float)[:, None]
    rho, n_steps = np.asarray(rho, dtype=float), np.asarray(n_steps, dtype=int)
    deviation, completed = np.zeros(rho.size), np.ones(rho.size, dtype=bool)
    live = np.flatnonzero(n_steps > 0)  # the batch, as indices of its rows
    z, dev, k = z0[live], deviation[live], 0
    while live.size:
        # until a row leaves, the batch and everything read from it are fixed
        z0_b, mu_b, i_rho = z0[live], mu[live], (1j * rho[live])[:, None]
        at_rest = rho[live] == 0.0
        check_rest = at_rest.any()
        for k in range(k + 1, n_steps[live].min() + 1):
            prev, z = z, _rk4_step(spec, c, z, mu_b, eps, dt)
            row = np.abs(z - np.exp(i_rho * (k * dt)) * z0_b).max(axis=1)
            fixed = at_rest & (z.view(np.int64) == prev.view(np.int64)).all(axis=1) \
                if check_rest else at_rest
            if not np.isfinite(row).all():
                break  # a row turned non-finite, or |z - rot| overflowed
            np.maximum(dev, row, out=dev)
            if check_rest and fixed.any():
                break
        finite = np.isfinite(z).all(axis=1)
        # a repeat of the update above, unless the step stopped a row
        np.maximum(dev, row, out=dev, where=finite)
        completed[live[~finite]] = False
        deviation[live] = dev
        keep = finite & ~fixed & (n_steps[live] > k)
        live, z, dev = live[keep], z[keep], dev[keep]
    return deviation, completed


def unfold_state(state: PolarState, bc: BoundaryKind) -> np.ndarray:
    """Expand a symmetry-reduced state to the full symmetric chain.

    Off-site states reflect across n = 1/2 into 2N nodes; on-site states
    reflect across n = 1 into 2N - 1 nodes.
    """
    z = polar_to_complex(state)
    return np.concatenate([z[bc.mirror:][::-1], z])


def linearization_spectrum(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
) -> np.ndarray:
    """Eigenvalues of the co-rotating linearization at a relative equilibrium.

    The co-rotating field g(w) = f(|w|) w - i rho w + eps c (Delta w) has the
    derivative a dw + b Re(conj(u) dw) + eps c Delta dw, with a = f - i rho,
    b = w f'(|w|) and u = w/|w| per node, and Delta closed by the state's
    ghosts.  It is taken as a real 2N x 2N system in (Re w, Im w).
    Diagnostic only; the gauge mode contributes one eigenvalue at zero.
    """
    z = polar_to_complex(state)
    n, m, mu = z.size, np.abs(z), state.mu
    u = np.where(m > 1e-15, z / np.where(m > 1e-15, m, 1.0), 0.0)
    a = spec.lam(m, mu) + 1j * (spec.omega(m, mu, eps) - state.rho)
    b = z * (spec.lam_r(m, mu) + 1j * spec.omega_r(m, mu, eps))
    lap = np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)
    lap[0, bc.mirror] += 1.0  # the left ghost
    lap[-1, -1] += 1.0  # the right ghost r_{N+1} = r_N
    lin = np.diag(a) + eps * complex(c.c_re, c.c_im) * lap  # the complex-linear part
    jac = np.block([[lin.real, -lin.imag], [lin.imag, lin.real]])
    # b Re(conj(u) dw): a rank-one 2 x 2 block on each node's (Re w, Im w)
    node = np.arange(n)
    jac.reshape(2, n, 2, n)[:, node, :, node] += \
        b.view(float).reshape(n, 2, 1) * u.view(float).reshape(n, 1, 2)
    return np.linalg.eigvals(jac)
