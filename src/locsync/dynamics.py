"""Time-domain verification of computed lattice states.

Integrates the complex oscillator chain with fixed-step RK4 and checks, in
one batched run that holds one bounded block of steps, that converged
steady states are relative equilibria: rigid rotations
Z_n(t) = exp(i rho t) z_n.  The linearization spectrum of the co-rotating
field is a diagnostic.

``chain_rhs`` is the only vector field, built by ``_field`` at one mu and
eps; ``integrate`` and ``rotation_deviation`` share one RK4 kernel, which
builds that field once per block of steps and calls it at every stage.
The field hoists what its stages share: lambda's mu term a*mu, eps c as one
complex scalar and the clip index; ``NonlinearitySpec.lam_sum`` adds
lambda's nonzero terms to that mu term, as ``lam`` does.  A run steps in
blocks of 1, 2, 4, ... steps, each at most what BLOCK_ENTRIES holds, so a
row that stops after one step costs one step and a long run stays in
bounded memory.
``rotation_deviation`` steps only the rows whose answer can still change;
a lone live row steps as itself, a 1-D array at its scalar mu.
Once per block, whole-block operations find each row's deviations, its
first non-finite step and, at rho = 0, its first step that returns it bit
for bit unchanged; the row's run is cut there, as a step-by-step run would
stop it, and its steps past the cut are discarded.  A block never passes a
live row's last step.  Leaving at rho = 0 after an unchanged step is exact:
the step is a function of the row's bits alone, so every later step would
repeat it, and the target exp(i rho t) z0 is z0 itself.  Rows never mix (a
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


_TWO = np.array(2.0, dtype=complex)  # 2.0 as a complex operand, converted once
_TWO.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _clip_index(n: int) -> np.ndarray:
    """-1..n, which ``take`` clips to the end nodes: the ghost-padded chain."""
    index = np.arange(-1, n + 1)
    index.flags.writeable = False
    return index


def _field(spec: NonlinearitySpec, c: CouplingKind, mu, eps: float, n: int):
    """The vector field of ``chain_rhs`` at one ``mu`` and ``eps`` on ``n``
    nodes, as a function of z alone.  What every stage shares is built once:
    the mu term a*mu of lambda and eps c, both as arrays (0-d for a scalar),
    and the clip index.  Every stage then runs the same elementwise
    operations in the same order, so a row's bits do not depend on its
    batch or on the shape it is handed in."""
    mu_term = np.asarray(spec.mu_coefficient * mu)
    ec = np.array(eps * complex(c.c_re, c.c_im))
    index = _clip_index(n)
    lam_sum = spec.lam_sum
    omega = None if spec.real_field else spec.omega

    def field(z):
        m = np.abs(z)
        fval = lam_sum(mu_term, m * m)
        if omega is not None:
            fval = fval + 1j * omega(m, mu, eps)
        padded = z.take(index, axis=-1, mode="clip")
        lap = padded[..., 2:] - _TWO * z + padded[..., :-2]
        return fval * z + ec * lap

    return field


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
    return _field(spec, c, mu, eps, z.shape[-1])(z)


BLOCK_ENTRIES = 1 << 13  # complex entries of one RK4 block buffer: 128 KiB


def block_steps(grown: int, rows: int, n: int) -> int:
    """Steps in the next RK4 block of ``rows`` rows of ``n`` nodes: ``grown``
    (1, 2, 4, ..., doubled after each block), at most what fits in
    BLOCK_ENTRIES together with the block's start, and at least one."""
    return max(1, min(grown, BLOCK_ENTRIES // (rows * n) - 1))


def _rk4_steps(field, block, dt):
    """Fill ``block[1:]`` with classical RK4 steps of ``field`` of size ``dt``
    from ``block[0]``."""
    # the scalars as complex 0-d arrays: the same factors, converted once
    half, full, sixth = (np.array(v, dtype=complex) for v in (0.5 * dt, dt, dt / 6.0))
    for z, out in zip(block[:-1], block[1:]):
        k1 = field(z)
        k2 = field(z + half * k1)
        k3 = field(z + half * k2)
        k4 = field(z + full * k3)
        np.add(z, sixth * (k1 + _TWO * k2 + _TWO * k3 + k4), out=out)


def _first(event: np.ndarray) -> np.ndarray:
    """Per row (the last axis), the first step of a block at which ``event``
    holds, or the block's length where it never does."""
    return np.where(event.any(axis=0), event.argmax(axis=0), len(event))


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

    Stops at the first non-finite step and returns the trajectory before it
    with ``completed`` unset.
    """
    if dt <= 0.0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    z0 = np.asarray(z0, dtype=complex)
    n_steps = int(round(horizon / dt))
    traj = np.empty((n_steps + 1, z0.size), dtype=complex)
    traj[0], k, grown = z0, 0, 1
    field = _field(spec, c, mu, eps, z0.size)
    while k < n_steps:
        steps = min(block_steps(grown, 1, z0.size), n_steps - k)
        _rk4_steps(field, traj[k: k + steps + 1], dt)
        stop = _first(~np.isfinite(traj[k + 1: k + steps + 1]).all(axis=1))
        if stop < steps:
            end = k + 1 + stop
            return Trajectory(dt * np.arange(end), traj[:end], dt, completed=False)
        k, grown = k + steps, 2 * grown
    return Trajectory(dt * np.arange(n_steps + 1), traj, dt)


def _block(spec, c, z, z0, eps, mu, rho, k, steps, dt):
    """``steps`` RK4 steps of the rows ``z`` after step ``k``, in one buffer.

    Returns, per row: the max deviation from exp(i rho t) z0 over the steps
    the row counts, its first non-finite step, its first unchanged step at
    rho = 0 (``steps`` where there is none), and its state after the block.
    """
    block = np.empty((steps + 1,) + z.shape, dtype=complex)
    block[0] = z
    if len(z) == 1:  # a lone row steps as itself, 1-D at its scalar mu
        _rk4_steps(_field(spec, c, mu.reshape(()), eps, z.shape[1]), block[:, 0], dt)
    else:
        _rk4_steps(_field(spec, c, mu, eps, z.shape[1]), block, dt)
    z_k, bits = block[1:], block.view(np.int64)
    broke = _first(~np.isfinite(z_k).all(axis=2))
    rest = _first((bits[1:] == bits[:-1]).all(axis=2) & (rho == 0.0))
    # z0 copied, then rotated in place: a broadcast product would add ufunc buffers
    rot = np.empty_like(z_k)
    rot[...] = z0
    t_k = dt * np.arange(k + 1, k + steps + 1)[:, None, None]
    np.multiply(np.exp((1j * rho)[:, None] * t_k), rot, out=rot)
    row = np.abs(np.subtract(z_k, rot, out=rot)).max(axis=2)  # (steps, rows)
    # a row counts its steps before a non-finite one, through an unchanged one
    row[np.arange(steps)[:, None] >= np.minimum(broke, rest + 1)] = 0.0  # dev starts at 0.0
    return row.max(axis=0), broke, rest, block[-1].copy()


def rotation_deviation(spec, c, z0, eps, mu, rho, n_steps, dt):
    """Per-row max_k || Z_k - exp(i rho t_k) z0 ||_inf of one batched RK4 run.

    Row b of ``z0`` (shape (B, n)) takes ``n_steps[b]`` steps of size ``dt``
    at its own ``mu[b]`` and is compared with its own rotation ``rho[b]``.
    It leaves the batch after its last step; at a non-finite step, keeping
    the deviation of its finite steps with ``completed[b]`` unset, as
    ``integrate`` does; or, at ``rho[b] == 0``, after a step that returns
    it bit for bit unchanged.  Returns ``(deviation, completed)``, both (B,).
    The live rows step in blocks of ``block_steps`` steps.
    """
    z0 = np.asarray(z0, dtype=complex)
    mu = np.asarray(mu, dtype=float)[:, None]
    rho, n_steps = np.asarray(rho, dtype=float), np.asarray(n_steps, dtype=int)
    deviation, completed = np.zeros(rho.size), np.ones(rho.size, dtype=bool)
    live = np.flatnonzero(n_steps > 0)  # the batch, as indices of its rows
    z, dev, k, grown = z0[live], deviation[live], 0, 1
    while live.size:
        steps = min(block_steps(grown, *z.shape), n_steps[live].min() - k)
        row, broke, rest, z = _block(spec, c, z, z0[live], eps, mu[live], rho[live],
                                     k, steps, dt)
        np.maximum(dev, row, out=dev)
        k, grown = k + steps, 2 * grown
        deviation[live] = dev
        completed[live[broke < rest]] = False  # an unchanged step follows a finite one
        keep = (broke == steps) & (rest == steps) & (n_steps[live] > k)
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
