"""Closed-form references the tests compare computed results with.

The eps = 0 skeletons of the paper (the snake at c = 1, the isolas at
c = i) are exact solutions of the uncoupled lattice, built from the
bistability roots; ``rigid_rotation_deviation`` measures a stored
``dynamics.integrate`` trajectory against a rigid rotation, the reference
for the batched ``dynamics.rotation_deviation``.
"""
from typing import Literal

import numpy as np

from locsync.asymptotics import AsymptoticsError
from locsync.dynamics import Trajectory
from locsync.lattice import PolarState
from locsync.model import NonlinearitySpec, bistable_roots, rest_state_roots


def _mu_star(s: float) -> float:
    return s if s <= 1.0 else 2.0 - s


def _roots_at(spec, mu):
    if mu <= 0.0:
        return rest_state_roots(spec)
    prof = bistable_roots(spec, mu)
    return prof.r_minus, prof.r_plus


def snaking_domain(n_nodes: int) -> tuple[float, float]:
    """Concatenated arclength domain of the eps=0 snaking skeleton."""
    return 0.0, 2.0 * n_nodes


def snaking_curve(spec: NonlinearitySpec, n_nodes: int, s: float) -> PolarState:
    """Exact eps=0 snaking-branch point at concatenated arclength s.

    Segment k = floor(s/2) (local coordinate in [0, 2]) has its first k
    nodes on R_+(s), node k+1 on R_0(s), and the rest at zero; mu follows
    the tent map mu_*(s) and all phases vanish.
    """
    lo, hi = snaking_domain(n_nodes)
    if not (lo <= s <= hi):
        raise AsymptoticsError(f"s={s} outside the snaking domain [{lo}, {hi}]")
    seg = min(int(s // 2), n_nodes - 1)
    local = s - 2.0 * seg
    mu = _mu_star(local)
    r_minus, r_plus = _roots_at(spec, mu)
    r0 = r_minus if local <= 1.0 else r_plus
    r = np.zeros(n_nodes)
    r[:seg] = r_plus
    r[seg] = r0
    return PolarState(r, np.zeros(n_nodes - 1), spec.omega0, mu)


def isola_curve(
    spec: NonlinearitySpec,
    n_nodes: int,
    k: int,
    s: float,
    half: Literal["lower", "upper"],
) -> PolarState:
    """Exact eps=0 point of the k-th conservative isola skeleton.

    Lower half: k nodes at R_+(s) and node k+1 at R_0(s).  Upper half:
    node k+1 at R_0(2-s) with node k+2 recruited at R_-(s).  Phases are
    -pi/2 across the first k interfaces and +pi/2 at interface k+1.
    """
    if not (1 <= k <= n_nodes - 2):
        raise AsymptoticsError(f"need 1 <= k <= N-2, got k={k}, N={n_nodes}")
    if not (0.0 <= s <= 2.0):
        raise AsymptoticsError(f"s={s} outside [0, 2]")
    if half not in ("lower", "upper"):
        raise AsymptoticsError(f"half must be 'lower' or 'upper', got {half!r}")
    mu = _mu_star(s)
    r_minus, r_plus = _roots_at(spec, mu)
    r = np.zeros(n_nodes)
    r[:k] = r_plus
    if half == "lower":
        r[k] = r_minus if s <= 1.0 else r_plus
    else:
        s_mirror = 2.0 - s
        r[k] = r_minus if s_mirror <= 1.0 else r_plus
        r[k + 1] = r_minus
    phi = np.zeros(n_nodes - 1)
    phi[:k] = -np.pi / 2.0
    if k < n_nodes - 1:
        phi[k] = np.pi / 2.0
    return PolarState(r, phi, spec.omega0, mu)


def rigid_rotation_deviation(traj: Trajectory, z0: np.ndarray, rho: float) -> float:
    """max_t || Z(t) - exp(i rho t) z0 ||_inf over the trajectory samples."""
    z0 = np.asarray(z0, dtype=complex)
    rot = np.exp(1j * rho * traj.times)[:, None] * z0[None, :]
    return float(np.max(np.abs(traj.z - rot)))
