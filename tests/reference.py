"""Closed-form references the tests compare computed results with.

The eps = 0 skeletons of the paper (the snake at c = 1, the isolas at
c = i) are exact solutions of the uncoupled lattice, built from the
bistability roots; ``rigid_rotation_deviation`` measures a stored
``dynamics.integrate`` trajectory against a rigid rotation, the reference
for the batched ``dynamics.rotation_deviation``.

The straightforward forms of the engine's hot path sit here too, for bitwise
comparison: ``stacked_newton`` and ``stacked_tangent`` build each bordered
matrix with ``np.vstack`` from a validated ``PolarState`` and equilibrate
out of place; ``empty_point_terms``, ``multiplied_lam``, ``loop_lam_r``, ``array_omega_r``
and ``where_wrap_phase`` write the ghosts into ``np.empty`` arrays, multiply
every lambda term by its c_j (1.0 and -1.0 too), multiply every derivative
term by its power (1.0 at j = 1), return an array of zeros for a spec
without omega1, and wrap out of place; ``walked_alone`` walks one run
through a seed, the one direction that ``continue_branch`` pairs with the
other in lockstep;
``csv_writer_branch_csv`` formats every value on its own
and writes through ``csv.writer``; and ``row_by_row_branch_csv`` parses
``branch.csv`` one row at a time, each row its own ``PolarState``.  ``concatenated_chain_rhs``,
``plain_rk4_step`` and ``masked_rotation_deviation`` are the plain
time-domain check: the vector field with ``np.full`` frequencies and a
concatenated ghost chain, and every RK4 step through the full finite/live
masks, every row stepped to the end of its run.  ``mirrored_chain``
unfolds a half-chain by hand, apart from the boundary rule under test.
"""
import csv
from typing import Literal

import numpy as np

from locsync import continuation
from locsync.asymptotics import AsymptoticsError
from locsync.cli import branch_csv_header
from locsync.continuation import (
    NEWTON_TOL,
    SingularJacobian,
    _dead_interfaces,
    _solid_mask,
    _solid_unit,
)
from locsync.dynamics import Trajectory
from locsync.lattice import BoundaryKind, PolarState, canonicalize
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


def empty_point_terms(spec, state, eps, bc):
    """``lattice.point_terms``."""
    r_ext, phi_ext = np.empty(state.n + 2), np.empty(state.n + 1)
    r_ext[0], r_ext[1:-1], r_ext[-1] = state.r[bc.mirror], state.r, state.r[-1]
    phi_ext[0] = -state.phi[0] if bc.mirror else 0.0
    phi_ext[1:-1], phi_ext[-1] = state.phi, 0.0
    return (r_ext, np.exp(1j * phi_ext), spec.lam(state.r, state.mu)
            + 1j * (spec.omega(state.r, state.mu, eps) - state.rho))


def multiplied_lam(spec, r, mu):
    """``NonlinearitySpec.lam``, every power multiplied by its c_j, 1.0 and -1.0 too."""
    r2 = r * r
    out = spec.mu_coefficient * mu
    for j, cj in enumerate(spec.coeffs):
        if cj:
            out = out + cj * (r2 if j == 1 else r2**j)
    return out


def loop_lam_r(spec, r, mu):
    """``NonlinearitySpec.lam_r``."""
    r2 = r * r
    out = 0.0 * r
    for j, cj in enumerate(spec.coeffs[1:], start=1):
        if cj:
            power = 1.0 if j == 1 else r2 if j == 2 else r2 ** (j - 1)
            out = out + (2 * j * cj) * r * power
    return out


def array_omega_r(spec, r, mu, eps):
    """``NonlinearitySpec.omega_r``."""
    derivative = tuple(j * dj for j, dj in enumerate(spec.omega1_coeffs))[1:]
    terms = [dj * (r if j == 1 else r**j) for j, dj in enumerate(derivative) if dj]
    return eps * (sum(terms[1:], terms[0]) if terms else np.zeros(np.shape(r)))


def where_wrap_phase(phi):
    """``lattice.wrap_phase``."""
    w = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def _equilibrated(a, b):
    scale = np.max(np.abs(a), axis=1)
    scale = np.where(scale > 1e-300, scale, 1.0)
    return a / scale[:, None], b / scale[:, None]


def stacked_newton(system, state, border=None, tol=1e-10, max_iter=12):
    """(state, iterations, tangent) of one row of ``continuation._newton_solve``;
    AssertionError if it does not converge, LinAlgError if a matrix is singular."""
    n, x = state.n, state.x.copy()
    bordered = border is not None
    tangent = None
    for it in range(max_iter + 1):
        current = PolarState.from_packed(x)
        f = system.residual(current)
        err = np.max(np.abs(f))
        if bordered:
            cons = float(np.dot(x - border.x_prev, border.tangent)) - border.ds
            err = max(err, abs(cons))
        if err <= 0.45 * tol:
            out = PolarState(current.r, current.phi, current.rho, current.mu)
            if np.min(out.r) < -1e-9:
                flipped = canonicalize(out)
                if float(np.max(np.abs(system.residual(flipped)))) <= tol:
                    out = flipped
            dead = _dead_interfaces(out, system.eps, tol)
            out = PolarState(out.r, np.where(dead, 0.0, out.phi), out.rho, out.mu)
            return out, it, tangent
        if it == max_iter:
            raise AssertionError("reference Newton did not converge")
        jac = system.jacobian(current)
        if bordered:
            a = np.vstack([jac, border.tangent])
            rhs = np.zeros((2 * n + 1, 2))
            rhs[:-1, 0] = -f
            rhs[-1] = -cons, 1.0
        else:
            a, rhs = jac[:, : 2 * n], -f[:, None]
        sol = np.linalg.solve(*_equilibrated(a, rhs))
        if bordered:
            tangent = sol[:, 1]
            x = x + sol[:, 0]
        else:
            x = x.copy()
            x[: 2 * n] += sol[:, 0]
        x[n: 2 * n - 1] = where_wrap_phase(x[n: 2 * n - 1])


def stacked_tangent(system, state, ref):
    """``continuation.branch_tangent``."""
    n = state.n
    a = np.vstack([system.jacobian(state), ref])
    j = np.flatnonzero(_dead_interfaces(state, system.eps, NEWTON_TOL))
    a[:, n + j] = 0.0
    a[2 * j + 3, n + j] = 1.0
    rhs = np.zeros((2 * n + 1, 1))
    rhs[-1] = 1.0
    try:
        t = np.linalg.solve(*_equilibrated(a, rhs))[:, 0]
    except np.linalg.LinAlgError as err:
        raise SingularJacobian(str(err)) from err
    t[n + j] = 0.0
    return _solid_unit(t, _solid_mask(state))


def walked_alone(system, seed, direction, config):
    """The run through ``seed`` in ``direction`` +1 or -1 walked alone, with
    its folds: one ``_steps`` run through the solve loop, then its
    ``detect_folds``.  With no other run it closes only onto its own start."""
    branch, _ = continuation._solved(
        system, continuation._steps(system, seed, direction, config, [], []))
    return continuation._with_folds(branch, continuation.detect_folds(branch, system, config))


def csv_writer_branch_csv(branch, n: int, path) -> None:
    """``cli.write_branch_csv``: 17 significant digits, one call per value."""
    def fmt(x):
        return f"{float(x):.17g}"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(branch_csv_header(n))
        for step, p in enumerate(branch.points):
            st = p.state
            row = [str(step), fmt(p.arclength), fmt(st.mu), fmt(st.rho),
                   fmt(float(np.linalg.norm(st.r)))]
            row += [fmt(v) for v in st.r]
            row += [fmt(v) for v in st.phi]
            row += ["1" if p.is_fold else "0", str(p.newton_iters)]
            writer.writerow(row)


def row_by_row_branch_csv(path, n: int) -> list[dict]:
    """``cli.read_branch_csv`` on a good file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == branch_csv_header(n)
        rows = []
        for line in reader:
            vals = [float(v) for v in line]
            rows.append({
                "step": int(vals[0]),
                "arclength": vals[1],
                "r_l2": vals[4],
                "is_fold": bool(int(vals[-2])),
                "newton_iters": int(vals[-1]),
                "state": PolarState(vals[5:5 + n], vals[5 + n:5 + 2 * n - 1],
                                    vals[3], vals[2]),
            })
    return rows


def concatenated_chain_rhs(spec: NonlinearitySpec, c, z, mu, eps):
    """``dynamics.chain_rhs``."""
    m = np.abs(z)
    fval = np.asarray(spec.lam(m, mu)) + 1j * np.asarray(spec.omega(m, mu, eps))
    padded = np.concatenate([z[..., :1], z, z[..., -1:]], axis=-1)
    lap = padded[..., 2:] - 2.0 * z + padded[..., :-2]
    return fval * z + eps * complex(c.c_re, c.c_im) * lap


def plain_rk4_step(spec, c, z, mu, eps, dt):
    """One step of ``dynamics.integrate``."""
    k1 = concatenated_chain_rhs(spec, c, z, mu, eps)
    k2 = concatenated_chain_rhs(spec, c, z + 0.5 * dt * k1, mu, eps)
    k3 = concatenated_chain_rhs(spec, c, z + 0.5 * dt * k2, mu, eps)
    k4 = concatenated_chain_rhs(spec, c, z + dt * k3, mu, eps)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def masked_rotation_deviation(spec, c, z0, eps, mu, rho, n_steps, dt):
    """``dynamics.rotation_deviation``: ``(deviation, completed)``."""
    z = z0 = np.asarray(z0, dtype=complex)
    mu = np.asarray(mu, dtype=float)[:, None]
    rho, n_steps = np.asarray(rho, dtype=float), np.asarray(n_steps, dtype=int)
    deviation, completed = np.zeros(rho.size), np.ones(rho.size, dtype=bool)
    for k in range(1, int(n_steps.max(initial=0)) + 1):
        z = plain_rk4_step(spec, c, z, mu, eps, dt)
        finite = np.isfinite(z).all(axis=1)
        completed &= finite | (k > n_steps)
        z[~finite] = 0.0
        live = completed & (k <= n_steps)
        if not live.any():
            break
        rot = np.exp(1j * rho * (k * dt))[:, None] * z0
        np.maximum(deviation, np.abs(z - rot).max(axis=1), out=deviation, where=live)
    return deviation, completed


def mirrored_chain(z: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    """The full symmetric chain of the half-chain ``z``: off-site node 1 is
    repeated across the reflection plane, on-site it is the centre."""
    return np.concatenate([z[::-1] if bc is BoundaryKind.OFF_SITE else z[:0:-1], z])
