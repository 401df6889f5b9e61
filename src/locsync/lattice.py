"""Steady-state polar system of the coupled oscillator chain.

For the relative-equilibrium ansatz Z_n(t) = exp(i*rho*t) z_n with
z_n = r_n exp(i*theta_n), gauge invariance leaves the amplitudes r_1..r_N,
the phase differences phi_n = theta_{n+1} - theta_n, and the frequency rho
as unknowns.  Each node contributes one complex equation, evaluated in
complex arithmetic: its real part is the amplitude equation and its
imaginary part the phase equation.  The chain is closed by ghost values:
on the left the reflection of a symmetric pattern, whose one rule is
``BoundaryKind.mirror``; on the right an off-site truncation.  A
``PolarState`` is one packed vector (r, phi, rho, mu), the vector the
corrector updates in place, or a stack of such rows, shape (B, 2N + 1).
``point_terms``, ``residual`` and ``jacobian`` work row by row over a
stack, with each row's arithmetic that of a stack of one.  A Newton
iterate builds ``point_terms`` once and hands them to both ``residual``
and ``jacobian``.
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
    """Where the reflection plane of a symmetric pattern cuts the left end.

    The left ghost r_0 copies node ``mirror`` (0-based): node 2 on-site,
    where the plane passes through node 1, and node 1 off-site, where it
    lies between node 1 and the ghost.  The phase ghost follows:
    phi_0 = -phi_1 when ``mirror`` is set, else +0.0.
    """

    ON_SITE = "on_site"
    OFF_SITE = "off_site"

    def __init__(self, value: str):
        self.mirror = int(value == "on_site")  # a plain attribute: read per iterate


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


class PolarState:
    """One lattice solution candidate as one packed vector x = (r_1..r_N,
    phi_1..phi_{N-1}, rho, mu) of length 2N + 1: ``r`` and ``phi`` are
    writable views into x, and ``rho`` and ``mu`` are read from it.  Over a
    stack x of shape (B, 2N + 1), ``r`` and ``phi`` are (B, N) and
    (B, N - 1) views; ``rho`` and ``mu`` are read from a single state only."""

    __slots__ = ("x", "r", "phi")

    def __init__(self, r, phi, rho, mu):  # validates, and copies into a new x
        r = np.array(r, dtype=float, ndmin=1)
        phi = np.array(phi, dtype=float, ndmin=1) if np.size(phi) else np.zeros(0)
        if r.ndim != 1 or phi.shape != (r.size - 1,):
            raise LatticeError(f"need len(phi) = len(r) - 1, got {phi.size} and {r.size}")
        self._share(np.concatenate([r, phi, [float(rho), float(mu)]]))

    @classmethod
    def from_packed(cls, x: np.ndarray) -> "PolarState":
        """The state over the float vector or stack ``x``, last axis 2N + 1,
        shared, not copied."""
        return cls.__new__(cls)._share(x)

    @classmethod
    def rows(cls, x: np.ndarray) -> list["PolarState"]:
        """One state per row of the float stack ``x``, each a view into it;
        the stack is checked once."""
        cls.from_packed(x)
        return [cls.__new__(cls)._view(row) for row in x]

    def _share(self, x: np.ndarray) -> "PolarState":
        if not np.isfinite(x).all():
            raise LatticeError("non-finite entries in state")
        return self._view(x)

    def _view(self, x: np.ndarray) -> "PolarState":
        n = x.shape[-1] // 2
        self.x, self.r, self.phi = x, x[..., :n], x[..., n: 2 * n - 1]
        return self

    @property
    def rho(self) -> float:
        return self.x.item(-2)

    @property
    def mu(self) -> float:
        return self.x.item(-1)

    @property
    def n(self) -> int:
        return self.r.shape[-1]

    def copy(self) -> "PolarState":
        return PolarState.from_packed(self.x.copy())


def point_terms(spec: NonlinearitySpec, state: PolarState, eps: float,
                bc: BoundaryKind) -> tuple:
    """What ``residual`` and ``jacobian`` share at a point, built once:
    r_0..r_{N+1} with the ghosts, e = exp(i phi) at phi_0..phi_N, and the
    co-rotating f = lambda + i (omega - rho).  The left ghosts are
    (r[mirror], -phi_1 or +0.0), the right ones (r_N, 0.0).  Over a stack
    the node axis comes first and the stack's axis last."""
    n = state.n
    if n < 2:
        raise LatticeError("chain needs at least 2 nodes")
    x = state.x.T
    r_ext, phi_ext = np.empty((n + 2,) + x.shape[1:]), np.empty((n + 1,) + x.shape[1:])
    r_ext[0], r_ext[1:-1], r_ext[-1] = x[bc.mirror], x[:n], x[n - 1]
    phi_ext[0] = -x[n] if bc.mirror else 0.0
    phi_ext[1:-1], phi_ext[-1] = x[n: 2 * n - 1], 0.0
    r = r_ext[1:-1]  # contiguous over a stack, unlike x's columns
    return (r_ext, np.exp(1j * phi_ext),
            spec.lam(r, x[-1]) + 1j * (spec.omega(r, x[-1], eps) - x[-2]))


def residual(
    spec: NonlinearitySpec,
    c: CouplingKind,
    state: PolarState,
    eps: float,
    bc: BoundaryKind,
    terms: tuple | None = None,
) -> np.ndarray:
    """Polar residual, interleaved (amplitude eq, phase eq) per node: the
    float view of the co-rotating field divided by exp(i theta_n),

        R_n = f_n r_n + eps c (r_{n+1} e_n - 2 r_n + r_{n-1} conj(e_{n-1}))

    with f = lambda + i (omega - rho) and e_n = exp(i phi_n).  ``terms`` are
    the state's ``point_terms``, shared with ``jacobian``.
    """
    r_ext, e, f = terms or point_terms(spec, state, eps, bc)
    r = r_ext[1:-1]
    lap = r_ext[2:] * e[1:] - 2.0 * r + r_ext[:-2] * e[:-1].conj()
    out = f * r + eps * complex(c.c_re, c.c_im) * lap
    return np.ascontiguousarray(out.T).view(float)  # a stack's rows first


def polar_to_complex(state: PolarState) -> np.ndarray:
    """z_n = r_n exp(i theta_n) with theta_1 = 0 and theta_{n+1} = theta_n + phi_n."""
    theta = np.concatenate([[0.0], np.cumsum(state.phi)])
    return state.r * np.exp(1j * theta)


@functools.lru_cache(maxsize=None)
def _stencil_plan(n: int, mirror: int) -> np.ndarray:
    """Flat (2N, 2N + 1) index of the real then imaginary part of each complex
    value ``jacobian`` scatters, in order: amplitude row, then phase row."""
    node = np.arange(n)
    keep = slice(1 - mirror, None)  # phi0 = -phi1 on-site, 0 off-site
    phi = n + node[:-1]  # phi_N = 0 is constant: no right phi at the last node
    rows = (node, node, node[:-1], node, node[keep])
    cols = (node, np.minimum(node + 1, n - 1),  # the ghost r_{N+1} = r_N
            phi, np.r_[mirror, node[:-1]],  # the ghost r0 = r[mirror]
            np.r_[n, phi][keep])
    amplitude = np.concatenate([2 * (2 * n + 1) * i + j for i, j in zip(rows, cols)])
    plan = np.stack([amplitude, amplitude + 2 * n + 1], axis=1).ravel()  # phase row below
    plan.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=64)
def _stacked_plan(n: int, mirror: int, stack: int, rows: int) -> np.ndarray:
    """``_stencil_plan`` over a stack of (rows, 2N + 1) matrices, for values
    laid out node first and stack row second."""
    offsets = rows * (2 * n + 1) * np.arange(stack)[:, None]
    plan = (_stencil_plan(n, mirror).reshape(-1, 1, 2) + offsets).ravel()
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
    """Analytic Jacobian of ``residual``, shape (2N, 2N + 1), one per row of a stack.

    Columns: r_1..r_N, phi_1..phi_{N-1}, rho, and the mu-derivative last.
    Five complex bands of dR_n, with the ghosts' chain rules folded in, are
    scattered through a plan cached per (N, boundary): the diagonal
    f + r (lambda_r + i omega_r) - 2 eps c, right r eps c e_n, right phi
    i eps c r_{n+1} e_n, left r eps c conj(e_{n-1}) and left phi
    -i eps c r_{n-1} conj(e_{n-1}).  With a ``border`` row (one per row of a
    stack) the result is the square bordered matrix [J; border], scattered
    in place.
    """
    n, mu = state.n, state.x.T[-1]
    r_ext, e, f = terms or point_terms(spec, state, eps, bc)
    r = r_ext[1:-1]
    ec = eps * complex(c.c_re, c.c_im)
    right, left = ec * e[1:], ec * e[:-1].conj()
    left_phi = -1j * r_ext[:-2]
    left_phi[0] = -left_phi[0]  # phi0 = -phi1 on-site; off-site, keep drops it
    keep = slice(1 - bc.mirror, None)
    values = np.concatenate([
        f + r * (spec.lam_r(r, mu) + 1j * spec.omega_r(r, mu, eps)) - 2.0 * ec,
        right, 1j * r[1:] * right[:-1], left, (left_phi * left)[keep],
    ])
    # No entry takes more than two values and bincount adds them to 0 in plan
    # order, as a per-node loop does.  The rho and mu columns are set after
    # the scatter, which would turn their -0.0 at r_n = 0 into 0.0.  A flat
    # index of the (2N, 2N + 1) plan is the same entry of the bordered matrix.
    rows, stack = 2 * n + (border is not None), r.size // n
    J = np.bincount(_stacked_plan(n, bc.mirror, stack, rows), values.view(float).ravel(),
                    stack * rows * (2 * n + 1))
    J = J.reshape(r.shape[1:] + (rows, 2 * n + 1))
    np.negative(state.r, out=J[..., 1:2 * n:2, 2 * n - 1])
    np.multiply(spec.mu_coefficient, state.r, out=J[..., 0:2 * n:2, 2 * n])  # omega has no mu
    if border is not None:
        J[..., 2 * n, :] = border
    return J


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi], in place for a float array; returns it."""
    w = np.asarray(phi, dtype=float)
    np.mod(np.add(w, np.pi, out=w), 2.0 * np.pi, out=w)  # (phi + pi) mod 2 pi
    w -= np.pi
    w[w == -np.pi] = np.pi
    return w


def canonicalize(state: PolarState) -> PolarState:
    """Flip negative amplitudes into phase shifts; wrap phases to (-pi, pi].

    Exact because lambda is even in r: the flipped node's residual rows only
    change sign, so solutions map to solutions and residual norms are kept.
    """
    flips = np.where(state.r < 0.0, np.pi, 0.0)
    phi = state.phi + flips[1:] - flips[:-1]
    return PolarState(np.abs(state.r), wrap_phase(phi), state.rho, state.mu)
