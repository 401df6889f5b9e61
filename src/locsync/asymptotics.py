"""Leading-order formulas: seeds, fold predictors and the mismatch bound.

Everything here is closed-form in the bistability roots (r_minus, r_plus).
Seeds feed the continuation engine; the fold predictors are what ``verify``
compares computed folds with (the mu = 0 predictor is the fold mu as a
plain float), and the mismatch bound is what ``mismatch`` reports.
The recruitment rule names the node that folds first on a conservative
branch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .lattice import BoundaryKind, CouplingKind, PolarState
from .model import NonlinearitySpec, bistable_roots, rest_state_roots

__all__ = [
    "AsymptoticsError",
    "SeedAnsatz",
    "MismatchReport",
    "RecruitmentPrediction",
    "core_correction",
    "farfield_tail",
    "build_seed",
    "fold_prediction_mu0",
    "mu0_normalization",
    "mismatch_bound",
    "conservative_recruitment",
]

MU0_FOLD_CONSTANT = 1.5 * 2.0 ** (1.0 / 3.0)   # (3/2) * cbrt(2)


class AsymptoticsError(ValueError):
    pass


@dataclass(frozen=True)
class SeedAnsatz:
    """Pattern descriptor for an asymptotic seed.

    ``k`` core nodes sit on the nonzero roots selected by ``pattern``
    (entries "plus"/"minus"); the remaining nodes carry the geometric
    far-field tail.  A k-core all-plus conservative seed lands on the isola
    whose mid-height pattern has k fully active nodes.
    """

    k: int
    pattern: tuple[str, ...]
    phase_template: Literal["in_phase", "conservative"]
    bc: BoundaryKind
    n_nodes: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n_nodes - 1):
            raise AsymptoticsError(f"need 1 <= k <= N-1, got k={self.k}, N={self.n_nodes}")
        if len(self.pattern) != self.k:
            raise AsymptoticsError("pattern length must equal k")
        if any(p not in ("plus", "minus") for p in self.pattern):
            raise AsymptoticsError("pattern entries must be 'plus' or 'minus'")
        if self.phase_template not in ("in_phase", "conservative"):
            raise AsymptoticsError(f"unknown phase template {self.phase_template!r}")


def _core_roots(spec, mu, pattern):
    r_minus, r_plus = bistable_roots(spec, mu)
    return np.array([r_plus if p == "plus" else r_minus for p in pattern])


def _core_denominators(spec, mu, r0):
    d = np.asarray(spec.lam(r0, mu)) + r0 * np.asarray(spec.lam_r(r0, mu))
    if np.any(np.abs(d) < 1e-12):
        raise AsymptoticsError(
            "core linearization denominator lambda + r lambda_r vanishes"
        )
    return d


def core_correction(
    spec: NonlinearitySpec,
    mu: float,
    r0: np.ndarray,
    phi: np.ndarray,
    bc: BoundaryKind,
    coupling: CouplingKind,
) -> np.ndarray:
    """First-order core amplitude corrections sigma_n for the core roots r0.

    sigma_n = -(c_re A0_n - c_im B0_n) / (lambda + r0_n lambda_r) evaluated
    on the uncoupled core state, with the far-field neighbor of the last
    core node set to zero and the left ghost taken from the boundary kind.
    For dissipative coupling and zero phases this is
    (2 r0_n - r0_{n+1} - r0_{n-1}) / (lambda + r0_n lambda_r).
    """
    k = r0.size
    d = _core_denominators(spec, mu, r0)
    ext = np.concatenate([[0.0], r0, [0.0]])
    ext[0] = ext[1 + bc.mirror]  # the left ghost; past the core it is 0.0
    phi_ext = np.concatenate([[-phi[0] if bc.mirror else 0.0], phi[: k]])
    a0 = ext[2:] * np.cos(phi_ext[1:]) - 2.0 * r0 + ext[:-2] * np.cos(phi_ext[:-1])
    b0 = ext[2:] * np.sin(phi_ext[1:]) - ext[:-2] * np.sin(phi_ext[:-1])
    return -(coupling.c_re * a0 - coupling.c_im * b0) / d


def farfield_tail(
    spec: NonlinearitySpec, mu: float, eps: float, k: int, r0_k: float, n_nodes: int
) -> np.ndarray:
    """Geometric tail amplitudes for nodes k+1..N.

    r_n = [eps / lambda(0, mu)]^(n-k) * r0_k * (-1)^(n-k); the alternating
    sign cancels the negative lambda(0, mu), so the tail is positive with
    decay ratio eps / |lambda(0, mu)|; a tail that overflows raises AsymptoticsError.
    """
    lam0 = float(spec.lam(0.0, mu))
    if abs(lam0) < 1e-12:
        raise AsymptoticsError("lambda(0, mu) vanishes; far-field tail undefined")
    with np.errstate(over="ignore"):
        tail = (-eps / lam0) ** np.arange(1, n_nodes - k + 1) * r0_k
    if not np.isfinite(tail).all():
        raise AsymptoticsError(f"far-field tail overflows: eps/|lambda(0, mu)| = "
                               f"{abs(eps / lam0):.6g} over {n_nodes - k} tail nodes")
    return tail


def build_seed(
    spec: NonlinearitySpec,
    mu: float,
    eps: float,
    ansatz: SeedAnsatz,
    coupling: CouplingKind,
) -> PolarState:
    """Assemble the asymptotic seed state for Newton correction.

    Core amplitudes r0_n + eps*sigma_n (coupling-aware correction), the
    geometric far-field tail, template phases, and rho = omega0.
    """
    k, n = ansatz.k, ansatz.n_nodes
    r0 = _core_roots(spec, mu, ansatz.pattern)

    phi = np.zeros(n - 1)
    if ansatz.phase_template == "conservative":
        phi[: k - 1] = -np.pi / 2.0
        if k - 1 < n - 1:
            phi[k - 1] = np.pi / 2.0

    sigma = core_correction(spec, mu, r0, phi, ansatz.bc, coupling)
    r = np.empty(n)
    r[:k] = r0 + eps * sigma
    r[k:] = farfield_tail(spec, mu, eps, k, float(r0[-1]), n)
    return PolarState(r, phi, spec.omega0, mu)


def fold_prediction_mu0(eps: float) -> float:
    """Leading recruitment-fold mu near mu = 0, in normal-form units.

    mu = (3/2) cbrt(2) eps^(2/3), up to a relative O(eps^(1/3)) correction;
    it is 0 at eps = 0.
    """
    return MU0_FOLD_CONSTANT * eps ** (2.0 / 3.0)


def mu0_normalization(spec: NonlinearitySpec) -> float:
    """Unit conversion for the mu=0 fold constant from normal-form variables.

    The (3/2) cbrt(2) constant holds after rescaling so that r_+(0) = 1 and
    the pitchfork expansion reads lambda(r, 0) r = -mu r + r^3.  For a raw
    nonlinearity with lambda(r, 0) ~ c3 r^2 (c3 = c_1, the r^2 coefficient)
    and upper rest root b = r_+(0), the inhomogeneous recruitment balance
    -mu r + c3 r^3 + eps b = 0 folds at mu = [(3/2) sqrt(3 c3) b]^(2/3)
    eps^(2/3), i.e. the normal-form constant times (b sqrt(c3))^(2/3).  The
    quintic gives (sqrt(2) sqrt(2))^(2/3) = 2^(2/3), hence
    mu_fold -> 3 eps^(2/3).
    """
    c3 = spec.coeffs[1] if len(spec.coeffs) > 1 else 0.0
    if c3 <= 0.0:
        raise AsymptoticsError(
            "lambda(r, 0) must grow quadratically for the recruitment fold"
        )
    b = rest_state_roots(spec)[1]
    return float((b * np.sqrt(c3)) ** (2.0 / 3.0))


@dataclass(frozen=True)
class MismatchReport:
    mu: float
    delta: float                 # |omega1(r-) - omega1(r+)|
    threshold: float             # r+ / r-
    obstructed: bool
    sin_phi_limit: float         # (r-/r+)(omega1(r-) - omega1(r+))
    has_real_solution: bool      # |sin_phi_limit| <= 1


def mismatch_bound(spec: NonlinearitySpec, mu: float) -> MismatchReport:
    """Frequency-mismatch obstruction for mixed r+/r- patterns.

    A pattern with a long r+ block followed by one r- node forces the
    interface phase toward sin(phi_k) = (r-/r+)(omega1(r-) - omega1(r+));
    no such phase exists once |omega1(r-) - omega1(r+)| exceeds r+/r-.
    An omega1 that overflows there raises AsymptoticsError.
    """
    r_minus, r_plus = bistable_roots(spec, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        w1m = float(spec.omega1(r_minus))
        w1p = float(spec.omega1(r_plus))
    delta = abs(w1m - w1p)
    threshold = r_plus / r_minus
    sin_phi = (r_minus / r_plus) * (w1m - w1p)
    if not (np.isfinite(delta) and np.isfinite(sin_phi)):
        raise AsymptoticsError(f"omega1 mismatch at mu={mu!r} is not finite: "
                               f"omega1(r-) = {w1m!r}, omega1(r+) = {w1p!r}")
    return MismatchReport(
        mu=float(mu),
        delta=delta,
        threshold=threshold,
        obstructed=delta > threshold,
        sin_phi_limit=sin_phi,
        has_real_solution=abs(sin_phi) <= 1.0,
    )


@dataclass(frozen=True)
class RecruitmentPrediction:
    kappa: int
    k: int
    fold_node_mu1: int      # node folding first as mu -> 1
    recruited_node_mu0: int  # node switched on near mu = 0


def conservative_recruitment(kappa: int, k: int) -> RecruitmentPrediction:
    """Which node folds near mu=1 / recruits near mu=0 on a conservative branch.

    For k active nodes whose last interface phase is kappa*pi/2: kappa=-1
    (all interfaces -pi/2) folds node k, kappa=+1 folds node k-1.  Near
    mu=0, phi_{k-1} = +pi/2 recruits node k while phi_{k-1} = -pi/2 with
    phi_k = +pi/2 recruits node k+1.
    """
    if kappa not in (-1, 1):
        raise AsymptoticsError(f"kappa must be -1 or +1, got {kappa}")
    if k < 2:
        raise AsymptoticsError(f"need k >= 2, got {k}")
    fold_node = k if kappa == -1 else k - 1
    recruited = k if kappa == 1 else k + 1
    return RecruitmentPrediction(kappa=kappa, k=k, fold_node_mu1=fold_node,
                                 recruited_node_mu0=recruited)
