"""Pseudo-arclength continuation with fold detection.

The corrector solves the bordered system [J; t_prev] with the hyperplane
constraint <x - x_prev, t_prev> = ds.  The predictor steps along the
bordered tangent [J; t_prev] t = e_last, taken from the corrector's final
solve; dead tail phases are pinned, and at eps = 0 every phase is dead.
Fixed-mu correction is the same iteration without the border row.  One
Newton iterate is one pass over one PolarState, the corrector's own copy:
shared point terms, one residual, one Jacobian, rows equilibrated in place.
Folds are turning points of mu, found by sign changes of the tangent's
mu component and refined by a safeguarded secant (Illinois regula falsi)
in arclength, each trial with a fresh tangent and Newton started from the
interpolated bracket ends; a fold is flagged is_fold.  A run that closes
is never merged.  Identical inputs give bitwise-identical branches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import (
    BoundaryKind,
    CouplingKind,
    PolarState,
    canonicalize,
    jacobian,
    point_terms,
    residual,
    wrap_phase,
)
from .model import NonlinearitySpec

__all__ = [
    "ContinuationError",
    "NoConvergence",
    "SingularJacobian",
    "LatticeSystem",
    "ContinuationConfig",
    "Bordered",
    "BranchPoint",
    "Branch",
    "newton_correct",
    "branch_tangent",
    "continue_branch",
    "detect_folds",
    "merge_branches",
]

CLOSED_ISOLA = "closed_isola"
OPEN = "open"
WINDOW_EXIT = "window_exit"
STEP_LIMIT = "step_limit"

# Fixed parts of the method, not inputs to a run: the smallest step before a
# walk ends open, the corrector's iteration cap, the closure landing's
# distance to the start point, and the fold refinement's bound on t_mu.
DS_MIN = 1e-7
NEWTON_MAX_ITER = 12
CLOSURE_TOL = 1e-6
FOLD_REFINE_TOL = 1e-10


class ContinuationError(RuntimeError):
    pass


class NoConvergence(ContinuationError):
    pass


class SingularJacobian(ContinuationError):
    pass


@dataclass(frozen=True)
class LatticeSystem:
    """The assembled problem: nonlinearity, coupling, strength, boundary."""

    spec: NonlinearitySpec
    coupling: CouplingKind
    eps: float
    bc: BoundaryKind

    def residual(self, state: PolarState, terms=None) -> np.ndarray:
        return residual(self.spec, self.coupling, state, self.eps, self.bc, terms)

    def jacobian(self, state: PolarState, terms=None, border=None) -> np.ndarray:
        return jacobian(self.spec, self.coupling, state, self.eps, self.bc, terms, border)

    def residual_norm(self, state: PolarState) -> float:
        return float(np.max(np.abs(self.residual(state))))


@dataclass(frozen=True)
class ContinuationConfig:
    ds_init: float = 0.01
    ds_max: float = 0.05
    newton_tol: float = 1e-10
    max_steps: int = 20000
    mu_window: tuple[float, float] = (-0.05, 1.05)

    def __post_init__(self):
        if not (DS_MIN <= self.ds_init <= self.ds_max):
            raise ValueError(f"need {DS_MIN:g} <= ds_init <= ds_max")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if self.mu_window[0] >= self.mu_window[1]:
            raise ValueError("empty mu window")


@dataclass(frozen=True)
class Bordered:
    """The corrector's border row: arclength constraint against a previous point."""

    x_prev: np.ndarray
    tangent: np.ndarray
    ds: float


def _equilibrate_rows(a: np.ndarray, b: np.ndarray):
    """Scale each row of [a | b], in place, by the inverse of its max-abs
    entry in a; a zero or NaN row keeps scale 1.  Returns (a, b).

    Far-field phase rows scale like eps * r_n and otherwise wreck the
    conditioning of the linear solve.
    """
    scale = np.abs(a).max(axis=1)
    scale = np.where(scale > 1e-300, scale, 1.0)[:, None]
    a /= scale
    b /= scale
    return a, b


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b after equilibrating both in place; SingularJacobian if
    a is singular."""
    _equilibrate_rows(a, b)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularJacobian(str(err)) from err


class _NewtonOutcome(NamedTuple):
    state: PolarState
    iterations: int
    tangent: np.ndarray | None  # bordered: tangent column of the last solve
    solid: np.ndarray | None = None  # _attempt_step: the state's _solid_mask


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, the sqrt(v . v) np.linalg.norm takes."""
    return math.sqrt(v.dot(v))


def _dead_interfaces(state: PolarState, eps: float, tol: float) -> np.ndarray:
    """Interfaces whose phases are numerically undetermined.

    Deep-tail amplitudes decay like (eps/mu)^n and reach machine noise on
    longer chains; the phase between two such nodes only enters the
    residual with weight eps * r, so any value below tol/eps is invisible.
    Those phases are pinned to zero to keep states, tangents, and closure
    tests well defined.  At eps <= 0 no phase enters the residual at all.
    """
    if eps <= 0.0:
        return np.ones(state.n - 1, dtype=bool)
    r = np.abs(state.r)
    return np.maximum(r[:-1], r[1:]) < 0.1 * tol / eps


SOLID_PHASE_AMPLITUDE = 1e-3


def _solid_mask(state: PolarState) -> np.ndarray:
    """Coordinates that meaningfully identify a point on the branch.

    All amplitudes, rho, and mu count; an interface phase counts only when
    one of its adjacent amplitudes is significant.  Distances for the step
    guard and closure test use this mask, because phases deep in the tail
    are only determined up to solver noise.
    """
    n = state.n
    r = np.abs(state.r)
    mask = np.ones(2 * n + 1, dtype=bool)
    mask[n: 2 * n - 1] = np.maximum(r[:-1], r[1:]) >= SOLID_PHASE_AMPLITUDE
    return mask


def _solid_unit(t: np.ndarray, solid: np.ndarray) -> np.ndarray:
    """t with the coordinates outside the ``_solid_mask`` zeroed, normalized.

    The physical branch direction lives in the solid coordinates; keeping
    gray tail-phase components would let solver noise accumulate into the
    tangent step after step.
    """
    t = np.where(solid, t, 0.0)
    norm = _norm(t)
    if not norm >= 1e-8:
        raise SingularJacobian("tangent vanishes on the solid coordinates")
    return t / norm


def _newton_solve(system: LatticeSystem, x: np.ndarray, border: Bordered | None,
                  tol: float, max_iter: int) -> _NewtonOutcome:
    """Newton from a packed vector, at fixed mu when ``border`` is None; one
    residual, and unless it converged one Jacobian, per iterate, sharing
    ``point_terms``.  It updates one state over its own copy of ``x`` in
    place and returns that state."""
    state = PolarState.from_packed(np.array(x, dtype=float))
    x, n = state.x, state.n
    spec, c, eps, bc = system.spec, system.coupling, system.eps, system.bc

    # Converge a notch below tol so that pinning dead tail phases (which
    # perturbs the residual by at most 0.4 tol) cannot push a reported
    # state back above the tolerance.
    conv_tol = 0.45 * tol
    tangent = None
    for it in range(max_iter + 1):
        terms = point_terms(spec, state, eps, bc)
        f = residual(spec, c, state, eps, bc, terms)
        err = np.abs(f).max()
        if border is not None:
            cons = float((x - border.x_prev).dot(border.tangent)) - border.ds
            err = max(err, abs(cons))
        if err <= conv_tol:
            state.phi[_dead_interfaces(state, eps, tol)] = 0.0
            if state.r.min() < -1e-9:
                # Exact only for r-even nonlinearities; keep the raw state if
                # an odd omega part would push the residual back over tol.
                flipped = canonicalize(state)
                if system.residual_norm(flipped) <= tol:
                    state = flipped
            return _NewtonOutcome(state, it, tangent)
        if it == max_iter:
            break

        if border is not None:
            # second column: the tangent [J; t_prev] t = e_last, for free
            a = jacobian(spec, c, state, eps, bc, terms, border.tangent)
            rhs = np.zeros((2 * n + 1, 2))
            np.negative(f, out=rhs[:-1, 0])
            rhs[-1, 0], rhs[-1, 1] = -cons, 1.0
        else:
            a = jacobian(spec, c, state, eps, bc, terms)[:, : 2 * n]
            rhs = -f[:, None]
        sol = _solve(a, rhs)
        delta = sol[:, 0]
        if not np.isfinite(delta).all():
            raise SingularJacobian("non-finite Newton step")
        x[: delta.size] += delta  # fixed mu: every entry but mu
        tangent = sol[:, 1] if border is not None else None
        wrap_phase(state.phi)

    raise NoConvergence(f"Newton did not reach tol={tol} within {max_iter} iterations")


def newton_correct(system: LatticeSystem, state: PolarState,
                   tol: float = ContinuationConfig.newton_tol,
                   max_iter: int = NEWTON_MAX_ITER) -> PolarState:
    """Correct a state onto the solution set at its frozen mu, solving the
    square system in (r, phi, rho).  Raises NoConvergence / SingularJacobian."""
    return _newton_solve(system, state.x, None, tol, max_iter).state


def branch_tangent(
    system: LatticeSystem,
    state: PolarState,
    prev_tangent: np.ndarray | None = None,
    direction: int = 1,
    *,
    newton_tol: float,
) -> np.ndarray:
    """Unit tangent along the branch, oriented along a reference direction.

    Solves the bordered system [J; ref] t = e_last with equilibrated rows,
    where ref is the previous tangent, or the mu axis signed by direction.
    Each dead interface phase j is pinned inside the square system: its
    column becomes a unit column on the phase row of node j+1, and its
    tangent entry is set to zero.  ``newton_tol`` is the corrector's, so the
    tangent pins the phases the corrector pins; at eps = 0 every phase is
    dead.  Non-solid coordinates are zeroed before normalizing.  Raises
    SingularJacobian when the bordered system is singular; callers fall back
    to the secant.
    """
    n = state.n
    if prev_tangent is None:
        ref = np.zeros(2 * n + 1)
        ref[-1] = float(np.sign(direction))
    else:
        ref = np.asarray(prev_tangent, dtype=float)
    a = system.jacobian(state, border=ref)
    j = np.flatnonzero(_dead_interfaces(state, system.eps, newton_tol))
    a[:, n + j] = 0.0
    a[2 * j + 3, n + j] = 1.0
    rhs = np.zeros((2 * n + 1, 1))
    rhs[-1] = 1.0
    t = _solve(a, rhs)[:, 0]
    t[n + j] = 0.0
    return _solid_unit(t, _solid_mask(state))


@dataclass(frozen=True)
class BranchPoint:
    state: PolarState
    arclength: float
    tangent: np.ndarray
    is_fold: bool = False
    newton_iters: int = 0
    refined: bool = False  # folds only: the tangent's mu part met FOLD_REFINE_TOL

    @property
    def mu(self) -> float:
        return self.state.mu


@dataclass
class Branch:
    points: list[BranchPoint]
    closure: str = OPEN
    open_ends: tuple[float, ...] = ()  # mu of each end whose run stopped open

    @property
    def folds(self) -> list[BranchPoint]:
        return [p for p in self.points if p.is_fold]

    @property
    def mu_values(self) -> np.ndarray:
        return np.array([p.state.mu for p in self.points])


def _attempt_step(system, config, x_prev, tangent, ds, guess=None):
    predictor = x_prev + ds * tangent
    outcome = _newton_solve(system, predictor if guess is None else guess,
                            Bordered(x_prev, tangent, ds), config.newton_tol,
                            NEWTON_MAX_ITER)
    # Reject corrector landings far from the predictor: those are jumps onto
    # another solution sheet (worst case the trivial r=0 line), not steps
    # along the branch.  Halving ds then also adapts to fold curvature.
    # Only solid coordinates count; tail phases drift freely at solver noise.
    solid = _solid_mask(outcome.state)
    drift = _norm((outcome.state.x - predictor)[solid])
    if drift > 2.0 * abs(ds):
        raise NoConvergence(
            f"corrector drifted {drift:.3e} from the predictor at ds={ds:.3e}"
        )
    return outcome._replace(solid=solid)


def continue_branch(
    system: LatticeSystem,
    seed: PolarState,
    direction: int,
    config: ContinuationConfig,
) -> Branch:
    """Trace the branch through ``seed`` in one direction.

    Terminates on mu leaving the window, the step limit, isola closure
    (return to the start point within CLOSURE_TOL after arclength
    > 10 ds_init), or an unresolvable corrector failure ("open").  Raises
    ContinuationError when the seed's residual exceeds newton_tol or is not
    finite.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads NaN
        res0 = system.residual_norm(seed)
    if not res0 <= config.newton_tol:
        raise ContinuationError(
            f"seed residual {res0:.3e} exceeds newton_tol={config.newton_tol}"
        )

    tangent = branch_tangent(system, seed, direction=direction,
                             newton_tol=config.newton_tol)
    points = [BranchPoint(seed.copy(), 0.0, tangent, False, 0)]
    x_start = x_prev = points[0].state.x
    solid_start = _solid_mask(seed)
    arclength = 0.0
    ds = config.ds_init
    termination = None

    while termination is None:
        if len(points) > config.max_steps:
            termination = STEP_LIMIT
            break

        prev = points[-1]
        outcome = None
        while True:
            try:
                outcome = _attempt_step(system, config, x_prev, prev.tangent, ds)
                break
            except (NoConvergence, SingularJacobian):
                ds *= 0.5
                if ds < DS_MIN:
                    break
        if outcome is None:
            termination = OPEN
            break

        new_state, x_new = outcome.state, outcome.state.x
        try:
            # The corrector's final solve already carries the tangent, with
            # t . t_prev = 1 fixing its orientation; it is one Newton step
            # stale, which the walk tolerates and fold refinement does not.
            if outcome.iterations and np.isfinite(outcome.tangent).all():
                new_tangent = _solid_unit(outcome.tangent, outcome.solid)
            else:
                new_tangent = branch_tangent(system, new_state, prev_tangent=prev.tangent,
                                             newton_tol=config.newton_tol)
        except SingularJacobian:
            secant = x_new - x_prev
            norm = _norm(secant)
            if norm == 0.0:
                termination = OPEN
                break
            new_tangent = secant / norm

        arclength += ds
        points.append(BranchPoint(new_state, arclength, new_tangent, False,
                                  outcome.iterations))
        x_prev = x_new

        if outcome.iterations <= 3:
            ds = min(ds * 1.3, config.ds_max)

        mu = new_state.mu
        if not (config.mu_window[0] <= mu <= config.mu_window[1]):
            termination = WINDOW_EXIT
            break

        if arclength > 10.0 * config.ds_init:
            gap = _norm((x_new - x_start)[solid_start])
            if gap < max(2.0 * ds, 2.0 * config.ds_init):
                landing = _attempt_closure(system, config, x_new, new_tangent,
                                           x_start, solid_start)
                if landing is not None:
                    arclength += _norm(landing.state.x - x_new)
                    points.append(BranchPoint(landing.state, arclength, new_tangent,
                                              False, landing.iterations))
                    termination = CLOSED_ISOLA
                    break

    branch = Branch(points, termination, (points[-1].mu,) if termination == OPEN else ())
    branch.points += detect_folds(branch, system, config)
    branch.points.sort(key=lambda p: (p.arclength, not p.is_fold))
    return branch


def _attempt_closure(system, config, x_from, tangent, x_start, solid_start):
    """Try to land exactly on the start point; None if this is not closure."""
    ds_land = float(np.dot(x_start - x_from, tangent))
    try:
        outcome = _newton_solve(system, x_from + ds_land * tangent,
                                Bordered(x_from, tangent, ds_land),
                                config.newton_tol, NEWTON_MAX_ITER)
    except (NoConvergence, SingularJacobian):
        return None
    gap = _norm((outcome.state.x - x_start)[solid_start])
    if gap < CLOSURE_TOL:
        return outcome
    return None


def _bracket_guess(lo: list, hi: list, s: float) -> np.ndarray:
    """The state at s between bracket ends (s, t_mu, state), phases wrapped."""
    step, n = hi[2] - lo[2], lo[2].size // 2
    wrap_phase(step[n: 2 * n - 1])
    return lo[2] + (s - lo[0]) / (hi[0] - lo[0] or 1.0) * step  # a collapsed bracket: lo


def _fold_brackets(points: list[BranchPoint]) -> list[int]:
    """Indices i where the tangent mu-component changes sign between i, i+1."""
    out = []
    for i in range(len(points) - 1):
        a, b = points[i].tangent[-1], points[i + 1].tangent[-1]
        if a != 0.0 and b != 0.0 and (a < 0.0) != (b < 0.0):
            out.append(i)
    return out


def detect_folds(
    branch: Branch,
    system: LatticeSystem,
    config: ContinuationConfig,
) -> list[BranchPoint]:
    """Locate folds by regula falsi on arclength between sign-change brackets.

    Each trial re-corrects a bordered step from the left bracket point, at
    the secant root of the tangent's mu component (the midpoint if that
    leaves the bracket), and evaluates the tangent there; the bracket shrinks
    until the mu component drops below FOLD_REFINE_TOL.  Newton starts from
    the interpolated bracket ends, on the same hyperplanes <x - x_left,
    t_left> = s; the drift guard still measures the tangent predictor.  A
    fold point is the best trial, with its tangent; failed or capped
    refinements stay unrefined.
    """
    mu_lo, mu_hi = config.mu_window
    walk = [p for p in branch.points if not p.is_fold]
    folds: list[BranchPoint] = []
    for i in _fold_brackets(walk):
        left, right = walk[i], walk[i + 1]
        if not (mu_lo <= left.state.mu <= mu_hi
                and mu_lo <= right.state.mu <= mu_hi):
            continue  # exit overshoot; structure past the window is out of scope
        ds_total = right.arclength - left.arclength
        x_left = left.state.x
        sign_left = np.sign(left.tangent[-1])

        # Illinois regula falsi on t_mu(ds), ends (ds, t_mu, state): t_mu changes
        # sign linearly through a quadratic fold, so the secant converges
        # superlinearly; halving t_mu at an end kept twice in a row avoids stalls.
        lo = [0.0, float(left.tangent[-1]), x_left]
        hi = [ds_total, float(right.tangent[-1]), right.state.x]
        best_state, best_tangent, best_ds = right.state, right.tangent, ds_total
        refined, kept = False, None
        for _ in range(100):
            trial = hi[0] - hi[1] * (hi[0] - lo[0]) / (hi[1] - lo[1])
            if not lo[0] < trial < hi[0]:
                trial = 0.5 * (lo[0] + hi[0])
            guess = _bracket_guess(lo, hi, trial)
            try:
                outcome = _attempt_step(system, config, x_left, left.tangent, trial, guess)
                t_trial = branch_tangent(system, outcome.state, prev_tangent=left.tangent,
                                         newton_tol=config.newton_tol)
            except (NoConvergence, SingularJacobian):
                break
            tmu = float(t_trial[-1])
            if abs(tmu) < abs(best_tangent[-1]):
                best_state, best_tangent, best_ds = outcome.state, t_trial, trial
            if abs(tmu) <= FOLD_REFINE_TOL:
                refined = True
                break
            moved, other = (lo, hi) if np.sign(tmu) == sign_left else (hi, lo)
            moved[:] = trial, tmu, outcome.state.x
            if other is kept:
                other[1] *= 0.5
            kept = other
        folds.append(BranchPoint(best_state, left.arclength + best_ds,
                                 best_tangent, is_fold=True, refined=refined))
    return folds


def merge_branches(minus: Branch, plus: Branch) -> Branch:
    """Join the two open-ended runs from a common seed into one branch.

    The minus-direction points are reversed and re-parametrized so the
    merged arclength increases monotonically.  A run that closed is a whole
    isola and is never merged.  The merged closure is the worse end's:
    open over step_limit over window_exit, so a failed end is never hidden.
    """
    offset = minus.points[-1].arclength
    # the minus run's tangents flip so orientation follows the merged traversal
    points = [BranchPoint(p.state, offset - p.arclength, -p.tangent, p.is_fold,
                          p.newton_iters, p.refined) for p in reversed(minus.points)]
    points += [BranchPoint(p.state, offset + p.arclength, p.tangent, p.is_fold,
                           p.newton_iters, p.refined) for p in plus.points[1:]]
    reasons = {minus.closure, plus.closure}
    closure = next((c for c in (OPEN, STEP_LIMIT, WINDOW_EXIT) if c in reasons), OPEN)
    return Branch(points, closure, minus.open_ends + plus.open_ends)
