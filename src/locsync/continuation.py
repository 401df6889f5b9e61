"""Pseudo-arclength continuation with fold detection.

The corrector solves the bordered system [J; t_prev] with the hyperplane
constraint <x - x_prev, t_prev> = ds, flips negative amplitudes once it has
converged and then zeroes dead tail phases (dead at NEWTON_TOL; at eps = 0
every phase).  The predictor steps along the tangent of the same border row,
[J; t_prev] t = e_last, masked to the landing's solid coordinates: the
unpinned column of the corrector's last solve, else branch_tangent (the dead
phases pinned inside its solve), else the secant.  Fixed-mu correction is
the same iteration without the border row.  The corrector works on a stack
of rows, each with its own border row: one Newton iterate is one pass over
the stack, the corrector's own copy, with shared point terms, one residual,
one Jacobian and one linear solve, rows equilibrated in place; a row leaves
when it converges or fails, and each row keeps the bits of a stack of one.
Every generator of the walk (a run: the walk in one direction, its closing
landing, fold refinement; a walk; a batch) yields a list of correction
requests per round and is sent the list of replies, a row's error as its
entry; _attempt_step alone makes a request and raises a failed reply.
_lockstep runs generators as one, and _solved answers each round through the
stacked corrector: continue_branch, detect_folds and walk_batch are _solved
over the runs through a seed, one fold refinement, and the lockstep of many
walks (a sweep group's).  Folds are turning points of mu, found by sign
changes of the tangent's mu component and refined by a safeguarded secant
(Illinois regula falsi) in arclength, each trial with a fresh tangent and
Newton started from the interpolated bracket ends; a fold is flagged
is_fold.  A run closes with one more walk step, the closing landing, onto
the hyperplane of a target within CLOSURE_TOL: its own start point, or the
other run's latest point.  The branch through a seed walks its +1 and -1
runs in lockstep: a +1 run that returns to its start is the whole isola; two
runs that meet are one loop from the seed round to it, in the +1 direction,
as is a -1 run that returns to its start; else both runs are merged.
Identical inputs give bitwise-identical branches, batched or not.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .lattice import (
    BoundaryKind,
    CouplingKind,
    LatticeError,
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
    "walk",
    "walk_batch",
    "batch_rows",
    "detect_folds",
    "merge_branches",
]

CLOSED_ISOLA = "closed_isola"
OPEN = "open"
WINDOW_EXIT = "window_exit"
STEP_LIMIT = "step_limit"

# Fixed parts of the method, not inputs to a run: the smallest step before a
# walk ends open, the corrector's tolerance and iteration cap, the closing
# landing's distance to its target, the fold refinement's bound on t_mu.
DS_MIN = 1e-7
NEWTON_TOL = 1e-10
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

    def residual(self, state: PolarState) -> np.ndarray:
        return residual(self.spec, self.coupling, state, self.eps, self.bc)

    def jacobian(self, state: PolarState, border=None) -> np.ndarray:
        return jacobian(self.spec, self.coupling, state, self.eps, self.bc, border=border)

    def residual_norm(self, state: PolarState) -> float:
        return float(np.max(np.abs(self.residual(state))))


@dataclass(frozen=True)
class ContinuationConfig:
    ds_init: float = 0.01
    ds_max: float = 0.05
    newton_tol: ClassVar[float] = NEWTON_TOL  # a constant, read where a config is at hand
    max_steps: int = 20000
    mu_window: tuple[float, float] = (-0.05, 1.05)

    def __post_init__(self):
        if not (DS_MIN <= self.ds_init <= self.ds_max):
            raise ValueError(f"need {DS_MIN:g} <= ds_init <= ds_max")
        if self.mu_window[0] >= self.mu_window[1]:
            raise ValueError("empty mu window")


class Bordered(NamedTuple):
    """The corrector's border row: arclength constraint against a previous
    point.  For a stack, x_prev and tangent have one row per row and ds is a
    list."""

    x_prev: np.ndarray
    tangent: np.ndarray
    ds: float


def _equilibrate_rows(a: np.ndarray, b: np.ndarray):
    """Scale each row of [a | b], in place, by the inverse of its max-abs
    entry in a; a zero or NaN row keeps scale 1.  Returns (a, b).

    Far-field phase rows scale like eps * r_n and otherwise wreck the
    conditioning of the linear solve.
    """
    scale = np.abs(a).max(axis=-1)
    scale = np.where(scale > 1e-300, scale, 1.0)[..., None]
    a /= scale
    b /= scale
    return a, b


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve a x = b, or each a[i] x = b[i] of a stack, after equilibrating
    both in place: the solution and a SingularJacobian per singular row by
    row index.  One np.linalg.solve takes the whole stack; if it raises, a
    stack is solved again row by row, so that only the singular rows fail.
    """
    _equilibrate_rows(a, b)
    try:
        return np.linalg.solve(a, b), {}
    except np.linalg.LinAlgError as err:
        if a.ndim == 2:
            return b, {0: SingularJacobian(str(err))}
    sol, failed = np.empty_like(b), {}
    for i in range(len(a)):
        try:
            sol[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError as err:
            failed[i] = SingularJacobian(str(err))
    return sol, failed


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


def _converged(system: LatticeSystem, state: PolarState, tol: float, iterations: int,
               tangent: np.ndarray | None) -> _NewtonOutcome:
    """The outcome of a row that converged at ``state``, over its own copy:
    negative amplitudes flipped where that keeps the residual, then dead tail
    phases zeroed, so that no flip leaves a dead phase at pi."""
    if state.r.min() < -1e-9:
        # Exact only for r-even nonlinearities; keep the raw state if
        # an odd omega part would push the residual back over tol.
        flipped = canonicalize(state)
        if system.residual_norm(flipped) <= tol:
            state = flipped
    state.phi[_dead_interfaces(state, system.eps, tol)] = 0.0
    return _NewtonOutcome(state, iterations, tangent)


def _stack_state(x: np.ndarray) -> PolarState:
    """The state over the stack ``x``; a stack of one is handed to NumPy as
    its one row, on which small-array calls are cheapest."""
    return PolarState.from_packed(x[0] if len(x) == 1 else x)


def _newton_solve(system: LatticeSystem, x: np.ndarray, border: Bordered | None,
                  tol: float, max_iter: int) -> list:
    """Newton on a stack of packed vectors ``x``, shape (B, 2N + 1), at fixed
    mu when ``border`` is None, else with border row i for row i: ``border``
    holds the B previous points and tangents as (B, 2N + 1) arrays and the
    B step lengths as a list.

    Each iterate makes one residual, one Jacobian and one np.linalg.solve
    for the rows still live, sharing ``point_terms``, and updates the
    corrector's own copy of ``x`` in place.  A row leaves the stack when it
    converges or fails.  Entry i of the returned list is row i's
    _NewtonOutcome, or the error that ended it: LatticeError for a start
    that is not finite, NoConvergence, SingularJacobian.  A row's arithmetic
    is that of a stack of one, bit for bit: its constraint is a per-row
    ``ndarray.dot`` call.
    """
    spec, c, eps, bc = system.spec, system.coupling, system.eps, system.bc
    x = np.array(x, dtype=float)  # the corrector's own copy
    n, m = x.shape[-1] // 2, x.shape[-1] - (border is None)  # m: the unknowns
    rows, done = list(range(len(x))), [None] * len(x)  # rows: the input row of each
    if border is not None:
        x_prev, t_prev, ds = border.x_prev, border.tangent, border.ds
    try:
        state = _stack_state(x)
    except LatticeError:  # the rows that are not finite fail before iterating
        finite = np.isfinite(x).all(axis=1).tolist()
        for r in rows:
            if not finite[r]:
                done[r] = LatticeError("non-finite entries in state")
        rows = [r for r in rows if finite[r]]
        if not rows:
            return done
        x = x[rows]
        if border is not None:
            x_prev, t_prev, ds = x_prev[rows], t_prev[rows], [ds[r] for r in rows]
        state = _stack_state(x)

    # Converge a notch below tol so that pinning dead tail phases (which
    # perturbs the residual by at most 0.4 tol) cannot push a reported
    # state back above the tolerance.
    conv_tol = 0.45 * tol
    tangent = None
    for it in range(max_iter + 1):
        terms = point_terms(spec, state, eps, bc)
        f = residual(spec, c, state, eps, bc, terms)
        keep, cons = [], []
        if border is not None:
            step = x - x_prev
        for i, e in enumerate(np.abs(f.reshape(len(rows), -1)).max(axis=1).tolist()):
            if border is not None:
                k = float(step[i].dot(t_prev[i])) - ds[i]
                e = max(e, abs(k))
            if done[rows[i]] is not None:  # its last solve failed
                continue
            if e <= conv_tol:  # a stack of one hands back its own state
                done[rows[i]] = _converged(
                    system, state if len(rows) == 1 else PolarState.from_packed(x[i].copy()),
                    tol, it, None if tangent is None else tangent[i])
            elif not math.isfinite(e):
                done[rows[i]] = NoConvergence("residual is not finite")
            elif it == max_iter:
                done[rows[i]] = NoConvergence(
                    f"Newton did not reach tol={tol} within {max_iter} iterations")
            else:
                keep.append(i)
                if border is not None:
                    cons.append(-k)
        if not keep:
            break
        if len(keep) < len(rows):
            pick = keep[0] if len(keep) == 1 else keep  # one row: its own vector
            f = f.reshape(len(rows), -1)[pick]
            terms = tuple(t.take(pick, axis=-1) for t in terms)  # the stack's axis is last
            rows, x = [rows[i] for i in keep], x[keep]
            if border is not None:
                x_prev, t_prev, ds = x_prev[keep], t_prev[keep], [ds[i] for i in keep]
            state = _stack_state(x)  # finite: its residual is

        if border is not None:
            # second column: the tangent [J; t_prev] t = e_last, for free
            a = jacobian(spec, c, state, eps, bc, terms, t_prev)
            rhs = np.zeros(a.shape[:-1] + (2,))
            np.negative(f, out=rhs[..., :-1, 0])
            rhs[..., -1, :] = np.array([(k, 1.0) for k in cons])
        else:
            a = jacobian(spec, c, state, eps, bc, terms)[..., :m]
            rhs = -f[..., None]
        sol, failed = _solve(a, rhs)
        if failed or not np.isfinite(sol[..., 0]).all():
            # a failed row takes no step and leaves at the next classification
            ok = np.isfinite(sol[..., 0]).all(axis=-1).reshape(-1)
            ok[list(failed)] = False
            for i in np.flatnonzero(~ok):
                done[rows[i]] = failed.get(i) or SingularJacobian("non-finite Newton step")
            if not ok.any():
                break
            sol[~ok] = 0.0
        state.x[..., :m] += sol[..., 0]  # fixed mu: every entry but mu
        tangent = sol[..., 1].reshape(len(rows), -1) if border is not None else None
        wrap_phase(state.phi)
    return done


def newton_correct(system: LatticeSystem, state: PolarState,
                   tol: float = NEWTON_TOL,
                   max_iter: int = NEWTON_MAX_ITER) -> PolarState:
    """Correct a state onto the solution set at its frozen mu, solving the
    square system in (r, phi, rho): a stack of one.  Raises NoConvergence
    (also for a residual that is not finite, say one that overflows) /
    SingularJacobian."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN
        outcome, = _newton_solve(system, state.x[None], None, tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.state


def branch_tangent(system: LatticeSystem, state: PolarState, ref: np.ndarray) -> np.ndarray:
    """Unit tangent along the branch at ``state``, oriented by the border row ``ref``.

    Solves the bordered system [J; ref] t = e_last with equilibrated rows.
    ``ref`` is the corrector's border row, the previous tangent; a seed has
    none and passes the mu axis signed by the run's direction.  Each
    interface phase j that is dead at NEWTON_TOL, the phases the corrector
    zeroes once converged (at eps = 0 every phase), is pinned inside the
    square system: its column becomes a unit column on the phase row of node
    j+1, and its tangent entry is set to zero.  Non-solid coordinates are
    zeroed before normalizing.  Raises SingularJacobian when the bordered
    system is singular: the walk then takes the secant, and fold refinement
    stops.
    """
    n = state.n
    a = system.jacobian(state, border=ref)
    j = np.flatnonzero(_dead_interfaces(state, system.eps, NEWTON_TOL))
    a[:, n + j] = 0.0
    a[2 * j + 3, n + j] = 1.0
    rhs = np.zeros((2 * n + 1, 1))
    rhs[-1] = 1.0
    sol, failed = _solve(a, rhs)
    if failed:
        raise failed[0]
    t = sol[:, 0]
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


# Every generator of the walk speaks one protocol: each round it yields the
# list of its correction requests, (start vector, Bordered) each, and it is
# sent the list of replies, a _NewtonOutcome or the error that ended the row.
# _attempt_step alone yields a request and raises a failed reply; _lockstep
# combines generators into one, and _solved answers each round.
BATCH_ENTRIES = 1 << 18  # entries of a batch's stacked bordered matrices: 2 MiB


def batch_rows(n: int) -> int:
    """Rows of one stacked correction at N nodes: at least one, and as many
    (2N + 1)^2 bordered matrices as BATCH_ENTRIES holds."""
    return max(1, BATCH_ENTRIES // (2 * n + 1) ** 2)


def _solved(system: LatticeSystem, walk):
    """The return value of ``walk``, run to its end: each round's requests
    go through _newton_solve, batch_rows(N) rows at a time, and once every
    chunk is solved the walk is sent the replies in request order."""
    replies = None
    while True:
        try:
            requests = walk.send(replies)
        except StopIteration as end:
            return end.value
        rows, replies = batch_rows(requests[0][0].size // 2), []
        for lo in range(0, len(requests), rows):
            chunk = requests[lo:lo + rows]
            x_prev, tangent, ds = zip(*(border for _, border in chunk))
            replies += _newton_solve(system, np.array([x for x, _ in chunk]),
                                     Bordered(np.array(x_prev), np.array(tangent), list(ds)),
                                     NEWTON_TOL, NEWTON_MAX_ITER)


def walk_batch(system: LatticeSystem, walks: list) -> list:
    """Run the walks ``walks`` of one system and N to their ends, in
    lockstep: each round, the requests of all live walks go through one
    _solved round.  A walk's progress does not depend on what else is in the
    batch.  Entry i of the result is walk i's return value, or the
    exception it raised: one walk's failure is not the batch's."""
    return _solved(system, _lockstep([_caught(walk) for walk in walks]))


def _caught(walk):
    """``walk``, returning the exception it raises instead of raising it."""
    try:
        return (yield from walk)
    except Exception as err:
        return err


def _lockstep(walks: list, stop=lambda end: False):
    """``walks`` in rounds, as one walk: each round yields the live members'
    request lists joined in member order, and sends each member its own
    slice of the replies.  The first member whose return value meets
    ``stop`` closes the members still live.  Returns each member's return
    value, None for a member closed; an exception a member raises
    propagates."""
    ends, live, replies = [None] * len(walks), range(len(walks)), [None] * len(walks)
    while True:
        requests, still = [], []  # still: each live member and its request count
        for i, reply in zip(live, replies):
            try:
                asked = walks[i].send(reply)
            except StopIteration as end:
                ends[i] = end.value
                if stop(end.value):
                    for member in walks:
                        member.close()
                    return ends
            else:
                requests += asked
                still.append((i, len(asked)))
        if not still:
            return ends
        answers = iter((yield requests))
        live = [i for i, _ in still]
        replies = [list(itertools.islice(answers, count)) for _, count in still]


def _attempt_step(system, x_prev, tangent, ds, guess=None):
    """One bordered step from ``x_prev``, a walk of its one request: the
    corrected outcome with the landing's solid mask.  Raises the reply's
    error (NoConvergence, SingularJacobian, LatticeError) or the drift
    guard's NoConvergence."""
    predictor = x_prev + ds * tangent
    outcome, = yield [((predictor if guess is None else guess), Bordered(x_prev, tangent, ds))]
    if isinstance(outcome, Exception):
        raise outcome
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


def continue_branch(system: LatticeSystem, seed: PolarState,
                    config: ContinuationConfig) -> Branch:
    """Trace the branch through ``seed``, folds included: its +1 and -1 runs
    in lockstep (see _runs), then a ``detect_folds`` call per run.

    A run terminates on mu leaving the window, the step limit, closure (a
    landing within CLOSURE_TOL of its own start point after arclength
    > 10 ds_init, or of the other run's latest point), or an unresolvable
    corrector failure ("open").  Raises ContinuationError when the seed's
    residual exceeds NEWTON_TOL or is not finite.
    """
    runs = _solved(system, _runs(system, seed, config))
    return _joined([_with_folds(run, detect_folds(run, system, config)) for run in runs])


def walk(system: LatticeSystem, seed: PolarState, config: ContinuationConfig):
    """``continue_branch`` as a walk, one member of a ``walk_batch``; it
    returns the branch.  Its runs' fold refinements run in lockstep too."""
    runs = yield from _runs(system, seed, config)
    folds = yield from _lockstep([_fold_steps(run, system, config) for run in runs])
    return _joined([_with_folds(run, f) for run, f in zip(runs, folds)])


def _with_folds(branch: Branch, folds: list[BranchPoint]) -> Branch:
    branch.points += folds
    branch.points.sort(key=lambda p: (p.arclength, not p.is_fold))
    return branch


def _runs(system, seed, config):
    """The runs through ``seed`` without their folds, as a walk: the +1 and
    -1 runs in lockstep.  A +1 run that closes onto its own start point
    alone, the other dropped; two runs that meet, each cut at its side of
    the junction (the landing, or the point it landed on), both closed,
    where a -1 run closed onto its own start meets the +1 run's seed point;
    else both runs as they ended."""
    plus, minus = [], []
    ends = yield from _lockstep(
        [_steps(system, seed, +1, config, plus, minus),
         _steps(system, seed, -1, config, minus, plus)],
        stop=lambda end: end[0].closure == CLOSED_ISOLA)
    for landed, other, end in ((0, minus, ends[0]), (1, plus, ends[1])):
        if end is not None and end[0].closure == CLOSED_ISOLA:
            branch, met = end
            if met is None and landed == 0:
                return [branch]
            cut = Branch(other[:1 if met is None else met + 1], CLOSED_ISOLA)
            return [branch, cut] if landed == 0 else [cut, branch]
    return [branch for branch, _ in ends]


def _joined(runs: list) -> Branch:
    """The branch of ``_runs``' runs, folds included.  A met pair is one
    loop from the seed round to it: the +1 run up to its side of the
    junction, then the -1 run back to the seed, its tangents flipped, its
    side of the junction dropped.  Two runs that did not meet are merged."""
    if len(runs) == 1:
        return runs[0]
    plus, minus = runs
    if plus.closure != CLOSED_ISOLA:
        return merge_branches(minus, plus)
    *back, junction = minus.points  # a fold never sorts after its bracket's end
    offset = plus.points[-1].arclength + junction.arclength
    return Branch(plus.points + _reversed(back, offset), CLOSED_ISOLA)


def _reversed(points: list, offset: float) -> list:
    """A -1 run's ``points`` walked back to its seed: arclength ``offset``
    less each point's, tangents flipped to follow the traversal."""
    return [BranchPoint(p.state, offset - p.arclength, -p.tangent, p.is_fold, p.newton_iters,
                        p.refined) for p in reversed(points)]


def _steps(system, seed, direction, config, points, other):
    """The run through ``seed`` in ``direction`` +1 or -1 up to its
    termination, closing landing included, appending to the empty list
    ``points``.  ``other`` is the other run's points, whose latest point is a
    closure target once it has left the seed.  Returns (the branch without
    its folds, met): met is the index in ``other`` of the point the run
    closed onto, else None."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads NaN
        res0 = system.residual_norm(seed)
    if not res0 <= NEWTON_TOL:
        raise ContinuationError(f"seed residual {res0:.3e} exceeds newton_tol={NEWTON_TOL}")

    ref = np.zeros(seed.x.size)
    ref[-1] = direction  # a seed's border row: the mu axis, signed
    tangent = branch_tangent(system, seed, ref)
    points.append(BranchPoint(seed.copy(), 0.0, tangent, False, 0))
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
        while outcome is None and ds >= DS_MIN:
            try:
                outcome = yield from _attempt_step(system, x_prev, prev.tangent, ds)
            except (NoConvergence, SingularJacobian):
                ds *= 0.5
        if outcome is None:
            termination = OPEN
            break

        new_state, x_new = outcome.state, outcome.state.x
        # The corrector's final solve already carries the tangent, with
        # t . t_prev = 1 fixing its orientation; it is one Newton step
        # stale, which the walk tolerates and fold refinement does not.
        try:  # every candidate lies on the landing's solid mask, the secant last
            try:
                if outcome.iterations and np.isfinite(outcome.tangent).all():
                    new_tangent = _solid_unit(outcome.tangent, outcome.solid)
                else:
                    new_tangent = branch_tangent(system, new_state, prev.tangent)
            except SingularJacobian:
                new_tangent = _solid_unit(x_new - x_prev, outcome.solid)
        except SingularJacobian:  # a secant with no solid part
            termination = OPEN
            break

        arclength += ds
        points.append(BranchPoint(new_state, arclength, new_tangent, False,
                                  outcome.iterations))
        x_prev = x_new

        if outcome.iterations <= 3:
            ds = min(ds * 1.3, config.ds_max)

        if not (config.mu_window[0] <= new_state.mu <= config.mu_window[1]):
            termination = WINDOW_EXIT
            break

        if arclength > 10.0 * config.ds_init:
            targets = [(x_start, solid_start, None)]  # the start point first
            if len(other) > 1:  # the other run's front, measured on this point's mask
                targets.append((other[-1].state.x, outcome.solid, len(other) - 1))
            gate = max(2.0 * ds, 2.0 * config.ds_init)
            for x_target, solid, met in targets:  # mu is solid: a far mu skips the norm
                if (abs(new_state.mu - x_target.item(-1)) < gate
                        and _norm((x_new - x_target)[solid]) < gate):
                    landing = yield from _landing(system, points[-1], x_target, solid)
                    if landing is not None:
                        points.append(landing)
                        return Branch(points, CLOSED_ISOLA), met

    return Branch(points, termination, (points[-1].mu,) if termination == OPEN else ()), None


def _landing(system, last: BranchPoint, x_target, solid):
    """The closing landing, one walk step from the walk's ``last`` point onto
    the hyperplane of ``x_target``: its point, with its own tangent, if it
    lands within CLOSURE_TOL of ``x_target`` on ``solid``, else None."""
    x_last, tangent = last.state.x, last.tangent
    try:
        landing = yield from _attempt_step(system, x_last, tangent,
                                           float(np.dot(x_target - x_last, tangent)))
    except (NoConvergence, SingularJacobian):
        return None
    if not _norm((landing.state.x - x_target)[solid]) < CLOSURE_TOL:
        return None
    try:  # a fold between the last step and the landing is bracketed
        tangent = branch_tangent(system, landing.state, tangent)
    except SingularJacobian:
        pass  # the last step's tangent
    return BranchPoint(landing.state, last.arclength + _norm(landing.state.x - x_last),
                       tangent, False, landing.iterations)


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
    """Locate folds by regula falsi on arclength between sign-change
    brackets: ``_fold_steps`` run through ``_solved``."""
    return _solved(system, _fold_steps(branch, system, config))


def _fold_steps(branch: Branch, system: LatticeSystem, config: ContinuationConfig):
    """The fold refinement of ``detect_folds``, as a walk.

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
    walked = [p for p in branch.points if not p.is_fold]
    folds: list[BranchPoint] = []
    for i in _fold_brackets(walked):
        left, right = walked[i], walked[i + 1]
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
                outcome = yield from _attempt_step(system, x_left, left.tangent,
                                                   trial, guess)
                t_trial = branch_tangent(system, outcome.state, left.tangent)
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
    points = _reversed(minus.points, offset) + [
        BranchPoint(p.state, offset + p.arclength, p.tangent, p.is_fold, p.newton_iters,
                    p.refined) for p in plus.points[1:]]
    reasons = {minus.closure, plus.closure}
    closure = next((c for c in (OPEN, STEP_LIMIT, WINDOW_EXIT) if c in reasons), OPEN)
    return Branch(points, closure, minus.open_ends + plus.open_ends)
