import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from locsync import cli, continuation
from locsync.asymptotics import SeedAnsatz, build_seed
from locsync.continuation import (
    CLOSED_ISOLA,
    FOLD_REFINE_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    STEP_LIMIT,
    OPEN,
    WINDOW_EXIT,
    Bordered,
    Branch,
    BranchPoint,
    ContinuationConfig,
    ContinuationError,
    LatticeSystem,
    NoConvergence,
    SingularJacobian,
    _NewtonOutcome,
    _attempt_step,
    _bracket_guess,
    _dead_interfaces,
    _equilibrate_rows,
    _fold_brackets,
    _newton_solve,
    _solid_mask,
    branch_tangent,
    continue_branch,
    detect_folds,
    merge_branches,
    newton_correct,
)
from locsync.lattice import BoundaryKind, CouplingKind, LatticeError, PolarState
from locsync.model import bistable_roots
from reference import stacked_newton, stacked_tangent, walked_alone


EPS = 0.01
TOL = NEWTON_TOL  # the walks' corrector tolerance


def mu_axis(state, direction=1):
    """A seed's border row: the mu axis, signed by the run's direction."""
    ref = np.zeros(state.x.size)
    ref[-1] = direction
    return ref


def solve_one(system, x, border, tol, max_iter):
    """``_newton_solve`` on a stack of one: the row's outcome, or its error raised."""
    if border is not None:
        border = Bordered(border.x_prev[None], border.tangent[None], [border.ds])
    outcome, = _newton_solve(system, np.asarray(x)[None], border, tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def step_one(system, x_prev, tangent, ds, guess=None):
    """One ``_attempt_step`` run through the solve loop."""
    return continuation._solved(system, _attempt_step(system, x_prev, tangent, ds, guess))


@pytest.fixture(scope="module")
def dissipative_system(quintic):
    return LatticeSystem(quintic, CouplingKind.dissipative(), EPS, BoundaryKind.OFF_SITE)


def run_small_snake(quintic, system, n=4):
    """N-node snaking branch, both runs in lockstep: the two runs merged."""
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, n)
    seed = newton_correct(
        system,
        build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()),
    )
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05,
                             mu_window=(3 * EPS, 1 - 0.15 * EPS))
    return continue_branch(system, seed, cfg), cfg, seed


def run_small_isola(quintic):
    system = LatticeSystem(quintic, CouplingKind.conservative(), EPS, BoundaryKind.ON_SITE)
    ansatz = SeedAnsatz(2, ("plus",) * 2, "conservative", BoundaryKind.ON_SITE, 6)
    seed = newton_correct(
        system, build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.conservative())
    )
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    return walked_alone(system, seed, +1, cfg), cfg, system


@pytest.fixture(scope="module")
def small_snake(quintic, dissipative_system):
    return run_small_snake(quintic, dissipative_system)


@pytest.fixture(scope="module")
def small_isola(quintic):
    return run_small_isola(quintic)


def svd_tangent(system, state, prev_tangent=None, direction=1,
                subspace_tol=1e-5, newton_tol=1e-10):
    """Reference tangent: the reference direction projected onto the
    near-null subspace of the equilibrated Jacobian (SVD), with dead phase
    columns pruned and gray-zone directions (singular values below
    subspace_tol * s_max) absorbed into the subspace."""
    n = state.n
    jac = system.jacobian(state)
    jac, _ = _equilibrate_rows(jac, np.zeros((jac.shape[0], 1)))
    dead = _dead_interfaces(state, system.eps, newton_tol)
    alive = np.ones(2 * n + 1, dtype=bool)
    alive[n: 2 * n - 1] = ~dead
    _, s, vt = np.linalg.svd(jac[:, alive])
    null_rows = vt[len(s):]
    small = s <= subspace_tol * s[0]
    basis = np.vstack([vt[: len(s)][small], null_rows]) if np.any(small) else null_rows
    if prev_tangent is not None:
        ref = np.asarray(prev_tangent, dtype=float).copy()
    else:
        ref = np.zeros(2 * n + 1)
        ref[-1] = float(np.sign(direction))
    solid = _solid_mask(state)
    ref[~solid] = 0.0
    proj = basis.T @ (basis @ ref[alive])
    if prev_tangent is None and float(np.linalg.norm(proj)) < 1e-8:
        proj = basis[-1]
    t = np.zeros(2 * n + 1)
    t[alive] = proj
    t[~solid] = 0.0
    return t / float(np.linalg.norm(t))


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(ds_init=0.0)
    with pytest.raises(ValueError):
        ContinuationConfig(ds_init=1e-8)  # below DS_MIN
    with pytest.raises(ValueError):
        ContinuationConfig(mu_window=(1.0, 0.0))


def test_config_holds_only_what_a_run_sets():
    # the corrector's tolerance is a constant of the method, still readable
    # where a config is at hand
    assert [f.name for f in dataclasses.fields(ContinuationConfig)] == [
        "ds_init", "ds_max", "max_steps", "mu_window"]
    assert ContinuationConfig().newton_tol == ContinuationConfig.newton_tol == NEWTON_TOL
    with pytest.raises(TypeError):
        ContinuationConfig(newton_tol=1e-8)


def test_newton_zero_iterations_for_exact_state(quintic):
    system = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                           BoundaryKind.OFF_SITE)
    prof = bistable_roots(quintic, 0.6)
    st = PolarState([prof.r_plus, 0.0, prof.r_minus], [0.0, 0.0], 0.0, 0.6)
    out = solve_one(system, st.x, None, 1e-10, 12)
    assert out.iterations == 0
    assert np.array_equal(out.state.r, st.r)


def test_newton_converges_from_seed(quintic, dissipative_system):
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    seed = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    out = solve_one(dissipative_system, seed.x, None, 1e-10, 12)
    assert out.iterations <= 6
    assert dissipative_system.residual_norm(out.state) <= 1e-10


def test_newton_mismatch_obstruction_no_convergence(quintic):
    # frequency-mismatch obstruction: omega1 above the r+/r- threshold
    spec = quintic.with_omega1((0.0, 5.0))
    system = LatticeSystem(spec, CouplingKind.dissipative(), EPS, BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(6, ("plus",) * 5 + ("minus",), "in_phase",
                        BoundaryKind.OFF_SITE, 10)
    seed = build_seed(spec, 0.75, EPS, ansatz, CouplingKind.dissipative())
    with pytest.raises(NoConvergence):
        newton_correct(system, seed)


def test_newton_bordered_mode(quintic, dissipative_system):
    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    system = LatticeSystem(quintic, CouplingKind.dissipative(), EPS,
                           BoundaryKind.OFF_SITE)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz,
                                             CouplingKind.dissipative()))
    t = branch_tangent(system, seed, mu_axis(seed, +1))
    ds = 0.01
    x_prev = seed.x
    corrected = solve_one(system, x_prev + ds * t, Bordered(x_prev, t, ds),
                              1e-10, 12).state
    assert system.residual_norm(corrected) <= 1e-10
    assert np.dot(corrected.x - x_prev, t) == pytest.approx(ds, abs=1e-10)


def test_tangent_is_unit_null_vector(quintic, dissipative_system):
    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    system = LatticeSystem(quintic, CouplingKind.dissipative(), EPS,
                           BoundaryKind.OFF_SITE)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz,
                                             CouplingKind.dissipative()))
    t = branch_tangent(system, seed, mu_axis(seed, +1))
    assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
    assert t[-1] > 0.0  # oriented toward increasing mu
    jac = system.jacobian(seed)
    assert np.max(np.abs(jac @ t)) <= 1e-8
    t_down = branch_tangent(system, seed, mu_axis(seed, -1))
    assert t_down[-1] < 0.0


def test_bordered_tangent_matches_svd_reference(small_snake, dissipative_system):
    # No gray directions on the dissipative snake, so the bordered solve and
    # the SVD projection define the same unit null vector.
    branch, _, seed = small_snake
    for direction in (-1, 1):
        assert np.allclose(branch_tangent(dissipative_system, seed, mu_axis(seed, direction)),
                           svd_tangent(dissipative_system, seed, direction=direction),
                           rtol=0.0, atol=1e-10)
    walk = [p for p in branch.points if not p.is_fold]
    for prev, p in zip(walk[:-1], walk[1:]):
        got = branch_tangent(dissipative_system, p.state, prev.tangent)
        want = svd_tangent(dissipative_system, p.state, prev_tangent=prev.tangent)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_walk_tangent_close_to_fresh_tangent(small_snake, dissipative_system):
    # The walk keeps the corrector's tangent, one Newton step stale.
    branch, _, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    for prev, p in zip(walk[:-1], walk[1:]):
        fresh = branch_tangent(dissipative_system, p.state, prev.tangent)
        assert np.max(np.abs(p.tangent - fresh)) <= 1e-3


def test_newton_and_tangent_match_stacked_reference(quintic, small_snake,
                                                    dissipative_system, small_isola):
    # In-place bordered assembly and equilibration on the packed vector give
    # the bits of the vstack / PolarState formulation, step by step.
    assert list(inspect.signature(newton_correct).parameters) == [
        "system", "state", "tol", "max_iter"]
    assert list(inspect.signature(_newton_solve).parameters) == [
        "system", "x", "border", "tol", "max_iter"]
    # one border row: the previous tangent, or a seed's signed mu axis
    assert list(inspect.signature(branch_tangent).parameters) == ["system", "state", "ref"]
    assert list(inspect.signature(_attempt_step).parameters) == [
        "system", "x_prev", "tangent", "ds", "guess"]
    snake, _, seed = small_snake
    isola, _, isola_system = small_isola
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    raw = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    got = solve_one(dissipative_system, raw.x, None, 1e-10, 12)
    want_state, want_it, _ = stacked_newton(dissipative_system, raw)
    assert got.iterations == want_it > 0
    assert got.state.x.tobytes() == want_state.x.tobytes()
    assert newton_correct(dissipative_system, raw).x.tobytes() == want_state.x.tobytes()
    # phases between tail amplitudes below 0.1 tol / eps come back pinned to 0
    tail = raw.copy()
    dead = _dead_interfaces(tail, EPS, 1e-10)
    assert dead.any()
    tail.phi[dead] = 0.3
    got = solve_one(dissipative_system, tail.x, None, 1e-10, 12)
    assert np.all(got.state.phi[dead] == 0.0)
    assert got.state.x.tobytes() == stacked_newton(
        dissipative_system, tail)[0].x.tobytes()
    for direction in (-1, 1):
        assert branch_tangent(dissipative_system, seed, mu_axis(seed, direction)).tobytes() \
            == stacked_tangent(dissipative_system, seed, mu_axis(seed, direction)).tobytes()
    for branch, system in ((snake, dissipative_system), (isola, isola_system)):
        walk = [p for p in branch.points if not p.is_fold]
        for prev, p in zip(walk[:-1], walk[1:]):
            x_prev = prev.state.x
            ds = p.arclength - prev.arclength
            predictor = x_prev + ds * prev.tangent
            border = Bordered(x_prev, prev.tangent, ds)
            got = solve_one(system, predictor, border, 1e-10, 12)
            want_state, want_it, want_t = stacked_newton(
                system, PolarState.from_packed(predictor), border)
            assert got.iterations == want_it
            assert got.state.x.tobytes() == want_state.x.tobytes()
            if want_it:
                assert got.tangent.tobytes() == want_t.tobytes()
            got_t = branch_tangent(system, p.state, prev.tangent)
            assert got_t.tobytes() == stacked_tangent(system, p.state, prev.tangent).tobytes()


@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("bordered", [True, False], ids=["bordered", "fixed_mu"])
def test_stacked_corrector_matches_the_reference_row_by_row(quintic, bc, bordered):
    # One stack mixes rows that converge after 0, 2 and 3 iterates, one that
    # runs out of NEWTON_MAX_ITER, one whose start is not finite and one with
    # a singular matrix.  Each row gets the bits and the error of its own
    # single-row correction, and only the singular row fails singular: the
    # stacked solve that raises is redone row by row.
    c = CouplingKind.dissipative()
    system = LatticeSystem(quintic, c, EPS, bc)
    raw = build_seed(quintic, 0.5, EPS, SeedAnsatz(2, ("plus",) * 2, "in_phase", bc, 6), c)
    seed = newton_correct(system, raw)
    t = branch_tangent(system, seed, mu_axis(seed))
    singular = PolarState([0.9, 0.0, 0.0, 0.5, 0.1, 0.0], [0.1, 0.2, 0.3, 0.1, 0.0], 0.0, 0.5)
    not_finite = seed.x.copy()
    not_finite[2] = np.nan
    if bordered:  # step lengths 0, 0.01, 0.2 and 1.0 along the seed's tangent
        starts = [seed.x + ds * t for ds in (0.0, 0.01, 0.2, 1.0)] + [not_finite, singular.x]
        borders = [(seed.x, t, ds) for ds in (0.0, 0.01, 0.2, 1.0)] + [
            (seed.x, t, 0.01), (singular.x, mu_axis(singular), 0.01)]
        border = Bordered(*(np.array(part) for part in zip(*borders)))
        border = border._replace(ds=list(border.ds))
    else:  # the seed, the raw seed, and the seed's amplitudes moved by 1e-3 and 0.3
        moved = [seed.x.copy(), seed.x.copy()]
        moved[0][:6] += 1e-3
        moved[1][:6] += 0.3
        starts, borders, border = [seed.x, raw.x, moved[0], moved[1], not_finite,
                                   singular.x], [None] * 6, None
    got = _newton_solve(system, np.array(starts), border, TOL, NEWTON_MAX_ITER)
    assert [out.iterations for out in got[:3]] == [0, 2, 3]
    assert str(got[3]) == f"Newton did not reach tol={TOL} within {NEWTON_MAX_ITER} iterations"
    assert isinstance(got[3], NoConvergence)
    assert isinstance(got[4], LatticeError) and str(got[4]) == "non-finite entries in state"
    assert isinstance(got[5], SingularJacobian) and str(got[5]) == "Singular matrix"
    for start, row, out in zip(starts[:3], borders[:3], got[:3]):
        row = Bordered(*row) if bordered else None
        want_state, want_it, want_t = stacked_newton(
            system, PolarState.from_packed(start), row, TOL, NEWTON_MAX_ITER)
        assert out.iterations == want_it
        assert out.state.x.tobytes() == want_state.x.tobytes()
        if want_it and bordered:
            assert out.tangent.tobytes() == want_t.tobytes()
            assert branch_tangent(system, out.state, row.tangent).tobytes() == \
                stacked_tangent(system, out.state, row.tangent).tobytes()
    with pytest.raises(AssertionError, match="did not converge"):
        stacked_newton(system, PolarState.from_packed(starts[3]),
                       Bordered(*borders[3]) if bordered else None, TOL, NEWTON_MAX_ITER)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        stacked_newton(system, singular, Bordered(*borders[5]) if bordered else None,
                       TOL, NEWTON_MAX_ITER)


def test_newton_iterate_is_one_residual_and_one_bordered_jacobian(
        quintic, dissipative_system, monkeypatch):
    # The loop looks both names up in the continuation module at call time
    # (outside-in tracing relies on it) and calls each once per iterate.
    calls = {"residual": 0, "jacobian": 0, "border": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            border = kwargs.get("border", args[6] if len(args) > 6 else None)
            calls["border"] += border is not None
            return original(*args, **kwargs)
        return wrapper

    for name in ("residual", "jacobian"):
        monkeypatch.setattr(continuation, name, counted(name, getattr(continuation, name)))
    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    seed = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    out = solve_one(dissipative_system, seed.x, None, 1e-10, 12)
    assert out.iterations > 0
    assert calls == {"residual": out.iterations + 1, "jacobian": out.iterations,
                     "border": 0}
    t = branch_tangent(dissipative_system, out.state, mu_axis(out.state, +1))
    calls.update(residual=0, jacobian=0, border=0)
    x_prev = out.state.x
    step = step_one(dissipative_system, x_prev, t, 0.01)
    assert step.iterations > 0
    assert calls == {"residual": step.iterations + 1, "jacobian": step.iterations,
                     "border": step.iterations}


def test_equilibrate_rows_in_place_keeps_zero_and_nan_rows_at_scale_one():
    a = np.array([[3.0, -6.0, 0.5], [0.0, -0.0, 0.0], [np.nan, 1.0, 2.0],
                  [1e-301, -1e-302, 0.0], [-2.0, 1.0, 4.0]])
    b = np.arange(10.0).reshape(5, 2) - 4.0
    a0, b0 = a.copy(), b.copy()
    got_a, got_b = _equilibrate_rows(a, b)
    assert got_a is a and got_b is b  # in place
    scale = np.array([6.0, 1.0, 1.0, 1.0, 4.0])[:, None]
    assert (a0 / scale).tobytes() == a.tobytes()
    assert (b0 / scale).tobytes() == b.tobytes()


def test_non_finite_predictor_fails_before_iterating(quintic, dissipative_system,
                                                    monkeypatch):
    # The predictor reaches the corrector as a packed vector, unvalidated;
    # the corrector itself must refuse a non-finite one, not iterate on NaN.
    def no_call(*args, **kwargs):
        raise AssertionError("Newton evaluated a non-finite predictor")

    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    seed = newton_correct(dissipative_system, build_seed(
        quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()))
    t = branch_tangent(dissipative_system, seed, mu_axis(seed, +1))
    monkeypatch.setattr(continuation, "residual", no_call)
    for bad in (np.nan, np.inf, -np.inf):
        tangent = t.copy()
        tangent[3] = bad
        with pytest.raises(LatticeError, match="non-finite"):
            step_one(dissipative_system, seed.x, tangent, 0.01)
        x = seed.x.copy()
        x[-1] = bad
        with pytest.raises(LatticeError, match="non-finite"):
            solve_one(dissipative_system, x, None, 1e-10, 12)


def test_tangent_at_eps_zero_pins_every_phase(quintic):
    system = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                           BoundaryKind.OFF_SITE)
    prof = bistable_roots(quintic, 0.6)
    st = PolarState([prof.r_plus, prof.r_minus, 0.0], [0.3, -0.2], 0.0, 0.6)
    assert _dead_interfaces(st, 0.0, 1e-10).all()
    t = branch_tangent(system, st, mu_axis(st, +1))
    assert np.all(t[3:5] == 0.0) and t[-1] > 0.0
    assert np.max(np.abs(system.jacobian(st) @ t)) <= 1e-12


def test_tangents_pin_the_phases_the_corrector_pins(quintic):
    # The corrector zeroes this isola's dead tail phases at NEWTON_TOL; the
    # seed's and the fold trials' tangents pin those phases inside the solve.
    bc, c = BoundaryKind.ON_SITE, CouplingKind.conservative()
    system = LatticeSystem(quintic, c, EPS, bc)
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    ansatz = SeedAnsatz(1, ("plus",), "conservative", bc, 10)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz, c))
    dead = _dead_interfaces(seed, EPS, NEWTON_TOL)
    assert dead.any()
    pinned = branch_tangent(system, seed, mu_axis(seed, +1))
    assert np.all(pinned[seed.n + np.flatnonzero(dead)] == 0.0)
    branch = walked_alone(system, seed, +1, cfg)
    assert branch.points[0].tangent.tobytes() == pinned.tobytes()
    walk = [p for p in branch.points if not p.is_fold]
    refined = [p for p in branch.folds if p.refined]
    assert len(refined) == 4
    for fold in refined:  # a refined fold keeps its trial's tangent
        left = max((p for p in walk if p.arclength < fold.arclength),
                   key=lambda p: p.arclength)
        assert fold.tangent.tobytes() == branch_tangent(
            system, fold.state, left.tangent).tobytes()


def test_corrected_seed_pins_dead_phases_after_the_flip(quintic):
    # Nodes 9 and 10 of this seed converge slightly below 0; the flip shifts
    # the phases of their interfaces by pi, so the dead phases are pinned
    # after it and come back exactly 0.0, not pi.
    bc, c = BoundaryKind.ON_SITE, CouplingKind.conservative()
    system = LatticeSystem(quintic, c, EPS, bc)
    raw = build_seed(quintic, 0.5, EPS, SeedAnsatz(1, ("plus",), "conservative", bc, 10), c)
    seed = newton_correct(system, raw)
    dead = _dead_interfaces(seed, EPS, NEWTON_TOL)
    assert dead[-3:].all() and seed.r.min() >= 0.0
    assert seed.phi[dead].tolist() == [0.0] * int(dead.sum())


def test_secant_fallback_lies_on_the_solid_coordinates(quintic, monkeypatch):
    # With the corrector's column not finite and branch_tangent singular past
    # the seed, each walk tangent is the secant, masked to the landing's solid
    # coordinates like the other two candidates.
    c, bc = CouplingKind.conservative(), BoundaryKind.ON_SITE
    system = LatticeSystem(quintic, c, EPS, bc)
    seed = newton_correct(system, build_seed(
        quintic, 0.5, EPS, SeedAnsatz(2, ("plus",) * 2, "conservative", bc, 6), c))
    real_solve, real_tangent = continuation._newton_solve, continuation.branch_tangent

    def no_column(system, x, border, tol, max_iter):
        return [out._replace(tangent=np.full(x.shape[-1], np.nan))
                if isinstance(out, _NewtonOutcome) else out
                for out in real_solve(system, x, border, tol, max_iter)]

    def seed_only(system, state, ref):
        if ref[:-1].any():  # a walk's border row, not a seed's mu axis
            raise SingularJacobian("forced")
        return real_tangent(system, state, ref)

    monkeypatch.setattr(continuation, "_newton_solve", no_column)
    monkeypatch.setattr(continuation, "branch_tangent", seed_only)
    branch = walked_alone(system, seed, +1, ContinuationConfig(max_steps=40))
    walk = [p for p in branch.points if not p.is_fold][1:]
    assert branch.closure == STEP_LIMIT and len(walk) == 40
    assert not all(_solid_mask(p.state).all() for p in walk)  # tail phases to drop
    for p in walk:
        assert np.linalg.norm(p.tangent) == pytest.approx(1.0, abs=1e-12)
        assert not p.tangent[~_solid_mask(p.state)].any()

    # a landing that moves only a tail phase leaves a secant with no solid part
    def tail_only(system, x_prev, tangent, ds, guess=None):
        state = PolarState.from_packed(x_prev.copy())
        state.phi[-1] += 1e-3
        return _NewtonOutcome(state, 1, np.full(x_prev.size, np.nan), _solid_mask(state))
        yield  # a step that needs no correction

    assert not _solid_mask(seed)[2 * seed.n - 2]  # phi[-1]: outside the mask
    monkeypatch.setattr(continuation, "_attempt_step", tail_only)
    branch = walked_alone(system, seed, +1, ContinuationConfig(max_steps=40))
    assert branch.closure == OPEN and len(branch.points) == 1


def test_continuation_makes_no_svd(quintic, dissipative_system, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("continuation called numpy.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    branch, cfg, _ = run_small_snake(quintic, dissipative_system)
    assert len(detect_folds(branch, dissipative_system, cfg)) == 6
    isola, cfg, system = run_small_isola(quintic)
    assert isola.closure == CLOSED_ISOLA
    assert len(detect_folds(isola, system, cfg)) == 4


@pytest.mark.filterwarnings("error")  # an overflowing residual warns nothing
def test_continue_branch_seed_precondition(quintic, dissipative_system):
    off_branch = PolarState(np.full(10, 0.5), np.zeros(9), 0.0, 0.5)
    # the corrected off-site snake seed with r_1 = 1e200: its residual
    # overflows to NaN, which no "> newton_tol" test catches
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, 10)
    overflowing = newton_correct(dissipative_system, build_seed(
        quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()))
    overflowing.x[0] = 1e200
    for bad, shown in ((off_branch, ""), (overflowing, "nan ")):
        with pytest.raises(ContinuationError, match=f"seed residual {shown}"):
            continue_branch(dissipative_system, bad, ContinuationConfig())


def test_step_limit_two_points(quintic, dissipative_system):
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, 10)
    seed = newton_correct(
        dissipative_system,
        build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()),
    )
    branch = walked_alone(dissipative_system, seed, +1, ContinuationConfig(max_steps=1))
    assert branch.closure == STEP_LIMIT
    assert len([p for p in branch.points if not p.is_fold]) == 2


def test_small_snake_structure(small_snake, quintic):
    branch, cfg, _ = small_snake
    assert branch.closure == WINDOW_EXIT
    assert len(branch.folds) == 2 * (4 - 1)
    mus = sorted(f.mu for f in branch.folds)
    assert all(m < 0.2 for m in mus[:3])
    assert all(m > 0.95 for m in mus[3:])
    assert all(f.refined for f in branch.folds)


def test_branch_points_satisfy_residual(small_snake, dissipative_system):
    branch, cfg, _ = small_snake
    worst = max(dissipative_system.residual_norm(p.state) for p in branch.points)
    assert worst <= cfg.newton_tol


def test_tangent_continuity_and_unit_norm(small_snake):
    branch, _, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    for p in walk:
        assert np.linalg.norm(p.tangent) == pytest.approx(1.0, abs=1e-9)
    for a, b in zip(walk[:-1], walk[1:]):
        assert float(np.dot(a.tangent, b.tangent)) > 0.0


def test_fold_parity_between_same_sign_points(small_snake):
    branch, _, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    signs = [np.sign(p.tangent[-1]) for p in walk]
    for i in range(0, len(walk) - 1, 7):
        for j in range(i + 1, len(walk), 11):
            if signs[i] == signs[j] and 0 not in (signs[i], signs[j]):
                crossings = sum(
                    1 for a, b in zip(signs[i:j], signs[i + 1:j + 1]) if a != b
                )
                assert crossings % 2 == 0


def test_determinism_bitwise(quintic, dissipative_system):
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, 4)
    system = LatticeSystem(quintic, CouplingKind.dissipative(), EPS,
                           BoundaryKind.OFF_SITE)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz,
                                             CouplingKind.dissipative()))
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05,
                             mu_window=(3 * EPS, 1 - 0.15 * EPS))
    b1 = continue_branch(system, seed, cfg)
    b2 = continue_branch(system, seed, cfg)
    assert len(b1.points) == len(b2.points)
    for p, q in zip(b1.points, b2.points):
        assert np.array_equal(p.state.x, q.state.x)
        assert np.array_equal(p.tangent, q.tangent)


def test_fold_bracket_counting_synthetic(small_snake):
    branch, _, _ = small_snake
    template = branch.points[0]
    pts = []
    for i, tmu in enumerate((+0.5, -0.5, +0.5)):
        t = template.tangent.copy()
        t[-1] = tmu
        pts.append(BranchPoint(template.state, float(i), t, False, 1))
    assert len(_fold_brackets(pts)) == 2
    mono = [BranchPoint(template.state, float(i), template.tangent, False, 1)
            for i in range(4)]
    assert len(_fold_brackets(mono)) == 0


def test_detect_folds_empty_for_monotone_segment(quintic, dissipative_system, small_snake):
    branch, cfg, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    # a monotone-mu stretch: no sign change, no folds
    start = len(walk) // 2
    sub = Branch(points=walk[start:start + 5])
    sub_folds = detect_folds(sub, dissipative_system, cfg)
    signs = {np.sign(p.tangent[-1]) for p in walk[start:start + 5]}
    if len(signs) == 1:
        assert sub_folds == []


def test_detect_folds_idempotent(small_snake, dissipative_system):
    branch, cfg, _ = small_snake
    again = detect_folds(branch, dissipative_system, cfg)
    assert len(again) == len(branch.folds)
    for a, b in zip(sorted(f.mu for f in again), sorted(f.mu for f in branch.folds)):
        assert a == pytest.approx(b, abs=1e-8)


def test_fold_refinement_tangent_tolerance(small_snake, dissipative_system, quintic):
    branch = small_snake[0]
    walk = [p for p in branch.points if not p.is_fold]
    for rec in branch.folds:
        nearest = min(walk, key=lambda p: abs(p.arclength - rec.arclength))
        t = branch_tangent(dissipative_system, rec.state, nearest.tangent)
        assert abs(t[-1]) <= 10 * FOLD_REFINE_TOL


def test_fold_points_carry_their_fold_tangent(small_snake):
    branch = small_snake[0]
    assert branch.folds == [p for p in branch.points if p.is_fold]
    refined = [p for p in branch.folds if p.refined]
    assert len(refined) == 6
    for p in refined:
        assert abs(p.tangent[-1]) <= FOLD_REFINE_TOL


def test_fold_refinement_cost(small_snake, dissipative_system, monkeypatch):
    branch, cfg, _ = small_snake
    trials = []
    real = continuation.branch_tangent

    def counted(*args, **kwargs):
        trials.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "branch_tangent", counted)
    folds = detect_folds(branch, dissipative_system, cfg)
    assert len(folds) == 6 and all(f.refined for f in folds)
    assert len(trials) <= 8 * len(folds)


def test_bracket_guess_interpolates_phases_through_pi():
    # ends (s, t_mu, state) with n = 2 states (r_1, r_2, phi_1, rho, mu); the
    # ends' phases are 0.083 apart across pi
    x_lo = np.array([0.5, 0.1, 3.1, 0.0, 0.4])
    x_hi = np.array([0.7, 0.3, -3.1, 0.2, 0.6])
    lo, hi = [0.2, 0.3, x_lo], [0.6, -0.1, x_hi]
    mid = _bracket_guess(lo, hi, 0.4)
    assert abs(abs(mid[2]) - np.pi) <= 1e-3  # not 0, where a plain average lands
    assert np.allclose(mid[[0, 1, 3, 4]], [0.6, 0.2, 0.1, 0.5], rtol=0, atol=1e-15)
    assert np.array_equal(_bracket_guess(lo, hi, 0.2), x_lo)
    assert np.allclose(_bracket_guess(lo, hi, 0.6), x_hi + [0, 0, 2 * np.pi, 0, 0],
                       rtol=0, atol=1e-15)
    # a bracket that shrank to one arclength gives its end, not a division by 0
    assert np.array_equal(_bracket_guess(lo, [0.2, -0.1, x_hi], 0.2), x_lo)


def test_warm_started_step_is_checked_against_the_tangent_predictor(
        small_snake, dissipative_system):
    # a start 2.5 ds off the predictor still lands on the predictor's point,
    # and the drift guard (2 ds) measures that point against the predictor
    branch, cfg, _ = small_snake
    prev = [p for p in branch.points if not p.is_fold][10]
    x_prev, ds = prev.state.x, 0.02
    plain = step_one(dissipative_system, x_prev, prev.tangent, ds)
    guess = x_prev + ds * prev.tangent
    guess[0] += 2.5 * ds
    warm = step_one(dissipative_system, x_prev, prev.tangent, ds, guess)
    assert np.max(np.abs(warm.state.x - plain.state.x)) <= 1e-9


def test_fold_trials_start_from_their_bracket(quintic, dissipative_system, monkeypatch):
    # each fold trial's Newton starts from the interpolated bracket ends, so
    # it needs about one iteration (2.6 from the tangent predictor)
    iterations, in_folds = [], []
    real_newton, real_detect = continuation._newton_solve, continuation.detect_folds

    def newton(*args, **kwargs):
        outcomes = real_newton(*args, **kwargs)
        if in_folds:
            iterations.extend(out.iterations for out in outcomes
                              if isinstance(out, _NewtonOutcome))
        return outcomes

    def detect(*args, **kwargs):
        in_folds.append(True)
        try:
            return real_detect(*args, **kwargs)
        finally:
            in_folds.pop()

    monkeypatch.setattr(continuation, "_newton_solve", newton)
    monkeypatch.setattr(continuation, "detect_folds", detect)
    branch, _, _ = run_small_snake(quintic, dissipative_system, n=10)
    assert len(branch.folds) == 18 and all(f.refined for f in branch.folds)
    assert len(iterations) >= len(branch.folds)
    assert sum(iterations) <= 1.5 * len(iterations)


def test_closed_isola(small_isola):
    branch, cfg, system = small_isola
    assert branch.closure == CLOSED_ISOLA
    assert len(branch.folds) == 4
    assert max(system.residual_norm(p.state) for p in branch.points) <= cfg.newton_tol


def test_closing_landing_is_a_walk_step(quintic, monkeypatch):
    # The landing on the start point is an ordinary bordered step, drift
    # guard included: every bordered Newton solve runs inside _attempt_step.
    depth, inside, outside = [0], [], []
    attempt_step, newton_solve = continuation._attempt_step, continuation._newton_solve

    def step(*args, **kwargs):
        depth[0] += 1
        try:
            return (yield from attempt_step(*args, **kwargs))
        finally:
            depth[0] -= 1

    def solve(system, x, border, tol, max_iter):
        if border is not None:
            (inside if depth[0] else outside).extend(border.ds)
        return newton_solve(system, x, border, tol, max_iter)

    monkeypatch.setattr(continuation, "_attempt_step", step)
    monkeypatch.setattr(continuation, "_newton_solve", solve)
    branch, _, _ = run_small_isola(quintic)
    assert branch.closure == CLOSED_ISOLA
    assert inside and not outside


def test_closing_landing_carries_its_own_tangent(small_isola):
    # not the tangent of the step before it, so that a fold between the last
    # step and the landing is bracketed
    branch, _, system = small_isola
    walk = [p for p in branch.points if not p.is_fold]
    assert np.array_equal(walk[-1].tangent,
                          branch_tangent(system, walk[-1].state, walk[-2].tangent))
    assert not np.array_equal(walk[-1].tangent, walk[-2].tangent)


def same_branch(a, b):
    """Whether two branches hold the same bits, point by point."""
    return (a.closure == b.closure and a.open_ends == b.open_ends
            and len(a.points) == len(b.points)
            and all(p.state.x.tobytes() == q.state.x.tobytes()
                    and p.tangent.tobytes() == q.tangent.tobytes()
                    and np.float64(p.arclength).tobytes() == np.float64(q.arclength).tobytes()
                    and (p.is_fold, p.newton_iters, p.refined)
                    == (q.is_fold, q.newton_iters, q.refined)
                    for p, q in zip(a.points, b.points)))


def test_plus_run_alone_when_the_minus_corrector_fails_at_once(quintic, monkeypatch):
    # every correction of the -1 run fails: it halves ds at the seed down to
    # DS_MIN and ends open, and the +1 run closes onto its own start, bit for
    # bit as it does alone
    alone, cfg, system = run_small_isola(quintic)
    seed = alone.points[0].state
    real, failed = continuation._steps, []

    def failing(run):
        requests = next(run)
        while True:
            yield requests
            failed.extend(requests)
            try:
                requests = run.send([NoConvergence("forced")] * len(requests))
            except StopIteration as end:
                return end.value

    def steps(system, seed, direction, config, *fronts):
        run = real(system, seed, direction, config, *fronts)
        return failing(run) if direction == -1 else run

    monkeypatch.setattr(continuation, "_steps", steps)
    both = continue_branch(system, seed, cfg)
    assert len(failed) == 17  # 0.01 halved below DS_MIN = 1e-7
    assert alone.closure == CLOSED_ISOLA and same_branch(both, alone)


def test_walk_batch_hands_each_walk_its_own_end(quintic):
    # three walks of one system in one batch: the k = 2 isola, a walk from the
    # uncorrected asymptotic seed, whose residual precondition fails at once,
    # and the k = 3 isola.  The failure is that walk's entry, not the batch's,
    # and each isola is the bits of its continue_branch alone.
    c, bc = CouplingKind.conservative(), BoundaryKind.ON_SITE
    system = LatticeSystem(quintic, c, EPS, bc)
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    raw = {k: build_seed(quintic, 0.5, EPS, SeedAnsatz(k, ("plus",) * k, "conservative", bc, 6), c)
           for k in (2, 3)}
    seeds = [newton_correct(system, raw[2]), raw[2], newton_correct(system, raw[3])]
    got = continuation.walk_batch(system, [continuation.walk(system, s, cfg) for s in seeds])
    with pytest.raises(ContinuationError) as alone:
        continue_branch(system, raw[2], cfg)
    assert type(got[1]) is ContinuationError and str(got[1]) == str(alone.value)
    assert str(got[1]).startswith("seed residual")
    for branch, seed in ((got[0], seeds[0]), (got[2], seeds[2])):
        assert branch.closure == CLOSED_ISOLA and len(branch.folds) == 4
        assert same_branch(branch, continue_branch(system, seed, cfg))


def test_lockstep_sends_each_member_its_slice_and_stop_closes_the_rest():
    # members yield request lists of their own lengths; each is sent its own
    # slice of the replies, and the member whose end meets stop closes the
    # members still live, whose ends stay None
    log, closed = [], []

    def member(name, rounds):
        try:
            for r in range(rounds):
                replies = yield [f"{name}{r}.{j}" for j in range(r + 1)]
                log.append((name, replies))
            return name
        finally:
            closed.append(name)

    members = [member("a", 1), member("b", 2), member("c", 4)]
    lockstep = continuation._lockstep(members, stop=lambda end: end == "b")
    requests = next(lockstep)
    assert requests == ["a0.0", "b0.0", "c0.0"]
    requests = lockstep.send([r.upper() for r in requests])
    assert requests == ["b1.0", "b1.1", "c1.0", "c1.1"]  # a has ended
    with pytest.raises(StopIteration) as end:
        lockstep.send([r.upper() for r in requests])
    assert end.value.value == ["a", "b", None]
    assert log == [("a", ["A0.0"]), ("b", ["B0.0"]), ("c", ["C0.0"]), ("b", ["B1.0", "B1.1"])]
    assert closed == ["a", "b", "c"] and all(m.gi_frame is None for m in members)


def test_isola_disjointness_small(quintic):
    # Adjacent loops coincide in amplitudes at leading order along half their
    # length (loop k's recruiting half carries the same (r+, ..., r-, 0, ...)
    # pattern as loop k+1's lower half), so amplitude-only distance shrinks
    # with eps.  The stack separation is carried by the interface phase,
    # which differs by pi: the full-state distance is bounded away from 0.
    system = LatticeSystem(quintic, CouplingKind.conservative(), EPS,
                           BoundaryKind.ON_SITE)
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    branches = []
    for k in (2, 3):
        ansatz = SeedAnsatz(k, ("plus",) * k, "conservative", BoundaryKind.ON_SITE, 6)
        seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz,
                                                 CouplingKind.conservative()))
        branches.append(continue_branch(system, seed, cfg))
    full = [
        np.array([np.concatenate([p.state.r, p.state.phi]) for p in b.points])
        for b in branches
    ]
    dist_state = min(
        np.min(np.max(np.abs(full[0] - full[1][i]), axis=1))
        for i in range(len(full[1]))
    )
    assert dist_state > 0.1


def test_merge_branches_arclength_monotone(small_snake):
    branch, _, _ = small_snake
    arcs = [p.arclength for p in branch.points]
    assert all(a <= b + 1e-12 for a, b in zip(arcs[:-1], arcs[1:]))


def test_merged_closure_is_the_worse_end():
    # a failed end must not hide behind the other run's window exit
    point = BranchPoint(PolarState([0.5, 0.1], [0.0], 0.0, 0.5), 0.0, np.zeros(5))
    ranked = (OPEN, STEP_LIMIT, WINDOW_EXIT)
    for i, worse in enumerate(ranked):
        for other in ranked[i:]:
            for minus, plus in ((worse, other), (other, worse)):
                merged = merge_branches(Branch([point], minus), Branch([point], plus))
                assert merged.closure == worse
    ends = merge_branches(Branch([point], OPEN, (0.25,)), Branch([point], OPEN, (0.75,)))
    assert ends.open_ends == (0.25, 0.75)  # along the merged branch: the -1 run's first


def test_corrector_outcome_carries_the_packed_state(quintic, dissipative_system, small_snake):
    # The corrector hands back its state with the dead tail phases pinned
    # and negative amplitudes flipped, and the drift guard's solid mask.
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    raw = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    dead = _dead_interfaces(raw, EPS, TOL)
    assert dead.any()
    raw.phi[dead] = 0.3
    out = solve_one(dissipative_system, raw.x, None, TOL, 12)
    assert out.iterations > 0 and np.all(out.state.phi[dead] == 0.0)
    # node 2 negated, its two interface phases shifted by pi: the same
    # solution, which the corrector hands back flipped
    neg = out.state.copy()
    neg.r[1] = -neg.r[1]
    neg.phi[:2] += (np.pi, -np.pi)
    flipped = solve_one(dissipative_system, neg.x, None, TOL, 12)
    assert flipped.state.r.min() >= 0.0
    branch, cfg, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    for prev in walk[::7]:
        step = step_one(dissipative_system, prev.state.x, prev.tangent, 0.02)
        assert np.array_equal(step.solid, _solid_mask(step.state))


def test_tracer_call_sites_are_looked_up_at_call_time(quintic, dissipative_system,
                                                      monkeypatch, tmp_path):
    # The bench tracer wraps continuation.residual, continuation.jacobian and
    # np.linalg.solve; a refactor that inlined them would read 0 there.
    calls = dict.fromkeys(("residual", "jacobian", "solve"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("residual", "jacobian"):
        monkeypatch.setattr(continuation, name, counted(name, getattr(continuation, name)))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    branch, _, _ = run_small_snake(quintic, dissipative_system)
    assert len(branch.folds) == 6
    assert calls["residual"] > calls["jacobian"] > 0
    assert calls["solve"] == calls["jacobian"]  # every Jacobian is solved once
    # It also wraps continuation.continue_branch, continuation.detect_folds and
    # continuation.branch_tangent, and counts the tangents under detect_folds
    # as fold trials: ``continue`` makes one continue_branch call, which calls
    # detect_folds once per run, each reaching branch_tangent.
    calls.update(continue_branch=0, detect_folds=0, trials=0)
    depth = [0]

    def inside(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            depth[0] += name == "detect_folds"
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= name == "detect_folds"
        return wrapper

    def tangent(original):
        def wrapper(*args, **kwargs):
            calls["trials"] += depth[0] > 0
            return original(*args, **kwargs)
        return wrapper

    for name in ("continue_branch", "detect_folds"):
        monkeypatch.setattr(continuation, name, inside(name, getattr(continuation, name)))
    monkeypatch.setattr(continuation, "branch_tangent", tangent(continuation.branch_tangent))
    config = Path(__file__).resolve().parents[1] / "configs" / "snaking_offsite.json"
    assert cli.main(["continue", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    assert calls["continue_branch"] == 1 and calls["detect_folds"] == 2  # the +1 and -1 runs
    assert calls["trials"] > 0
