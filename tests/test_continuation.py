import inspect

import numpy as np
import pytest

from locsync import continuation
from locsync.asymptotics import SeedAnsatz, build_seed
from locsync.continuation import (
    CLOSED_ISOLA,
    FOLD_REFINE_TOL,
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
from reference import stacked_newton, stacked_tangent


EPS = 0.01
TOL = ContinuationConfig().newton_tol  # the walks' corrector tolerance


@pytest.fixture(scope="module")
def dissipative_system(quintic):
    return LatticeSystem(quintic, CouplingKind.dissipative(), EPS, BoundaryKind.OFF_SITE)


def run_small_snake(quintic, system, n=4):
    """N-node snaking branch, both directions merged."""
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, n)
    seed = newton_correct(
        system,
        build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()),
    )
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05,
                             mu_window=(3 * EPS, 1 - 0.15 * EPS))
    up = continue_branch(system, seed, +1, cfg)
    down = continue_branch(system, seed, -1, cfg)
    return merge_branches(down, up), cfg, seed


def run_small_isola(quintic):
    system = LatticeSystem(quintic, CouplingKind.conservative(), EPS, BoundaryKind.ON_SITE)
    ansatz = SeedAnsatz(2, ("plus",) * 2, "conservative", BoundaryKind.ON_SITE, 6)
    seed = newton_correct(
        system, build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.conservative())
    )
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    return continue_branch(system, seed, +1, cfg), cfg, system


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


def test_newton_zero_iterations_for_exact_state(quintic):
    system = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                           BoundaryKind.OFF_SITE)
    prof = bistable_roots(quintic, 0.6)
    st = PolarState([prof.r_plus, 0.0, prof.r_minus], [0.0, 0.0], 0.0, 0.6)
    out = _newton_solve(system, st.x, None, 1e-10, 12)
    assert out.iterations == 0
    assert np.array_equal(out.state.r, st.r)


def test_newton_converges_from_seed(quintic, dissipative_system):
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    seed = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    out = _newton_solve(dissipative_system, seed.x, None, 1e-10, 12)
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
    t = branch_tangent(system, seed, direction=+1, newton_tol=TOL)
    ds = 0.01
    x_prev = seed.x
    corrected = _newton_solve(system, x_prev + ds * t, Bordered(x_prev, t, ds),
                              1e-10, 12).state
    assert system.residual_norm(corrected) <= 1e-10
    assert np.dot(corrected.x - x_prev, t) == pytest.approx(ds, abs=1e-10)


def test_tangent_is_unit_null_vector(quintic, dissipative_system):
    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    system = LatticeSystem(quintic, CouplingKind.dissipative(), EPS,
                           BoundaryKind.OFF_SITE)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz,
                                             CouplingKind.dissipative()))
    t = branch_tangent(system, seed, direction=+1, newton_tol=TOL)
    assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
    assert t[-1] > 0.0  # oriented toward increasing mu
    jac = system.jacobian(seed)
    assert np.max(np.abs(jac @ t)) <= 1e-8
    t_down = branch_tangent(system, seed, direction=-1, newton_tol=TOL)
    assert t_down[-1] < 0.0


def test_bordered_tangent_matches_svd_reference(small_snake, dissipative_system):
    # No gray directions on the dissipative snake, so the bordered solve and
    # the SVD projection define the same unit null vector.
    branch, _, seed = small_snake
    for direction in (-1, 1):
        assert np.allclose(branch_tangent(dissipative_system, seed, direction=direction,
                                          newton_tol=TOL),
                           svd_tangent(dissipative_system, seed, direction=direction),
                           rtol=0.0, atol=1e-10)
    walk = [p for p in branch.points if not p.is_fold]
    for prev, p in zip(walk[:-1], walk[1:]):
        got = branch_tangent(dissipative_system, p.state, prev_tangent=prev.tangent,
                             newton_tol=TOL)
        want = svd_tangent(dissipative_system, p.state, prev_tangent=prev.tangent)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_walk_tangent_close_to_fresh_tangent(small_snake, dissipative_system):
    # The walk keeps the corrector's tangent, one Newton step stale.
    branch, _, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    for prev, p in zip(walk[:-1], walk[1:]):
        fresh = branch_tangent(dissipative_system, p.state, prev_tangent=prev.tangent,
                               newton_tol=TOL)
        assert np.max(np.abs(p.tangent - fresh)) <= 1e-3


def test_newton_and_tangent_match_stacked_reference(quintic, small_snake,
                                                    dissipative_system, small_isola):
    # In-place bordered assembly and equilibration on the packed vector give
    # the bits of the vstack / PolarState formulation, step by step.
    assert list(inspect.signature(newton_correct).parameters) == [
        "system", "state", "tol", "max_iter"]
    assert list(inspect.signature(_newton_solve).parameters) == [
        "system", "x", "border", "tol", "max_iter"]
    assert list(inspect.signature(branch_tangent).parameters) == [
        "system", "state", "prev_tangent", "direction", "newton_tol"]
    # no default: every caller passes the corrector's tolerance
    assert inspect.signature(branch_tangent).parameters["newton_tol"].default \
        is inspect.Parameter.empty
    snake, _, seed = small_snake
    isola, _, isola_system = small_isola
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    raw = build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative())
    got = _newton_solve(dissipative_system, raw.x, None, 1e-10, 12)
    want_state, want_it, _ = stacked_newton(dissipative_system, raw)
    assert got.iterations == want_it > 0
    assert got.state.x.tobytes() == want_state.x.tobytes()
    assert newton_correct(dissipative_system, raw).x.tobytes() == want_state.x.tobytes()
    # phases between tail amplitudes below 0.1 tol / eps come back pinned to 0
    tail = raw.copy()
    dead = _dead_interfaces(tail, EPS, 1e-10)
    assert dead.any()
    tail.phi[dead] = 0.3
    got = _newton_solve(dissipative_system, tail.x, None, 1e-10, 12)
    assert np.all(got.state.phi[dead] == 0.0)
    assert got.state.x.tobytes() == stacked_newton(
        dissipative_system, tail)[0].x.tobytes()
    for direction in (-1, 1):
        assert branch_tangent(dissipative_system, seed, direction=direction,
                              newton_tol=TOL).tobytes() \
            == stacked_tangent(dissipative_system, seed, direction=direction,
                               newton_tol=TOL).tobytes()
    for branch, system in ((snake, dissipative_system), (isola, isola_system)):
        walk = [p for p in branch.points if not p.is_fold]
        for prev, p in zip(walk[:-1], walk[1:]):
            x_prev = prev.state.x
            ds = p.arclength - prev.arclength
            predictor = x_prev + ds * prev.tangent
            border = Bordered(x_prev, prev.tangent, ds)
            got = _newton_solve(system, predictor, border, 1e-10, 12)
            want_state, want_it, want_t = stacked_newton(
                system, PolarState.from_packed(predictor), border)
            assert got.iterations == want_it
            assert got.state.x.tobytes() == want_state.x.tobytes()
            if want_it:
                assert got.tangent.tobytes() == want_t.tobytes()
            got_t = branch_tangent(system, p.state, prev_tangent=prev.tangent, newton_tol=TOL)
            assert got_t.tobytes() == stacked_tangent(
                system, p.state, prev_tangent=prev.tangent, newton_tol=TOL).tobytes()


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
    out = _newton_solve(dissipative_system, seed.x, None, 1e-10, 12)
    assert out.iterations > 0
    assert calls == {"residual": out.iterations + 1, "jacobian": out.iterations,
                     "border": 0}
    t = branch_tangent(dissipative_system, out.state, direction=+1, newton_tol=TOL)
    calls.update(residual=0, jacobian=0, border=0)
    x_prev = out.state.x
    step = _attempt_step(dissipative_system, ContinuationConfig(), x_prev, t, 0.01)
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
    t = branch_tangent(dissipative_system, seed, direction=+1, newton_tol=TOL)
    monkeypatch.setattr(continuation, "residual", no_call)
    for bad in (np.nan, np.inf, -np.inf):
        tangent = t.copy()
        tangent[3] = bad
        with pytest.raises(LatticeError, match="non-finite"):
            _attempt_step(dissipative_system, ContinuationConfig(), seed.x,
                          tangent, 0.01)
        x = seed.x.copy()
        x[-1] = bad
        with pytest.raises(LatticeError, match="non-finite"):
            _newton_solve(dissipative_system, x, None, 1e-10, 12)


def test_tangent_at_eps_zero_pins_every_phase(quintic):
    system = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                           BoundaryKind.OFF_SITE)
    prof = bistable_roots(quintic, 0.6)
    st = PolarState([prof.r_plus, prof.r_minus, 0.0], [0.3, -0.2], 0.0, 0.6)
    assert _dead_interfaces(st, 0.0, 1e-10).all()
    t = branch_tangent(system, st, direction=+1, newton_tol=TOL)
    assert np.all(t[3:5] == 0.0) and t[-1] > 0.0
    assert np.max(np.abs(system.jacobian(st) @ t)) <= 1e-12


def test_tangents_pin_the_phases_the_corrector_pins(quintic):
    # At newton_tol 1e-8 the corrector pins one more tail phase of this
    # isola's seed than the 1e-10 rule does, and that phase moves the
    # tangent: the walk's and the fold trials' tangents must use the former.
    bc, c = BoundaryKind.ON_SITE, CouplingKind.conservative()
    system = LatticeSystem(quintic, c, EPS, bc)
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05, newton_tol=1e-8)
    ansatz = SeedAnsatz(1, ("plus",), "conservative", bc, 10)
    seed = newton_correct(system, build_seed(quintic, 0.5, EPS, ansatz, c),
                          tol=cfg.newton_tol)
    assert _dead_interfaces(seed, EPS, 1e-8).sum() > _dead_interfaces(seed, EPS, 1e-10).sum()
    pinned = branch_tangent(system, seed, direction=+1, newton_tol=1e-8)
    assert pinned.tobytes() != branch_tangent(system, seed, direction=+1,
                                              newton_tol=1e-10).tobytes()
    branch = continue_branch(system, seed, +1, cfg)
    assert branch.points[0].tangent.tobytes() == pinned.tobytes()
    walk = [p for p in branch.points if not p.is_fold]
    refined = [p for p in branch.folds if p.refined]
    assert len(refined) == 4
    for fold in refined:  # a refined fold keeps its trial's tangent
        left = max((p for p in walk if p.arclength < fold.arclength),
                   key=lambda p: p.arclength)
        assert fold.tangent.tobytes() == branch_tangent(
            system, fold.state, prev_tangent=left.tangent,
            newton_tol=cfg.newton_tol).tobytes()


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
            continue_branch(dissipative_system, bad, +1, ContinuationConfig())


def test_step_limit_two_points(quintic, dissipative_system):
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", BoundaryKind.OFF_SITE, 10)
    seed = newton_correct(
        dissipative_system,
        build_seed(quintic, 0.5, EPS, ansatz, CouplingKind.dissipative()),
    )
    branch = continue_branch(dissipative_system, seed, +1,
                             ContinuationConfig(max_steps=1))
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
    b1 = continue_branch(system, seed, +1, cfg)
    b2 = continue_branch(system, seed, +1, cfg)
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
        t = branch_tangent(dissipative_system, rec.state,
                           prev_tangent=nearest.tangent, newton_tol=TOL)
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
    plain = _attempt_step(dissipative_system, cfg, x_prev, prev.tangent, ds)
    guess = x_prev + ds * prev.tangent
    guess[0] += 2.5 * ds
    warm = _attempt_step(dissipative_system, cfg, x_prev, prev.tangent, ds, guess)
    assert np.max(np.abs(warm.state.x - plain.state.x)) <= 1e-9


def test_fold_trials_start_from_their_bracket(quintic, dissipative_system, monkeypatch):
    # each fold trial's Newton starts from the interpolated bracket ends, so
    # it needs about one iteration (2.6 from the tangent predictor)
    iterations, in_folds = [], []
    real_newton, real_detect = continuation._newton_solve, continuation.detect_folds

    def newton(*args, **kwargs):
        outcome = real_newton(*args, **kwargs)
        if in_folds:
            iterations.append(outcome.iterations)
        return outcome

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
        branches.append(continue_branch(system, seed, +1, cfg))
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
    out = _newton_solve(dissipative_system, raw.x, None, TOL, 12)
    assert out.iterations > 0 and np.all(out.state.phi[dead] == 0.0)
    # node 2 negated, its two interface phases shifted by pi: the same
    # solution, which the corrector hands back flipped
    neg = out.state.copy()
    neg.r[1] = -neg.r[1]
    neg.phi[:2] += (np.pi, -np.pi)
    flipped = _newton_solve(dissipative_system, neg.x, None, TOL, 12)
    assert flipped.state.r.min() >= 0.0
    branch, cfg, _ = small_snake
    walk = [p for p in branch.points if not p.is_fold]
    for prev in walk[::7]:
        step = _attempt_step(dissipative_system, cfg, prev.state.x, prev.tangent, 0.02)
        assert np.array_equal(step.solid, _solid_mask(step.state))


def test_tracer_call_sites_are_looked_up_at_call_time(quintic, dissipative_system,
                                                      monkeypatch):
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
