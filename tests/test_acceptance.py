"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The heavy branch computations are shared session fixtures.
"""
import time

import numpy as np
import pytest

from locsync.asymptotics import (
    SeedAnsatz,
    build_seed,
    conservative_recruitment,
    fold_prediction_mu0,
    mismatch_bound,
    mu0_normalization,
)
from locsync.continuation import (
    CLOSED_ISOLA,
    ContinuationConfig,
    LatticeSystem,
    NoConvergence,
    SingularJacobian,
    continue_branch,
    newton_correct,
)
from locsync.dynamics import chain_rhs, integrate, unfold_state
from locsync.lattice import (
    BoundaryKind,
    CouplingKind,
    PolarState,
    jacobian,
    polar_to_complex,
    residual,
)
from locsync.model import bistable_roots, builtin_spec
from reference import (
    isola_curve,
    mirrored_chain,
    rigid_rotation_deviation,
    snaking_curve,
    snaking_domain,
)

N_NODES = 10

SNAKE_STEPS = {
    1e-2: dict(ds_init=0.01, ds_max=0.05),
    1e-3: dict(ds_init=0.005, ds_max=0.02),
    1e-4: dict(ds_init=0.002, ds_max=0.01),
}


def snake_window(eps):
    # within the guaranteed snaking regime: the lowest folds sit near
    # 3 eps^(2/3) and the highest near 1 - eps, while the conjectured
    # reconnections to the symmetric branch lie below 3 eps and above
    # 1 - O(eps^2)
    return (3.0 * eps, 1.0 - 0.15 * eps)


def run_snake(eps, bc):
    spec = builtin_spec("quintic")
    system = LatticeSystem(spec, CouplingKind.dissipative(), eps, bc)
    ansatz = SeedAnsatz(1, ("minus",), "in_phase", bc, N_NODES)
    seed = newton_correct(
        system, build_seed(spec, 0.5, eps, ansatz, CouplingKind.dissipative())
    )
    cfg = ContinuationConfig(mu_window=snake_window(eps), **SNAKE_STEPS[eps])
    t0 = time.perf_counter()
    branch = continue_branch(system, seed, cfg)
    return branch, time.perf_counter() - t0


@pytest.fixture(scope="session")
def snake_off():
    return run_snake(1e-2, BoundaryKind.OFF_SITE)


@pytest.fixture(scope="session")
def snake_on():
    return run_snake(1e-2, BoundaryKind.ON_SITE)


@pytest.fixture(scope="session")
def snake_small_eps():
    return {eps: run_snake(eps, BoundaryKind.OFF_SITE)[0] for eps in (1e-3, 1e-4)}


@pytest.fixture(scope="session")
def isola_stack():
    spec = builtin_spec("quintic")
    system = LatticeSystem(spec, CouplingKind.conservative(), 1e-2,
                           BoundaryKind.ON_SITE)
    cfg = ContinuationConfig(ds_init=0.01, ds_max=0.05)
    stack = {}
    for k in range(1, 9):
        ansatz = SeedAnsatz(k, ("plus",) * k, "conservative",
                            BoundaryKind.ON_SITE, N_NODES)
        seed = newton_correct(
            system, build_seed(spec, 0.5, 1e-2, ansatz, CouplingKind.conservative())
        )
        stack[k] = continue_branch(system, seed, cfg)
    return stack


def test_criterion_1_snaking_reproduction(snake_off, snake_on):
    """Fig 1(iii): 18-fold snaking branch with the stated endpoints."""
    spec = builtin_spec("quintic")
    checks = []
    for label, (branch, wall) in (("off_site", snake_off), ("on_site", snake_on)):
        assert branch.closure != CLOSED_ISOLA
        assert len(branch.folds) == 2 * (N_NODES - 1), \
            f"{label}: {len(branch.folds)} folds"
        assert wall < 30.0  # both runs, in lockstep
        small, top = branch.points[0].state, branch.points[-1].state
        if small.mu > top.mu:
            small, top = top, small
        assert small.mu < 0.15 and float(np.max(small.r)) < 0.2, \
            f"{label}: small end mu={small.mu:.3f} max r={np.max(small.r):.3f}"
        r_plus_top = bistable_roots(spec, min(top.mu, 1.0)).r_plus
        gap = float(np.max(np.abs(top.r - r_plus_top)))
        assert top.mu > 0.9 and gap < 0.05, \
            f"{label}: all-on end mu={top.mu:.4f} gap={gap:.4f}"
        checks.append(f"{label} 18 folds, ends ({small.mu:.3f}|{top.mu:.4f})")
    print(f"\nACCEPTANCE 1 snaking reproduction: PASS [{'; '.join(checks)}]")


def test_criterion_2_isola_stack(isola_stack):
    """Fig 1(ii): k = 1..8 closed isolas with the Gamma phase pattern."""
    lines = []
    for k, branch in isola_stack.items():
        assert branch.closure == CLOSED_ISOLA, f"k={k}: {branch.closure}"
        mus = branch.mu_values
        assert mus.min() <= 0.2 and mus.max() >= 0.8
        worst_int, worst_rec = 0.0, 0.0
        for p in branch.points:
            if 0.2 <= p.state.mu <= 0.8:
                if k >= 2:
                    worst_int = max(worst_int, float(np.max(
                        np.abs(p.state.phi[:k - 1] + np.pi / 2))))
                worst_rec = max(worst_rec,
                                abs(float(p.state.phi[k - 1]) - np.pi / 2))
        assert worst_int <= 0.1, f"k={k}: interior phase dev {worst_int:.3f}"
        assert worst_rec <= 0.1, f"k={k}: recruitment phase dev {worst_rec:.3f}"
        lines.append(f"k={k} ok")
    # disjointness of the stack (full-state max-norm; the amplitude
    # projections of adjacent loops coincide at leading order)
    packed = {
        k: np.array([np.concatenate([p.state.r, p.state.phi])
                     for p in br.points])
        for k, br in isola_stack.items()
    }
    min_dist = np.inf
    for a in packed:
        for b in packed:
            if a < b:
                for i in range(0, len(packed[b]), 3):
                    d = np.min(np.max(np.abs(packed[a] - packed[b][i]), axis=1))
                    min_dist = min(min_dist, float(d))
    assert min_dist > 0.1
    print(f"\nACCEPTANCE 2 isola stack: PASS [8 closed isolas, "
          f"stack separation {min_dist:.2f}]")


def test_criterion_3_fold_asymptotics_mu1(snake_off, snake_small_eps):
    """Folds near mu=1 sit at 1 - eps(1 + O(sqrt(eps)))."""
    devs = {}
    for eps, branch in ((1e-2, snake_off[0]), (1e-3, snake_small_eps[1e-3])):
        high = [f.mu for f in branch.folds if f.mu > 0.9]
        assert high, f"eps={eps}: no high folds"
        devs[eps] = max(abs((1.0 - mu) / eps - 1.0) for mu in high)
    assert devs[1e-2] <= 0.5
    assert devs[1e-3] < devs[1e-2]
    print(f"\nACCEPTANCE 3 fold asymptotics near mu=1: PASS "
          f"[max |(1-mu)/eps - 1|: {devs[1e-2]:.4f} @1e-2 -> "
          f"{devs[1e-3]:.4f} @1e-3]")


def _smallest_fold_ratios(snake_off, snake_small_eps):
    branches = {1e-2: snake_off[0], **snake_small_eps}
    ratios = {}
    for eps, branch in branches.items():
        low = [f.mu for f in branch.folds if f.mu <= 0.5]
        assert low, f"eps={eps}: no low folds"
        ratios[eps] = min(low) / eps ** (2.0 / 3.0)
    return ratios


@pytest.mark.xfail(
    strict=True,
    reason="unit mismatch in the stated target: the (3/2)cbrt(2) fold "
    "constant holds in normal-form units (r_+(0) = 1, unit cubic "
    "coefficient); the raw quintic folds converge to 3 eps^(2/3) "
    "= 2^(2/3) x 1.8899 eps^(2/3), so this literal ratio saturates near "
    "1.59 instead of 1.",
)
def test_criterion_4_fold_asymptotics_mu0_literal(snake_off, snake_small_eps):
    """Smallest fold / eps^(2/3) -> 1.8899 in raw units (known red)."""
    ratios = _smallest_fold_ratios(snake_off, snake_small_eps)
    target = fold_prediction_mu0(1.0)  # (3/2) cbrt(2)
    errs = {eps: abs(r / target - 1.0) for eps, r in ratios.items()}
    print(f"\nACCEPTANCE 4 (literal paper-unit constant): "
          f"ratios {({e: round(r, 4) for e, r in ratios.items()})} vs 1.8899, "
          f"errors {({e: round(v, 3) for e, v in errs.items()})} -> FAIL "
          f"(expected: unit mismatch, see xfail reason)")
    assert errs[1e-3] < errs[1e-2]
    assert errs[1e-4] < errs[1e-3]
    assert errs[1e-4] <= 0.10


def test_criterion_4_fold_asymptotics_mu0_normalized(snake_off, snake_small_eps):
    """Same data against the normalization-corrected constant 3 eps^(2/3)."""
    ratios = _smallest_fold_ratios(snake_off, snake_small_eps)
    spec = builtin_spec("quintic")
    target = mu0_normalization(spec) * fold_prediction_mu0(1.0)
    assert target == pytest.approx(3.0, rel=1e-6)
    errs = {eps: abs(r / target - 1.0) for eps, r in ratios.items()}
    assert errs[1e-3] < errs[1e-2]
    assert errs[1e-4] < errs[1e-3]
    assert errs[1e-4] <= 0.10
    print(f"\nACCEPTANCE 4 fold asymptotics near mu=0 (normalized constant 3): "
          f"PASS [errors {({e: round(v, 3) for e, v in errs.items()})}]")


MISMATCH_K = 20  # r+ block length of the lemma pattern
MISMATCH_N = 25


def _mismatch_newton(spec, eps):
    system = LatticeSystem(spec, CouplingKind.dissipative(), eps,
                           BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(MISMATCH_K + 1, ("plus",) * MISMATCH_K + ("minus",),
                        "in_phase", BoundaryKind.OFF_SITE, MISMATCH_N)
    seed = build_seed(spec, 0.75, eps, ansatz, CouplingKind.dissipative())
    return newton_correct(system, seed)


def test_criterion_5_mismatch_obstruction(quintic):
    """Lemma obstruction: omega1 = 5r blocks Newton, omega1 = r does not."""
    spec5 = quintic.with_omega1((0.0, 5.0))
    assert mismatch_bound(spec5, 0.75).obstructed
    for eps in (1e-2, 1e-3, 1e-4):
        with pytest.raises((NoConvergence, SingularJacobian)):
            _mismatch_newton(spec5, eps)

    spec1 = quintic.with_omega1((0.0, 1.0))
    bound = mismatch_bound(spec1, 0.75)
    assert not bound.obstructed
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        state = _mismatch_newton(spec1, eps)
        sin_phi_k = float(np.sin(state.phi[MISMATCH_K - 1]))
        devs.append(abs(sin_phi_k - bound.sin_phi_limit))
    assert max(devs) <= 0.1
    print(f"\nACCEPTANCE 5 mismatch obstruction: PASS "
          f"[5r blocked at all eps; r converged, max |sin phi_k - limit| "
          f"{max(devs):.4f}]")


def _random_state(rng, n):
    return PolarState(rng.normal(0.0, 1.0, n), rng.normal(0.0, 2.0, n - 1),
                      rng.normal(), rng.uniform(0.1, 0.9))


def _fd_jacobian(spec, c, state, eps, bc):
    x0 = state.x
    n = state.n
    out = np.zeros((2 * n, 2 * n + 1))
    for j in range(2 * n + 1):
        h = 1e-6 * (1.0 + abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (
            residual(spec, c, PolarState.from_packed(xp), eps, bc)
            - residual(spec, c, PolarState.from_packed(xm), eps, bc)
        ) / (2.0 * h)
    return out


def test_criterion_6_property_suite(quintic, quintic_rotating, snake_off):
    """The always-runnable property checks at their stated tolerances."""
    rng = np.random.default_rng(2024)
    spec = quintic_rotating.with_omega1((0.0, 0.0, 0.2))
    results = {}

    # analytic vs finite-difference Jacobian, 100 states per combination
    worst_jac = 0.0
    for c in (CouplingKind.dissipative(), CouplingKind.conservative()):
        for bc in BoundaryKind:
            for _ in range(100):
                st = _random_state(rng, int(rng.integers(2, 8)))
                eps = float(rng.uniform(0.0, 0.05))
                diff = jacobian(spec, c, st, eps, bc) - _fd_jacobian(spec, c, st, eps, bc)
                worst_jac = max(worst_jac, float(np.max(np.abs(diff))))
    assert worst_jac <= 1e-6
    results["jacobian_fd"] = worst_jac

    # polar/complex equivalence and gauge equivariance; the complex form is
    # chain_rhs on the unfolded chain, read on its last n nodes, minus i rho z
    worst_eq, worst_gauge = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        st = PolarState(rng.uniform(0.05, 1.5, n), rng.normal(0, 2, n - 1),
                        rng.normal(), rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(0.0, 0.05))
        for c in (CouplingKind.dissipative(), CouplingKind.conservative()):
            for bc in BoundaryKind:
                pol = residual(spec, c, st, eps, bc)
                z = polar_to_complex(st)
                cres = chain_rhs(spec, c, mirrored_chain(z, bc), st.mu, eps)[-n:] \
                    - 1j * st.rho * z
                theta = np.concatenate([[0.0], np.cumsum(st.phi)])
                back = cres * np.exp(-1j * theta)
                mixed = np.empty(2 * n)
                mixed[0::2], mixed[1::2] = back.real, back.imag
                worst_eq = max(worst_eq, float(np.max(np.abs(mixed - pol))))
            alpha = float(rng.uniform(-np.pi, np.pi))
            full = unfold_state(st, BoundaryKind.OFF_SITE)
            g = chain_rhs(spec, c, full * np.exp(1j * alpha), st.mu, eps)[-n:] \
                - 1j * st.rho * z * np.exp(1j * alpha)
            h = (chain_rhs(spec, c, full, st.mu, eps)[-n:] - 1j * st.rho * z) \
                * np.exp(1j * alpha)
            worst_gauge = max(worst_gauge, float(np.max(np.abs(g - h))))
    assert worst_eq <= 1e-12
    assert worst_gauge <= 1e-12
    results["polar_complex"] = worst_eq
    results["gauge"] = worst_gauge

    # eps = 0 curve points have zero residual
    worst_curve = 0.0
    eps0_off = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                             BoundaryKind.OFF_SITE)
    eps0_on = LatticeSystem(quintic, CouplingKind.conservative(), 0.0,
                            BoundaryKind.ON_SITE)
    lo, hi = snaking_domain(N_NODES)
    for s in np.linspace(lo + 0.04, hi - 0.04, 41):
        worst_curve = max(worst_curve, eps0_off.residual_norm(
            snaking_curve(quintic, N_NODES, s)))
    for s in np.linspace(0.0, 2.0, 21):
        for half in ("lower", "upper"):
            worst_curve = max(worst_curve, eps0_on.residual_norm(
                isola_curve(quintic, N_NODES, 3, s, half)))
    assert worst_curve <= 1e-10
    results["curve_residual"] = worst_curve

    # relative equilibrium over one period for 5 sampled snaking states,
    # transported to the rotating spec (identical equations with rho + 1)
    branch = snake_off[0]
    walk = [p for p in branch.points if not p.is_fold]
    idx = np.linspace(0, len(walk) - 1, 5).astype(int)
    system_rot = LatticeSystem(quintic_rotating, CouplingKind.dissipative(),
                               1e-2, BoundaryKind.OFF_SITE)
    worst_re = 0.0
    for i in idx:
        st = walk[i].state
        rot = PolarState(st.r, st.phi, st.rho + 1.0, st.mu)
        rot = newton_correct(system_rot, rot, tol=1e-13, max_iter=20)
        z0 = unfold_state(rot, BoundaryKind.OFF_SITE)
        period = 2.0 * np.pi / abs(rot.rho)
        traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0,
                         1e-2, rot.mu, period, 1e-3)
        worst_re = max(worst_re, rigid_rotation_deviation(traj, z0, rot.rho))
    assert worst_re <= 1e-6
    results["relative_equilibrium"] = worst_re

    # RK4 observed order on the rotating single node
    prof = bistable_roots(quintic_rotating, 0.6)
    z0 = np.array([prof.r_plus + 0j, 0j])
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0,
                         0.0, 0.6, 1.0, dt)
        errs.append(abs(traj.z[-1, 0] - prof.r_plus * np.exp(1j * traj.times[-1])))
    order = float(np.log2(errs[0] / errs[1]))
    assert 3.8 <= order <= 4.2
    results["rk4_order"] = order

    # seed-to-corrected distance scales as O(eps^2): ratio in [3, 5]
    from locsync.continuation import _newton_solve
    combos = [
        ("in_phase", CouplingKind.dissipative(), BoundaryKind.OFF_SITE),
        ("in_phase", CouplingKind.dissipative(), BoundaryKind.ON_SITE),
        ("conservative", CouplingKind.conservative(), BoundaryKind.ON_SITE),
    ]
    ratios = []
    for template, coupling, bc in combos:
        dists = []
        for eps in (0.01, 0.005):
            system = LatticeSystem(quintic, coupling, eps, bc)
            ansatz = SeedAnsatz(3, ("plus",) * 3, template, bc, N_NODES)
            seed = build_seed(quintic, 0.5, eps, ansatz, coupling)
            st = _newton_solve(system, seed.x[None], None, 1e-12, 20)[0].state
            dists.append(float(np.max(np.abs(st.r - seed.r))))
        ratios.append(dists[0] / dists[1])
    assert all(3.0 <= r <= 5.0 for r in ratios)
    results["seed_ratio"] = ratios

    summary = ", ".join(
        f"{k}={v:.2e}" if isinstance(v, float) else f"{k}={np.round(v, 2)}"
        for k, v in results.items()
    )
    print(f"\nACCEPTANCE 6 property suite: PASS [{summary}]")


def test_criterion_7_conservative_recruitment(isola_stack):
    """Fig 7: the folding node near mu=1 follows the kappa rule on both halves."""
    branch = isola_stack[2]
    high_folds = [f for f in branch.folds if f.mu > 0.9]
    assert len(high_folds) == 2
    kappas = set()
    for rec in high_folds:
        r = rec.state.r
        active = int(np.sum(r > 0.5))
        kappa = 1 if float(rec.state.phi[active - 2]) > 0.0 else -1
        kappas.add(kappa)
        predicted = conservative_recruitment(kappa, active).fold_node_mu1
        folding = int(np.argmin(np.abs(r[:active] - 1.0))) + 1
        assert predicted == folding, \
            f"kappa={kappa}: predicted node {predicted}, observed {folding}"
    assert kappas == {-1, 1}  # both halves exercised
    print("\nACCEPTANCE 7 conservative recruitment order: PASS "
          "[kappa=-1 -> last node, kappa=+1 -> previous node]")
