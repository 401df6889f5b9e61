import numpy as np
import pytest

from conftest import quintic_roots
from locsync.asymptotics import (
    AsymptoticsError,
    SeedAnsatz,
    _core_roots,
    build_seed,
    conservative_recruitment,
    core_correction,
    farfield_tail,
    fold_prediction_mu0,
    mismatch_bound,
    mu0_normalization,
)
from locsync.continuation import LatticeSystem, _newton_solve
from locsync.lattice import BoundaryKind, CouplingKind
from locsync.model import bistable_roots
from reference import isola_curve, snaking_curve, snaking_domain


def test_ansatz_validation():
    with pytest.raises(AsymptoticsError):
        SeedAnsatz(0, (), "in_phase", BoundaryKind.OFF_SITE, 5)
    with pytest.raises(AsymptoticsError):
        SeedAnsatz(5, ("plus",) * 5, "in_phase", BoundaryKind.OFF_SITE, 5)
    with pytest.raises(AsymptoticsError):
        SeedAnsatz(2, ("plus",), "in_phase", BoundaryKind.OFF_SITE, 5)
    with pytest.raises(AsymptoticsError):
        SeedAnsatz(2, ("plus", "zero"), "in_phase", BoundaryKind.OFF_SITE, 5)


def in_phase_correction(spec, mu, pattern, bc):
    """core_correction for dissipative coupling and zero phases."""
    return core_correction(spec, mu, _core_roots(spec, mu, pattern),
                           np.zeros(len(pattern)), bc, CouplingKind.dissipative())


def test_core_correction_all_plus_interior_zero(quintic):
    sigma = in_phase_correction(quintic, 0.75, ("plus",) * 4, BoundaryKind.OFF_SITE)
    assert np.max(np.abs(sigma[:-1])) == 0.0


def test_core_correction_last_node(quintic):
    # sigma_k = r+/(r+ lambda_r) = 1/lambda_r(r+) since lambda(r+) = 0
    r_plus = bistable_roots(quintic, 0.75).r_plus
    sigma = in_phase_correction(quintic, 0.75, ("plus",) * 4, BoundaryKind.OFF_SITE)
    assert sigma[-1] == pytest.approx(1.0 / quintic.lam_r(r_plus, 0.75), rel=1e-10)
    assert sigma[-1] == pytest.approx(-0.408248290463863, abs=1e-9)


def test_core_correction_mixed_pattern(quintic):
    rm, rp = quintic_roots(0.75)
    lam_r_p = 4 * rp - 4 * rp**3
    sigma = in_phase_correction(quintic, 0.75, ("plus", "minus"), BoundaryKind.OFF_SITE)
    num = 2 * rp - rm - rp  # ghost r0 = r1 = r+
    den = rp * lam_r_p      # lambda(r+) = 0
    assert num == pytest.approx(0.5176380902050415, abs=1e-9)
    assert den == pytest.approx(-3.0, abs=1e-9)
    assert sigma[0] == pytest.approx(num / den, rel=1e-9)


def test_core_correction_on_site_ghost(quintic):
    rm, rp = quintic_roots(0.6)
    sigma = in_phase_correction(quintic, 0.6, ("minus", "plus"), BoundaryKind.ON_SITE)
    lam = lambda r: -0.6 + 2 * r**2 - r**4
    lam_r = lambda r: 4 * r - 4 * r**3
    num0 = 2 * rm - rp - rp  # on-site ghost r0 = r2 = r+
    assert sigma[0] == pytest.approx(num0 / (lam(rm) + rm * lam_r(rm)), rel=1e-9)
    # a one-node core: the ghost r2 lies past the core, where r0 is 0
    sigma = in_phase_correction(quintic, 0.6, ("minus",), BoundaryKind.ON_SITE)
    assert sigma[0] == pytest.approx(2 * rm / (lam(rm) + rm * lam_r(rm)), rel=1e-9)


def test_core_correction_degenerate_guard(quintic):
    r_minus, r_plus = bistable_roots(quintic, 1.0)
    assert r_plus - r_minus < 1e-6
    with pytest.raises(AsymptoticsError, match="core linearization denominator"):
        in_phase_correction(quintic, 1.0, ("plus", "plus"), BoundaryKind.OFF_SITE)


def test_farfield_tail_values(quintic):
    _, rp = quintic_roots(0.75)
    tail = farfield_tail(quintic, 0.75, 0.01, 3, rp, 6)
    assert tail.shape == (3,)
    assert tail[0] == pytest.approx(0.01 / 0.75 * rp, rel=1e-12)
    assert tail[0] == pytest.approx(0.016329931618554, abs=1e-9)
    assert np.all(tail > 0.0)
    assert tail[1] / tail[0] == pytest.approx(0.01 / 0.75, rel=1e-12)


def test_farfield_tail_eps_zero(quintic):
    assert np.all(farfield_tail(quintic, 0.5, 0.0, 2, 1.0, 6) == 0.0)


def test_farfield_tail_ratio_refines_with_eps(quintic):
    # the tail ratio approaches eps/mu as eps shrinks (O(eps) correction),
    # measured on the Newton-corrected solution
    devs = []
    for eps in (0.01, 0.005):
        system = LatticeSystem(quintic, CouplingKind.dissipative(), eps,
                               BoundaryKind.OFF_SITE)
        ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 8)
        seed = build_seed(quintic, 0.75, eps, ansatz, CouplingKind.dissipative())
        st = _newton_solve(system, seed.x, None, 1e-12, 20).state
        devs.append(abs(st.r[4] / st.r[3] - eps / 0.75) / (eps / 0.75))
    assert devs[1] < 0.75 * devs[0]


def test_build_seed_dissipative_newton(quintic):
    eps = 0.01
    system = LatticeSystem(quintic, CouplingKind.dissipative(), eps,
                           BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 10)
    seed = build_seed(quintic, 0.5, eps, ansatz, CouplingKind.dissipative())
    out = _newton_solve(system, seed.x, None, 1e-10, 12)
    assert out.iterations <= 6
    r_plus = bistable_roots(quintic, 0.5).r_plus
    predicted_r3 = r_plus + eps / quintic.lam_r(r_plus, 0.5)
    assert abs(out.state.r[2] - predicted_r3) <= 5 * eps**2
    assert np.max(np.abs(out.state.phi)) <= 10 * eps


def test_build_seed_conservative_newton(quintic):
    eps = 0.01
    system = LatticeSystem(quintic, CouplingKind.conservative(), eps,
                           BoundaryKind.ON_SITE)
    ansatz = SeedAnsatz(2, ("plus",) * 2, "conservative", BoundaryKind.ON_SITE, 10)
    seed = build_seed(quintic, 0.5, eps, ansatz, CouplingKind.conservative())
    out = _newton_solve(system, seed.x, None, 1e-10, 12)
    assert abs(out.state.phi[0] + np.pi / 2) <= 10 * eps
    assert abs(out.state.phi[1] - np.pi / 2) <= 10 * eps


def test_build_seed_eps_zero_exact(quintic):
    ansatz = SeedAnsatz(2, ("plus", "minus"), "in_phase", BoundaryKind.OFF_SITE, 6)
    seed = build_seed(quintic, 0.6, 0.0, ansatz, CouplingKind.dissipative())
    res = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                        BoundaryKind.OFF_SITE).residual_norm(seed)
    assert res <= 1e-10


@pytest.mark.parametrize("template,coupling_name,bc", [
    ("in_phase", "dissipative", BoundaryKind.OFF_SITE),
    ("in_phase", "dissipative", BoundaryKind.ON_SITE),
    ("conservative", "conservative", BoundaryKind.ON_SITE),
])
def test_seed_quality_order_eps_squared(quintic, template, coupling_name, bc):
    # halving eps shrinks the Newton-correction distance on amplitudes ~4x
    coupling = getattr(CouplingKind, coupling_name)()
    dists = []
    for eps in (0.01, 0.005):
        system = LatticeSystem(quintic, coupling, eps, bc)
        ansatz = SeedAnsatz(3, ("plus",) * 3, template, bc, 10)
        seed = build_seed(quintic, 0.5, eps, ansatz, coupling)
        st = _newton_solve(system, seed.x, None, 1e-12, 20).state
        dists.append(float(np.max(np.abs(st.r - seed.r))))
    ratio = dists[0] / dists[1]
    assert 3.0 <= ratio <= 5.0


def test_snaking_curve_fold_point(quintic):
    st = snaking_curve(quintic, 10, 2 * 3 + 1.0)
    assert st.mu == 1.0
    assert np.max(np.abs(st.r[:4] - 1.0)) <= 1e-6
    assert np.all(st.r[4:] == 0.0)


def test_snaking_curve_lower_and_upper(quintic):
    lower = snaking_curve(quintic, 10, 2 * 3 + 0.5)
    assert lower.mu == 0.5
    assert lower.r[3] == pytest.approx(quintic_roots(0.5)[0], rel=1e-10)
    upper = snaking_curve(quintic, 10, 2 * 3 + 1.5)
    assert upper.r[3] == pytest.approx(quintic_roots(0.5)[1], rel=1e-10)
    assert lower.r[3] == pytest.approx(0.541196100146197, abs=1e-9)
    assert upper.r[3] == pytest.approx(1.306562964876376, abs=1e-9)


def test_snaking_curve_zero_residual(quintic):
    lo, hi = snaking_domain(8)
    for s in np.linspace(lo + 0.05, hi - 0.05, 33):
        st = snaking_curve(quintic, 8, s)
        res = LatticeSystem(quintic, CouplingKind.dissipative(), 0.0,
                            BoundaryKind.OFF_SITE).residual_norm(st)
        assert res <= 1e-10


def test_snaking_curve_domain_error(quintic):
    with pytest.raises(AsymptoticsError):
        snaking_curve(quintic, 8, -0.1)
    with pytest.raises(AsymptoticsError):
        snaking_curve(quintic, 8, 16.1)


def test_isola_curve_endpoints(quintic):
    start = isola_curve(quintic, 10, 2, 0.0, "lower")
    assert start.r[2] == 0.0 and start.mu == 0.0
    top = isola_curve(quintic, 10, 2, 1.0, "lower")
    assert top.mu == 1.0
    assert top.r[2] == pytest.approx(1.0, abs=1e-6)
    upper = isola_curve(quintic, 10, 2, 0.5, "upper")
    assert upper.r[2] == pytest.approx(1.306562964876376, abs=1e-9)
    assert upper.r[3] == pytest.approx(0.541196100146197, abs=1e-9)


def test_isola_curve_phases_and_residual(quintic):
    for s in np.linspace(0.0, 2.0, 11):
        for half in ("lower", "upper"):
            st = isola_curve(quintic, 8, 2, s, half)
            assert np.all(st.phi[:2] == -np.pi / 2)
            assert st.phi[2] == np.pi / 2
            res = LatticeSystem(quintic, CouplingKind.conservative(), 0.0,
                                BoundaryKind.ON_SITE).residual_norm(st)
            assert res <= 1e-10


def test_isola_curve_range_errors(quintic):
    with pytest.raises(AsymptoticsError):
        isola_curve(quintic, 10, 0, 0.5, "lower")
    with pytest.raises(AsymptoticsError):
        isola_curve(quintic, 10, 9, 0.5, "lower")
    with pytest.raises(AsymptoticsError):
        isola_curve(quintic, 10, 2, 2.5, "lower")
    with pytest.raises(AsymptoticsError):
        isola_curve(quintic, 10, 2, 0.5, "middle")


def test_fold_prediction_mu0():
    mu = fold_prediction_mu0(0.01)
    assert mu == pytest.approx(1.889882 * 0.01 ** (2 / 3), rel=1e-6)
    assert mu == pytest.approx(0.08772053, abs=1e-6)
    assert fold_prediction_mu0(0.0) == 0.0
    mus = [fold_prediction_mu0(e) for e in (0.0, 1e-4, 1e-3, 1e-2)]
    assert all(a < b for a, b in zip(mus[:-1], mus[1:]))


def test_mu0_normalization_quintic(quintic):
    # lambda(r,0) ~ 2 r^2 and r_+(0) = sqrt(2): factor (sqrt(2)*sqrt(2))^(2/3)
    assert mu0_normalization(quintic) == pytest.approx(2 ** (2 / 3), rel=1e-6)
    assert mu0_normalization(quintic) * fold_prediction_mu0(1.0) == \
        pytest.approx(3.0, rel=1e-6)


def test_mismatch_bound_linear_omega1(quintic):
    spec = quintic.with_omega1((0.0, 1.0))
    rep = mismatch_bound(spec, 0.75)
    rm, rp = quintic_roots(0.75)
    assert rep.delta == pytest.approx(rp - rm, rel=1e-10)
    assert rep.delta == pytest.approx(0.517638, abs=1e-6)
    assert rep.threshold == pytest.approx(np.sqrt(3.0), rel=1e-10)
    assert rep.threshold == pytest.approx(1.732051, abs=1e-6)
    assert not rep.obstructed
    assert rep.sin_phi_limit == pytest.approx((rm / rp) * (rm - rp), rel=1e-10)
    assert rep.sin_phi_limit == pytest.approx(-0.298858, abs=1e-6)
    assert rep.has_real_solution


def test_mismatch_bound_zero_and_obstructed(quintic):
    rep0 = mismatch_bound(quintic, 0.75)
    assert rep0.delta == 0.0 and not rep0.obstructed
    assert rep0.sin_phi_limit == 0.0
    spec5 = quintic.with_omega1((0.0, 5.0))
    rep5 = mismatch_bound(spec5, 0.75)
    assert rep5.delta == pytest.approx(2.588190, abs=1e-6)
    assert rep5.obstructed
    assert not rep5.has_real_solution


def test_mismatch_limit_against_brute_force_phase_system(quintic):
    # Assemble the leading-order phase system for the pattern with k nodes
    # at r+ followed by one at r-: unknowns (Omega, sin phi_1..sin phi_k),
    # linear because only sines appear.  Independent of the closed form.
    spec = quintic.with_omega1((0.0, 1.0))
    mu = 0.75
    rm, rp = quintic_roots(mu)
    w1p, w1m = rp, rm  # omega1(r) = r
    k = 200
    a = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    # columns: [Omega, s_1, ..., s_k]
    for n in range(1, k + 1):
        row = n - 1
        a[row, 0] = -1.0
        if n < k:
            a[row, n] += 1.0
        else:
            a[row, n] += rm / rp
        if n >= 2:
            a[row, n - 1] -= 1.0
        b[row] = -w1p
    a[k, 0] = -1.0
    a[k, k] = -rp / rm
    b[k] = -w1m
    sol = np.linalg.solve(a, b)
    sin_phi_k_brute = sol[k]
    rep = mismatch_bound(spec, mu)
    assert abs(sin_phi_k_brute - rep.sin_phi_limit) <= 2.0 / k


def test_conservative_recruitment(quintic):
    assert conservative_recruitment(-1, 3).fold_node_mu1 == 3
    assert conservative_recruitment(1, 3).fold_node_mu1 == 2
    assert conservative_recruitment(1, 3).recruited_node_mu0 == 3
    assert conservative_recruitment(-1, 3).recruited_node_mu0 == 4
    with pytest.raises(AsymptoticsError):
        conservative_recruitment(0, 3)
    with pytest.raises(AsymptoticsError):
        conservative_recruitment(1, 1)


def core_phase_block(r0, bc: BoundaryKind) -> np.ndarray:
    """Directly assembled core phase-equation Jacobian wrt (Omega, phi).

    Row n: Omega column r0_n, column phi_n gets +r0_{n+1}, column phi_{n-1}
    gets -r0_{n-1} (with r0_{k+1} = 0 and the on-site ghost contributing
    +r0_2 to the phi_1 column of row 1).
    """
    r0 = np.asarray(r0, dtype=float)
    k = r0.size
    a = np.zeros((k, k))
    a[:, 0] = r0
    for n in range(1, k + 1):  # lattice numbering
        if n <= k - 1:
            a[n - 1, n] += r0[n] if n < k else 0.0
        if n >= 2:
            a[n - 1, n - 1] += -r0[n - 2]
    if bc is BoundaryKind.ON_SITE and k >= 2:
        a[0, 1] += r0[1]
    return a


def test_core_phase_block_direct_k2(quintic):
    # the directly assembled block gives -(r1^2 + r2^2) for off-site k=2,
    # differing from the printed closed form by a normalization
    a, b = 0.8, 1.3
    block = core_phase_block([a, b], BoundaryKind.OFF_SITE)
    assert np.linalg.det(block) == pytest.approx(-(a**2 + b**2), rel=1e-12)


def test_core_phase_block_nonsingular(quintic):
    rng = np.random.default_rng(4)
    for k in range(2, 9):
        r0 = rng.uniform(0.3, 1.4, k)
        for bc in BoundaryKind:
            assert abs(np.linalg.det(core_phase_block(r0, bc))) > 1e-8
