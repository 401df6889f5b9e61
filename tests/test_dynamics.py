import numpy as np
import pytest

from locsync.asymptotics import SeedAnsatz, build_seed
from locsync.continuation import LatticeSystem, newton_correct
from locsync.dynamics import (
    chain_rhs,
    integrate,
    linearization_spectrum,
    rotation_deviation,
    unfold_state,
)
from locsync.lattice import BoundaryKind, CouplingKind, PolarState
from locsync.model import bistable_roots
from reference import (
    concatenated_chain_rhs,
    masked_rotation_deviation,
    plain_rk4_step,
    rigid_rotation_deviation,
)


def test_zero_state_stays_zero(quintic):
    z0 = np.zeros(4, dtype=complex)
    traj = integrate(quintic, CouplingKind.dissipative(), z0, 0.01, 0.5, 1.0, 1e-2)
    assert np.max(np.abs(traj.z)) == 0.0
    assert traj.completed


def test_single_rotating_node(quintic_rotating):
    prof = bistable_roots(quintic_rotating, 0.6)
    z0 = np.array([prof.r_plus + 0j, 0j])
    traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0, 0.0, 0.6,
                     2 * np.pi, 1e-3)
    assert np.max(np.abs(np.abs(traj.z[:, 0]) - prof.r_plus)) <= 1e-10
    # phase advances at unit rate
    mid = len(traj.times) // 2
    angle = np.angle(traj.z[mid, 0] / z0[0])
    assert angle == pytest.approx(
        np.mod(traj.times[mid] + np.pi, 2 * np.pi) - np.pi, abs=1e-6
    )


def test_rk4_observed_order(quintic_rotating):
    prof = bistable_roots(quintic_rotating, 0.6)
    z0 = np.array([prof.r_plus + 0j, 0j])
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0, 0.0,
                         0.6, 1.0, dt)
        exact = prof.r_plus * np.exp(1j * traj.times[-1])
        errs.append(abs(traj.z[-1, 0] - exact))
    order = np.log2(errs[0] / errs[1])
    assert 3.8 <= order <= 4.2


def test_integration_input_validation(quintic):
    with pytest.raises(ValueError):
        integrate(quintic, CouplingKind.dissipative(), np.zeros(3, complex),
                  0.01, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(quintic, CouplingKind.dissipative(), np.zeros(3, complex),
                  0.01, 0.5, 0.5, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_abort_on_blowup(quintic):
    # mu < 0 with a seed beyond the stable oscillation blows up in finite time
    z0 = np.full(3, 3.0 + 0j)
    traj = integrate(quintic, CouplingKind.dissipative(), z0, 0.0, -10.0, 50.0, 0.5)
    assert not traj.completed
    assert np.all(np.isfinite(traj.z))


def test_gauge_consistency(quintic_rotating):
    rng = np.random.default_rng(5)
    z0 = rng.normal(0, 0.5, 4) + 1j * rng.normal(0, 0.5, 4)
    alpha = 0.7
    a = integrate(quintic_rotating, CouplingKind.conservative(),
                  z0 * np.exp(1j * alpha), 0.01, 0.5, 1.0, 1e-3)
    b = integrate(quintic_rotating, CouplingKind.conservative(), z0,
                  0.01, 0.5, 1.0, 1e-3)
    assert np.max(np.abs(a.z - b.z * np.exp(1j * alpha))) <= 1e-9


def test_amplitude_conservation_at_roots(quintic_rotating):
    prof = bistable_roots(quintic_rotating, 0.4)
    z0 = np.array([prof.r_plus, prof.r_minus, 0.0], dtype=complex)
    traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0, 0.0, 0.4,
                     5.0, 1e-3)
    assert np.max(np.abs(np.abs(traj.z) - np.abs(z0))) <= 1e-9


def test_unfold_shapes_and_symmetry(quintic):
    st = PolarState([1.0, 0.5, 0.1], [0.2, -0.1], 0.3, 0.5)
    off = unfold_state(st, BoundaryKind.OFF_SITE)
    on = unfold_state(st, BoundaryKind.ON_SITE)
    assert off.shape == (6,) and on.shape == (5,)
    assert np.allclose(off, off[::-1])
    assert np.allclose(on, on[::-1])


def test_relative_equilibrium_of_branch_state(quintic, quintic_rotating):
    # a converged dissipative state is a rigid rotation after shifting rho
    # by the rotating spec's omega0 = 1
    eps = 0.01
    system = LatticeSystem(quintic, CouplingKind.dissipative(), eps,
                           BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 8)
    st = newton_correct(system, build_seed(quintic, 0.5, eps, ansatz,
                                           CouplingKind.dissipative()))
    st_rot = PolarState(st.r, st.phi, st.rho + 1.0, st.mu)
    z0 = unfold_state(st_rot, BoundaryKind.OFF_SITE)
    period = 2 * np.pi / abs(st_rot.rho)
    traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0, eps, 0.5,
                     period, 1e-3)
    dev = rigid_rotation_deviation(traj, z0, st_rot.rho)
    assert dev <= 1e-6


def test_relative_equilibrium_sensitivity(quintic, quintic_rotating):
    eps = 0.01
    system = LatticeSystem(quintic, CouplingKind.dissipative(), eps,
                           BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 8)
    st = newton_correct(system, build_seed(quintic, 0.5, eps, ansatz,
                                           CouplingKind.dissipative()))
    z0 = unfold_state(PolarState(st.r, st.phi, st.rho + 1.0, st.mu),
                      BoundaryKind.OFF_SITE)
    z0[2] += 1e-3
    traj = integrate(quintic_rotating, CouplingKind.dissipative(), z0, eps, 0.5,
                     2 * np.pi, 1e-3)
    assert rigid_rotation_deviation(traj, z0, st.rho + 1.0) > 1e-4


@pytest.mark.parametrize("n", [2, 7])
def test_chain_rhs_batch_matches_rows(quintic_rotating, couplings, n):
    spec = quintic_rotating.with_omega1((0.0, 0.3))
    rng = np.random.default_rng(n)
    z = rng.normal(0, 0.7, (3, n)) + 1j * rng.normal(0, 0.7, (3, n))
    mu = np.array([0.2, 0.5, 0.8])
    for c in couplings:
        batch = chain_rhs(spec, c, z, mu[:, None], 0.05)
        rows = [chain_rhs(spec, c, z[b], mu[b], 0.05) for b in range(3)]
        assert np.array_equal(batch, np.array(rows))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rotation_deviation_bitwise_equal_to_integrate(quintic, quintic_rotating):
    # an O(eps) frequency part gives every mu its own rho
    spec = quintic_rotating.with_omega1((0.0, 0.3))
    c, eps, dt = CouplingKind.dissipative(), 0.01, 1e-2
    system = LatticeSystem(spec, c, eps, BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(3, ("plus",) * 3, "in_phase", BoundaryKind.OFF_SITE, 8)
    states = [newton_correct(system, build_seed(spec, mu, eps, ansatz, c))
              for mu in (0.5, 0.55, 0.6)]
    assert len({st.rho for st in states}) == 3
    z0 = [unfold_state(st, BoundaryKind.OFF_SITE) for st in states]
    horizons = (2 * np.pi, 3.0, 10.0)
    dev, completed = rotation_deviation(
        spec, c, z0, eps, [st.mu for st in states], [st.rho for st in states],
        [int(round(h / dt)) for h in horizons], dt)
    assert completed.tolist() == [True, True, True]
    for b, (st, h) in enumerate(zip(states, horizons)):
        traj = integrate(spec, c, z0[b], eps, st.mu, h, dt)
        assert dev[b] == rigid_rotation_deviation(traj, z0[b], st.rho)
        assert 0.0 < dev[b] <= 1e-6

    # the test_abort_on_blowup start next to a finite row: the first stops
    # where integrate aborts, the second runs its full horizon
    rng = np.random.default_rng(3)
    z0 = [np.full(3, 3.0 + 0j), rng.normal(0, 0.3, 3) + 0j]
    mu, rho = [-10.0, 0.5], [0.0, 0.2]
    dev, completed = rotation_deviation(quintic, c, z0, 0.0, mu, rho, [100, 100], 0.5)
    assert completed.tolist() == [False, True]
    for b in range(2):
        traj = integrate(quintic, c, z0[b], 0.0, mu[b], 50.0, 0.5)
        assert traj.completed == completed[b]
        assert dev[b] == rigid_rotation_deviation(traj, z0[b], rho[b])


def _oracle_cases(spec):
    """(z0, mu, rho, n_steps, dt) batches for the bitwise comparisons."""
    # amplitudes up to r_+ and a step well inside RK4's stability region
    prof = bistable_roots(spec, 0.5)
    dt = 0.05 / abs(prof.r_plus * prof.lambda_r_plus)
    rng = np.random.default_rng(7)
    z0 = prof.r_plus * rng.uniform(0.0, 1.0, (4, 6)) \
        * np.exp(1j * rng.uniform(-0.3, 0.3, (4, 6)))
    mu, rho = [0.3, 0.5, 0.6, 0.7], [0.0, 0.3, -0.2, 1.0]
    # a start at |z| = 1e100 is non-finite after one step, one at |z| = 3
    # with mu = -10 after a few large ones; the zero state next to them
    # stays exactly zero, and the last row blows up or not by model
    blow = np.zeros((4, 6), dtype=complex)
    blow[0], blow[1], blow[3] = 1e100, 3.0, z0[0]
    blow_mu, blow_rho = [-10.0, -10.0, 0.5, 0.5], [0.0, 0.0, 0.0, 0.4]
    return [
        (z0[:1], mu[:1], rho[1:2], [60], dt),
        (z0, mu, rho, [60] * 4, dt),
        (z0, mu, rho, [60, 25, 0, 41], dt),
        (z0, mu, rho, [0] * 4, dt),
        (blow, blow_mu, blow_rho, [12] * 4, 0.5),
        (blow, blow_mu, blow_rho, [3, 5, 12, 0], 0.5),
    ]


COUPLINGS = {
    "dissipative": CouplingKind.dissipative(),
    "conservative": CouplingKind.conservative(),
    "angle-0.7": CouplingKind(np.cos(0.7), np.sin(0.7)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["quintic", "quintic_rotating+omega1", "hbm"])
@pytest.mark.parametrize("coupling", sorted(COUPLINGS))
def test_rk4_bitwise_equal_to_reference(request, model, coupling):
    name, _, omega1 = model.partition("+")
    spec = request.getfixturevalue(name)
    if omega1:
        spec = spec.with_omega1((0.1, 0.3))
    c, eps = COUPLINGS[coupling], 0.05
    for z0, mu, rho, n_steps, dt in _oracle_cases(spec):
        mu_col = np.asarray(mu)[:, None]
        assert chain_rhs(spec, c, z0, mu_col, eps).tobytes() == \
            concatenated_chain_rhs(spec, c, z0, mu_col, eps).tobytes()
        assert chain_rhs(spec, c, z0[0], mu[0], eps).tobytes() == \
            concatenated_chain_rhs(spec, c, z0[0], mu[0], eps).tobytes()
        dev, completed = rotation_deviation(spec, c, z0, eps, mu, rho, n_steps, dt)
        if completed.all() and any(n_steps):
            assert dev.any()
        ref_dev, ref_completed = masked_rotation_deviation(
            spec, c, z0, eps, mu, rho, n_steps, dt)
        assert dev.tobytes() == ref_dev.tobytes()
        assert completed.tolist() == ref_completed.tolist()
        if dt == 0.5 and n_steps[0] == 12:
            assert completed[:3].tolist() == [False, False, True]

    # integrate takes the same step as the plain one, one row at a time
    z0, mu, _, _, dt = _oracle_cases(spec)[1]
    traj = integrate(spec, c, z0[1], eps, mu[1], 30 * dt, dt)
    z = z0[1]
    for sample in traj.z[1:]:
        z = plain_rk4_step(spec, c, z, mu[1], eps, dt)
        assert sample.tobytes() == z.tobytes()
    assert traj.completed and len(traj.times) == 31


def test_spectrum_uncoupled_nodes(quintic):
    prof = bistable_roots(quintic, 0.5)
    st_plus = PolarState([prof.r_plus, 0.0], [0.0], 0.0, 0.5)
    eigs = linearization_spectrum(quintic, CouplingKind.dissipative(), st_plus,
                                  0.0, BoundaryKind.OFF_SITE)
    expected = prof.r_plus * prof.lambda_r_plus
    assert np.min(np.abs(eigs - expected)) <= 1e-8
    assert expected < 0.0
    st_minus = PolarState([prof.r_minus, 0.0], [0.0], 0.0, 0.5)
    eigs_m = linearization_spectrum(quintic, CouplingKind.dissipative(), st_minus,
                                    0.0, BoundaryKind.OFF_SITE)
    unstable = prof.r_minus * prof.lambda_r_minus
    assert np.min(np.abs(eigs_m - unstable)) <= 1e-8
    assert unstable > 0.0


def test_spectrum_gauge_mode(quintic):
    eps = 0.01
    system = LatticeSystem(quintic, CouplingKind.dissipative(), eps,
                           BoundaryKind.OFF_SITE)
    ansatz = SeedAnsatz(2, ("plus",) * 2, "in_phase", BoundaryKind.OFF_SITE, 6)
    st = newton_correct(system, build_seed(quintic, 0.5, eps, ansatz,
                                           CouplingKind.dissipative()))
    eigs = linearization_spectrum(quintic, CouplingKind.dissipative(), st, eps,
                                  BoundaryKind.OFF_SITE)
    assert np.sum(np.abs(eigs) < 1e-8) == 1
