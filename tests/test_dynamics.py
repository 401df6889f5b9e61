import warnings

import numpy as np
import pytest

from locsync import dynamics
from locsync.cli import MAX_N
from locsync.asymptotics import SeedAnsatz, build_seed
from locsync.continuation import LatticeSystem, newton_correct
from locsync.dynamics import (
    BLOCK_ENTRIES,
    block_steps,
    chain_rhs,
    integrate,
    linearization_spectrum,
    rotation_deviation,
    unfold_state,
)
from locsync.lattice import BoundaryKind, CouplingKind, PolarState, polar_to_complex
from locsync.model import NonlinearitySpec, bistable_roots
from reference import (
    concatenated_chain_rhs,
    masked_rotation_deviation,
    mirrored_chain,
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


@pytest.mark.parametrize("start, dt, first_bad", [
    (1e-3, 0.3, 4),  # the first step of the block of steps 4..7
    (1e-6, 0.3, 7),  # its last step
    (1e-12, 0.3, 12),  # inside the block of steps 8..15
])
def test_integrate_stops_at_the_first_non_finite_step(quintic, start, dt, first_bad):
    # mu = -10 grows a small state until it blows up; the trajectory holds
    # the plain steps before the first non-finite one, bit for bit
    c, z = CouplingKind.dissipative(), np.full(3, start + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(quintic, c, z, 0.0, -10.0, 40 * dt, dt)
            steps = [z]
            while np.isfinite(steps[-1]).all():
                steps.append(plain_rk4_step(quintic, c, steps[-1], -10.0, 0.0, dt))
    assert len(steps) - 1 == first_bad
    assert not traj.completed and len(traj.times) == first_bad
    assert traj.z.tobytes() == np.array(steps[:-1]).tobytes()
    assert traj.times.tobytes() == (dt * np.arange(first_bad)).tobytes()


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
    for bc, full in ((BoundaryKind.OFF_SITE, off), (BoundaryKind.ON_SITE, on)):
        assert full.tobytes() == mirrored_chain(polar_to_complex(st), bc).tobytes()


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


def _rest_row(spec):
    return np.full(6, bistable_roots(spec, 0.5).r_plus * np.exp(0.4j))


def _oracle_cases(spec):
    """(z0, mu, rho, n_steps, dt) batches for the bitwise comparisons."""
    # amplitudes up to r_+ and a step well inside RK4's stability region
    r_plus = bistable_roots(spec, 0.5).r_plus
    dt = 0.05 / abs(r_plus * spec.lam_r(r_plus, 0.5))
    rng = np.random.default_rng(7)
    z0 = r_plus * rng.uniform(0.0, 1.0, (4, 6)) \
        * np.exp(1j * rng.uniform(-0.3, 0.3, (4, 6)))
    mu, rho = [0.3, 0.5, 0.6, 0.7], [0.0, 0.3, -0.2, 1.0]
    # a start at |z| = 1e100 is non-finite after one step, one at |z| = 3
    # with mu = -10 after a few large ones; the zero state next to them
    # stays exactly zero, and the last row blows up or not by model
    blow = np.zeros((4, 6), dtype=complex)
    blow[0], blow[1], blow[3] = 1e100, 3.0, z0[0]
    blow_mu, blow_rho = [-10.0, -10.0, 0.5, 0.5], [0.0, 0.0, 0.0, 0.4]
    # rows that leave a batch at different steps: the uniform state on r_+
    # (no Laplacian, and lambda(r_+) too small to move it) is an exact RK4
    # fixed point while the model has no frequency, next to a drifting
    # row, a rotating row and the blow-up
    mixed = np.array([_rest_row(spec), z0[0], z0[1], blow[0]])
    return [
        (z0[:1], mu[:1], rho[1:2], [60], dt),
        (z0, mu, rho, [60] * 4, dt),
        (z0, mu, rho, [60, 25, 0, 41], dt),
        (z0, mu, rho, [0] * 4, dt),
        (blow, blow_mu, blow_rho, [12] * 4, 0.5),
        (blow, blow_mu, blow_rho, [3, 5, 12, 0], 0.5),
        (mixed, [0.5, 0.3, 0.5, -10.0], [0.0, 0.0, 0.3, 0.0], [60, 45, 30, 12], dt),
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


def _count_stages(monkeypatch):
    """Count the RK4 stages: the calls of every field ``dynamics._field`` builds."""
    calls = []
    build = dynamics._field

    def counted_field(*args):
        field = build(*args)

        def counted(z):
            calls.append(1)
            return field(z)

        return counted

    monkeypatch.setattr(dynamics, "_field", counted_field)
    return calls


def test_fixed_rows_leave_after_one_step(quintic, monkeypatch):
    # every row at rho = 0 comes back from its first step unchanged: that
    # step's four stages are the whole run, however long it was asked to be
    c, eps, dt = CouplingKind.dissipative(), 0.05, 1e-3
    z0, mu, rho = [_rest_row(quintic), np.zeros(6)], [0.5, 0.5], [0.0, -0.0]
    assert all(plain_rk4_step(quintic, c, z, 0.5, eps, dt).tobytes() == z.tobytes()
               for z in np.array(z0, dtype=complex))
    calls = _count_stages(monkeypatch)
    dev, completed = rotation_deviation(quintic, c, z0, eps, mu, rho, [10_000] * 2, dt)
    assert len(calls) == 4
    ref_dev, ref_completed = masked_rotation_deviation(
        quintic, c, z0, eps, mu, rho, [100] * 2, dt)
    assert dev.tobytes() == ref_dev.tobytes() == np.zeros(2).tobytes()
    assert completed.tolist() == ref_completed.tolist() == [True, True]


def test_fixed_state_with_rotation_runs_every_step(quintic, monkeypatch):
    # the same state compared with a rotation: its target moves every step,
    # so it cannot leave early, while the zero state at rest next to it does
    c, eps, dt, n_steps = CouplingKind.dissipative(), 0.05, 1e-3, 50
    z0, mu, rho = [_rest_row(quintic), np.zeros(6)], [0.5, 0.5], [0.3, 0.0]
    calls = _count_stages(monkeypatch)
    dev, completed = rotation_deviation(quintic, c, z0, eps, mu, rho, [n_steps] * 2, dt)
    assert len(calls) == 4 * n_steps
    ref_dev, ref_completed = masked_rotation_deviation(
        quintic, c, z0, eps, mu, rho, [n_steps] * 2, dt)
    assert dev.tobytes() == ref_dev.tobytes()
    assert completed.tolist() == ref_completed.tolist() == [True, True]
    assert dev[0] == pytest.approx(2 * abs(z0[0][0]) * np.sin(0.3 * n_steps * dt / 2))


def test_block_steps_double_from_one_up_to_the_entry_budget():
    # one row of the unfolded N=10 chain: 1, 2, 4, ..., then the budget's cap
    cap = BLOCK_ENTRIES // 20 - 1
    assert 256 < cap < 1024
    assert [block_steps(2**i, 1, 20) for i in range(12)] == \
        [1, 2, 4, 8, 16, 32, 64, 128, 256] + [min(512, cap)] + [cap] * 2
    for rows, n in [(5, 20), (7, 40), (1, 6), (2, 2 * MAX_N)]:
        for grown in (1, 2, 64, 1 << 20):
            steps = block_steps(grown, rows, n)
            assert 1 <= steps <= grown
            # the buffer holds the block's start and its steps
            assert steps == 1 or (steps + 1) * rows * n <= BLOCK_ENTRIES
    # verify's rows of the unfolded N=10 chain: at most 256 KiB of complex
    for rows in range(1, 6):
        assert (block_steps(1 << 20, rows, 20) + 1) * rows * 20 * 16 <= 256 * 1024
    assert block_steps(1 << 20, 1, 2 * MAX_N) == 1  # at least one step


def _blocked_run(monkeypatch, spec, c, z0, eps, mu, rho, n_steps, dt):
    """``rotation_deviation`` under cli's errstate with every warning an error,
    checked byte for byte against ``masked_rotation_deviation``.  Returns
    ``(deviation, completed, blocks, calls)``: the steps of each block in
    order and the number of RK4 stages."""
    blocks, kernel = [], dynamics._rk4_steps

    def spy(field, block, dt):
        blocks.append(len(block) - 1)
        assert block.nbytes <= BLOCK_ENTRIES * 16 or len(block) == 2
        return kernel(field, block, dt)

    monkeypatch.setattr(dynamics, "_rk4_steps", spy)
    calls = _count_stages(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            dev, completed = rotation_deviation(spec, c, z0, eps, mu, rho, n_steps, dt)
            ref_dev, ref_completed = masked_rotation_deviation(
                spec, c, z0, eps, mu, rho, n_steps, dt)
    assert dev.tobytes() == ref_dev.tobytes()
    assert completed.tolist() == ref_completed.tolist()
    assert sum(blocks) * 4 == len(calls)
    return dev, completed, blocks, len(calls)


def _inside_a_block(step, blocks):
    """Whether 1-based ``step`` is neither the first nor the last of its block."""
    start = np.cumsum([0] + blocks)  # each block's steps are start + 1 .. start + len
    i = np.searchsorted(start, step) - 1
    return start[i] + 1 < step < start[i + 1]


def _first_unchanged_step(spec, c, z, mu, eps, dt):
    for k in range(1, 1000):
        z, prev = plain_rk4_step(spec, c, z, mu, eps, dt), z
        if z.tobytes() == prev.tobytes():
            return k
    raise AssertionError("no unchanged step")


def test_rows_leave_across_doubled_blocks_and_the_cap(quintic, monkeypatch):
    # rows that leave at 1, 2, 3, 255, 256, 257 and 700 steps: each leaves at
    # a block boundary, so no block passes a row's last step, and the last
    # blocks of the 700-step row run at the entry budget's cap
    c, eps, dt = CouplingKind.dissipative(), 0.05, 0.01
    rng = np.random.default_rng(11)
    n_steps = [1, 2, 3, 255, 256, 257, 700]
    z0 = 0.5 * rng.uniform(0.5, 1.0, (7, 40)) * np.exp(1j * rng.uniform(-1, 1, (7, 40)))
    rho = rng.uniform(-1.0, 1.0, 7)
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, z0, eps, np.full(7, 0.5), rho, n_steps, dt)
    assert completed.all() and dev.all()
    assert calls == 4 * 700
    assert block_steps(1 << 20, 4, 40) in blocks and block_steps(1 << 20, 1, 40) in blocks
    ends = np.cumsum(blocks)
    assert set(n_steps) <= set(ends.tolist())


def test_at_rest_row_unchanged_inside_a_block(quintic, monkeypatch):
    # a tiny state decays at a large step until RK4 returns it unchanged
    # (here at exact zero); that step falls inside a doubled block, whose
    # later steps are computed and discarded
    c, eps, dt, mu = CouplingKind.dissipative(), 0.05, 3.2, 0.5
    rng = np.random.default_rng(1)
    tiny = 1e-300 * (rng.uniform(0.5, 1, 6) + 1j * rng.uniform(0.5, 1, 6))
    fixed = _first_unchanged_step(quintic, c, tiny, mu, eps, dt)
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, [tiny], eps, [mu], [0.0], [500], dt)
    assert _inside_a_block(fixed, blocks)
    assert calls == 4 * sum(blocks) and sum(blocks) < 2 * fixed  # left in its block
    assert completed.tolist() == [True] and dev[0] > 0.0
    # beside a rotating row that runs all its steps
    other = 0.3 * np.exp(1j * rng.uniform(-1, 1, 6))
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, [tiny, other], eps, [mu, mu], [0.0, 0.4], [500, 90], dt)
    assert calls == 4 * 90 and completed.all()


def test_row_turning_non_finite_inside_a_block(quintic, monkeypatch):
    # mu = -10 grows a tiny state until it blows up at step 12, inside the
    # block of steps 8..15; the rows beside it go on to their ends
    c, eps, dt = CouplingKind.dissipative(), 0.0, 0.3
    blow = np.full(6, 1e-12 + 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(quintic, c, blow, eps, -10.0, 40 * dt, dt)
    assert not traj.completed and len(traj.times) == 12  # steps 0..11 are finite
    rng = np.random.default_rng(4)
    calm = 0.3 * rng.uniform(0.5, 1.0, (2, 6)) * np.exp(1j * rng.uniform(-1, 1, (2, 6)))
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, [blow, *calm], eps, [-10.0, 0.5, 0.5],
        [0.0, 0.2, 0.0], [40, 40, 40], dt)
    assert completed.tolist() == [False, True, True]
    assert _inside_a_block(12, blocks) and calls == 4 * 40
    assert np.isfinite(dev).all()


def test_rotating_row_whose_deviation_overflows_while_z_stays_finite(monkeypatch):
    # lambda = -1e-3 at every amplitude keeps |z| ~ 1.26e308 finite, while
    # |z - exp(i rho t) z0| passes the largest double once the rotation has
    # turned a quarter: the deviation is inf and the row runs to its end
    spec = NonlinearitySpec("decay", (-1e-3,))
    assert spec.real_field
    c, eps, dt = CouplingKind.dissipative(), 0.05, 1e-3
    big = np.full(6, 8.9e307 + 8.9e307j)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(spec, c, big, eps, 0.5, 40 * dt, dt)
    assert traj.completed and np.isfinite(traj.z).all()
    rho = np.pi / (11 * dt)  # the target is -z0 at step 11, inside a block
    small = 0.3 * np.exp(1j * np.linspace(-1, 1, 6))
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, spec, c, [big, small], eps, [0.5, 0.5], [rho, 0.7], [40, 40], dt)
    assert completed.tolist() == [True, True]
    assert dev[0] == np.inf and np.isfinite(dev[1])
    assert calls == 4 * 40


@pytest.mark.parametrize("case", ["quintic", "quintic_rotating+omega1", "hbm", "on_site"])
def test_lone_row_steps_one_dimensional_bit_for_bit(request, monkeypatch, case):
    # verify's shape: five rows, four of them fixed after step 1, so the
    # drifting row steps alone, as a 1-D row, from the second block on;
    # with an omega1 part (not a real field), coefficients that are not
    # +-1, and the unfolded on-site chain of 2N - 1 nodes
    name, _, omega1 = case.partition("+")
    spec = request.getfixturevalue("quintic" if case == "on_site" else name)
    if omega1:
        spec = spec.with_omega1((0.1, 0.3))
    bc = BoundaryKind.ON_SITE if case == "on_site" else BoundaryKind.OFF_SITE
    c, eps, n = CouplingKind(np.cos(0.7), np.sin(0.7)), 0.01, 10
    rng = np.random.default_rng(5)
    r_plus = bistable_roots(spec, 0.5).r_plus
    dt = 0.05 / abs(r_plus * spec.lam_r(r_plus, 0.5))  # well inside RK4's stability region
    drifting = unfold_state(PolarState(r_plus * rng.uniform(0.2, 1.0, n),
                                       rng.uniform(-0.3, 0.3, n - 1), 0.0, 0.5), bc)
    assert drifting.size == 2 * n - bc.mirror
    z0 = [np.zeros(drifting.size)] * 4 + [drifting]
    shapes, kernel = [], dynamics._rk4_steps

    def spy(field, block, dt):
        shapes.append(block.shape[1:])
        return kernel(field, block, dt)

    monkeypatch.setattr(dynamics, "_rk4_steps", spy)
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, spec, c, z0, eps, [0.5, 0.4, 0.6, 0.5, 0.5],
        [0.0, -0.0, 0.0, 0.0, 0.4], [300] * 5, dt)
    assert completed.all() and dev.tolist()[:4] == [0.0] * 4 and dev[4] > 0.0
    assert blocks[0] == 1 and sum(blocks) == 300 and calls == 4 * 300
    assert shapes == [(5, drifting.size)] + [(drifting.size,)] * (len(blocks) - 1)


def test_all_fixed_batch_takes_one_block_of_one_step(quintic, monkeypatch):
    # rows at rho = 0 that the first step returns unchanged: one block of one
    # step, four stages, however long the run was asked to be
    c = CouplingKind.dissipative()
    z0 = [_rest_row(quintic), np.zeros(6)]
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, z0, 0.05, [0.5, 0.5], [0.0, -0.0], [700, 700], 1e-3)
    assert blocks == [1] and calls == 4
    assert completed.all() and not dev.any()


def test_one_step_blocks_at_the_largest_chain(quintic, monkeypatch):
    # the unfolded chain of N = MAX_N: one row's two states already pass the
    # entry budget, so every block holds its start and one step
    c, eps, dt, n = CouplingKind.dissipative(), 0.05, 1e-3, 2 * MAX_N
    rng = np.random.default_rng(2)
    z0 = 0.5 * rng.uniform(0.5, 1.0, (2, n)) * np.exp(1j * rng.uniform(-1, 1, (2, n)))
    dev, completed, blocks, calls = _blocked_run(
        monkeypatch, quintic, c, z0, eps, [0.5, 0.6], [0.3, 0.0], [3, 5], dt)
    assert blocks == [1] * 5 and completed.all() and dev.all()


def test_empty_batch(quintic):
    # every sample failed re-tightening: nothing to integrate
    dev, completed = rotation_deviation(quintic, CouplingKind.dissipative(), [], 0.05,
                                        [], [], [], 1e-3)
    assert dev.shape == completed.shape == (0,)
    assert dev.dtype == float and completed.dtype == bool


def test_spectrum_uncoupled_nodes(quintic):
    prof = bistable_roots(quintic, 0.5)
    st_plus = PolarState([prof.r_plus, 0.0], [0.0], 0.0, 0.5)
    eigs = linearization_spectrum(quintic, CouplingKind.dissipative(), st_plus,
                                  0.0, BoundaryKind.OFF_SITE)
    expected = prof.r_plus * quintic.lam_r(prof.r_plus, 0.5)
    assert np.min(np.abs(eigs - expected)) <= 1e-8
    assert expected < 0.0
    st_minus = PolarState([prof.r_minus, 0.0], [0.0], 0.0, 0.5)
    eigs_m = linearization_spectrum(quintic, CouplingKind.dissipative(), st_minus,
                                    0.0, BoundaryKind.OFF_SITE)
    unstable = prof.r_minus * quintic.lam_r(prof.r_minus, 0.5)
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


@pytest.mark.parametrize("bc", list(BoundaryKind))
def test_spectrum_lies_in_the_unfolded_chain_spectrum(quintic, bc):
    # the symmetric half-chain's eigenvalues are eigenvalues of the full
    # chain; a wrong left ghost moves them by O(eps)
    eps = 0.01
    for c in (CouplingKind.dissipative(), CouplingKind.conservative(),
              CouplingKind(np.cos(0.7), np.sin(0.7))):
        template = "conservative" if c.c_re == 0.0 else "in_phase"
        ansatz = SeedAnsatz(3, ("plus",) * 3, template, bc, 8)
        st = newton_correct(LatticeSystem(quintic, c, eps, bc),
                            build_seed(quintic, 0.5, eps, ansatz, c))
        z = mirrored_chain(polar_to_complex(st), bc)
        full = PolarState(np.abs(z), np.angle(z[1:] * z[:-1].conj()), st.rho, st.mu)
        half = linearization_spectrum(quintic, c, st, eps, bc)
        whole = linearization_spectrum(quintic, c, full, eps, BoundaryKind.OFF_SITE)
        assert half.size == 16 and whole.size == 2 * z.size
        assert np.abs(half[:, None] - whole).min(axis=1).max() <= 1e-12
