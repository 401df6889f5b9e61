import itertools

import numpy as np
import pytest

from conftest import quintic_roots
from locsync.dynamics import chain_rhs
from locsync.lattice import (
    BoundaryKind,
    CouplingKind,
    LatticeError,
    PolarState,
    canonicalize,
    jacobian,
    point_terms,
    polar_to_complex,
    residual,
    wrap_phase,
)
from locsync.model import bistable_roots
from reference import (
    array_omega_r,
    empty_point_terms,
    loop_lam_r,
    mirrored_chain,
    where_wrap_phase,
)


def rand_state(rng, n, positive=False):
    r = rng.uniform(0.05, 1.5, n) if positive else rng.normal(0.0, 1.0, n)
    return PolarState(r, rng.normal(0.0, 2.0, n - 1), rng.normal(), rng.uniform(0.1, 0.9))


def rich_spec(quintic_rotating):
    return quintic_rotating.with_omega1((0.0, 0.3, 0.1))


def test_coupling_unit_modulus():
    CouplingKind(np.cos(0.3), np.sin(0.3))
    with pytest.raises(LatticeError):
        CouplingKind(1.0, 0.5)


def test_state_validation():
    with pytest.raises(LatticeError):
        PolarState([1.0, 2.0], [0.1, 0.2], 0.0, 0.5)
    with pytest.raises(LatticeError):
        PolarState([1.0, np.inf], [0.1], 0.0, 0.5)


def test_pack_unpack_roundtrip():
    st = PolarState([0.3, 0.7, 1.1], [0.2, -0.4], 1.5, 0.6)
    back = PolarState.from_packed(st.x.copy())
    assert np.array_equal(back.r, st.r)
    assert np.array_equal(back.phi, st.phi)
    assert back.rho == st.rho and back.mu == st.mu


def test_polar_state_is_its_packed_vector():
    st = PolarState([0.3, 0.7, 1.1], [0.2, -0.4], 1.5, 0.6)
    assert st.x.tobytes() == np.array([0.3, 0.7, 1.1, 0.2, -0.4, 1.5, 0.6]).tobytes()
    st.r[1], st.phi[0] = 0.9, -0.1  # writes through the views land in x
    assert st.x.tolist() == [0.3, 0.9, 1.1, -0.1, -0.4, 1.5, 0.6]
    x = st.x.copy()
    shared = PolarState.from_packed(x)
    shared.phi[1] = 2.0
    assert shared.x is x and x[4] == 2.0 and (shared.rho, shared.mu) == (1.5, 0.6)
    for i, bad in itertools.product((0, 3, 5, 6), (np.nan, np.inf, -np.inf)):
        y = x.copy()
        y[i] = bad
        with pytest.raises(LatticeError, match="non-finite"):
            PolarState(y[:3], y[3:5], y[5], y[6])
        with pytest.raises(LatticeError, match="non-finite"):
            PolarState.from_packed(y)


def test_point_terms_ghosts_off_site(quintic):
    st = PolarState([0.4, 0.9], [0.3], 0.0, 0.5)
    r_ext, e, _ = point_terms(quintic, st, 0.01, BoundaryKind.OFF_SITE)
    assert (r_ext[0], r_ext[-1]) == (0.4, 0.9)  # (r1, r_N)
    # phi0 = phi_N = +0.0: exp(i phi) is exactly 1 + 0j, with a positive zero
    assert e[0].tobytes() == e[-1].tobytes() == np.complex128(1.0).tobytes()


def test_point_terms_ghosts_on_site(quintic):
    st = PolarState([0.4, 0.9, 0.2], [0.3, -0.5], 0.0, 0.5)
    r_ext, e, _ = point_terms(quintic, st, 0.01, BoundaryKind.ON_SITE)
    assert (r_ext[0], r_ext[-1]) == (0.9, 0.2)  # (r2, r_N)
    assert e[0] == pytest.approx(np.exp(-0.3j), abs=1e-16)  # phi0 = -phi1
    assert e[-1].tobytes() == np.complex128(1.0).tobytes()
    zero = PolarState([0.4, 0.9], [0.0], 0.0, 0.5)
    assert point_terms(quintic, zero, 0.01, BoundaryKind.ON_SITE)[1][0] == 1.0


def test_chain_of_one_node_is_rejected(quintic, couplings, boundaries):
    st = PolarState([0.4], [], 0.0, 0.5)
    for bc in boundaries:
        with pytest.raises(LatticeError, match="at least 2 nodes"):
            point_terms(quintic, st, 0.01, bc)
        for c in couplings:
            with pytest.raises(LatticeError):
                residual(quintic, c, st, 0.01, bc)
            with pytest.raises(LatticeError):
                jacobian(quintic, c, st, 0.01, bc)


def test_residual_vanishes_at_uncoupled_roots(quintic_rotating):
    prof = bistable_roots(quintic_rotating, 0.6)
    st = PolarState(
        [prof.r_plus, 0.0, prof.r_minus, prof.r_plus],
        np.zeros(3),
        quintic_rotating.omega0,
        0.6,
    )
    for bc in BoundaryKind:
        res = residual(quintic_rotating, CouplingKind.dissipative(), st, 0.0, bc)
        assert np.max(np.abs(res)) <= 1e-10


def test_residual_coupling_entry_hand_expansion(quintic):
    # eps (0 - 2 r+ + r+) = -eps r+ at node 1 for (r+, 0, 0, 0), off-site
    prof = bistable_roots(quintic, 0.75)
    st = PolarState([prof.r_plus, 0.0, 0.0, 0.0], np.zeros(3), 0.0, 0.75)
    res = residual(quintic, CouplingKind.dissipative(), st, 0.01, BoundaryKind.OFF_SITE)
    _, rp = quintic_roots(0.75)
    assert res[0] == pytest.approx(-0.01 * rp, abs=1e-9)
    assert res[0] == pytest.approx(-0.012247448713916, abs=1e-9)


def test_general_coupling_reduces_to_dissipative_form(quintic_rotating):
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = rand_state(rng, int(rng.integers(2, 8)))
        eps = rng.uniform(0.0, 0.05)
        for bc in BoundaryKind:
            got = residual(spec, CouplingKind.dissipative(), st, eps, bc)
            # hand-rolled dissipative polar equations
            if bc is BoundaryKind.ON_SITE:
                r0, phi0 = st.r[1], -st.phi[0]
            else:
                r0, phi0 = st.r[0], 0.0
            r_ext = np.concatenate([[r0], st.r, [st.r[-1]]])
            phi_ext = np.concatenate([[phi0], st.phi, [0.0]])
            lam = np.asarray(spec.lam(st.r, st.mu))
            om = np.asarray(spec.omega(st.r, st.mu, eps))
            exp = np.empty(2 * st.n)
            for i in range(st.n):
                n = i + 1
                exp[2 * i] = lam[i] * st.r[i] + eps * (
                    r_ext[n + 1] * np.cos(phi_ext[n]) - 2 * st.r[i]
                    + r_ext[n - 1] * np.cos(phi_ext[n - 1])
                )
                exp[2 * i + 1] = (om[i] - st.rho) * st.r[i] + eps * (
                    r_ext[n + 1] * np.sin(phi_ext[n])
                    - r_ext[n - 1] * np.sin(phi_ext[n - 1])
                )
            assert np.max(np.abs(got - exp)) == 0.0


def test_general_coupling_reduces_to_conservative_form(quintic_rotating):
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = rand_state(rng, int(rng.integers(2, 8)))
        eps = rng.uniform(0.0, 0.05)
        got = residual(spec, CouplingKind.conservative(), st, eps, BoundaryKind.OFF_SITE)
        r_ext = np.concatenate([[st.r[0]], st.r, [st.r[-1]]])
        phi_ext = np.concatenate([[0.0], st.phi, [0.0]])
        lam = np.asarray(spec.lam(st.r, st.mu))
        om = np.asarray(spec.omega(st.r, st.mu, eps))
        exp = np.empty(2 * st.n)
        for i in range(st.n):
            n = i + 1
            # amplitude rows of the conservative polar system
            exp[2 * i] = lam[i] * st.r[i] + eps * (
                r_ext[n - 1] * np.sin(phi_ext[n - 1])
                - r_ext[n + 1] * np.sin(phi_ext[n])
            )
            exp[2 * i + 1] = (om[i] - st.rho) * st.r[i] + eps * (
                r_ext[n + 1] * np.cos(phi_ext[n]) - 2 * st.r[i]
                + r_ext[n - 1] * np.cos(phi_ext[n - 1])
            )
        assert np.max(np.abs(got - exp)) <= 1e-15


# The complex form of the polar system is chain_rhs on the unfolded chain,
# read on its last n nodes, minus i rho z.

def test_complex_residual_zero_state(quintic):
    z = np.zeros(5, dtype=complex)
    full = np.concatenate([z[::-1], z])  # the off-site unfolding
    res = chain_rhs(quintic, CouplingKind.conservative(), full, 0.5, 0.01)[-5:] - 0.3j * z
    assert np.max(np.abs(res)) == 0.0


def test_gauge_equivariance(quintic_rotating, couplings):
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(9)
    z = rng.normal(0, 1, 6) + 1j * rng.normal(0, 1, 6)
    full = np.concatenate([z[::-1], z])  # the off-site unfolding

    def field(c, w):  # rho = 0.3, mu = 0.5, eps = 0.01
        return chain_rhs(spec, c, w, 0.5, 0.01)[-6:] - 0.3j * w[-6:]

    for c in couplings:
        for alpha in (0.7, -1.9, np.pi / 3):
            rotated = field(c, full * np.exp(1j * alpha))
            plain = field(c, full) * np.exp(1j * alpha)
            assert np.max(np.abs(rotated - plain)) <= 1e-12


def test_polar_complex_equivalence(quintic_rotating, couplings, boundaries):
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        st = rand_state(rng, int(rng.integers(2, 9)), positive=True)
        eps = rng.uniform(0.0, 0.05)
        for c in couplings:
            for bc in boundaries:
                pol = residual(spec, c, st, eps, bc)
                z = polar_to_complex(st)
                cres = chain_rhs(spec, c, mirrored_chain(z, bc), st.mu, eps)[-st.n:] \
                    - 1j * st.rho * z
                theta = np.concatenate([[0.0], np.cumsum(st.phi)])
                back = cres * np.exp(-1j * theta)
                mixed = np.empty(2 * st.n)
                mixed[0::2] = back.real
                mixed[1::2] = back.imag
                worst = max(worst, float(np.max(np.abs(mixed - pol))))
    assert worst <= 1e-12


def fd_jacobian(spec, c, state, eps, bc):
    x0 = state.x
    n = state.n
    out = np.zeros((2 * n, 2 * n + 1))
    for j in range(2 * n + 1):
        h = 1e-6 * (1.0 + abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        fp = residual(spec, c, PolarState.from_packed(xp), eps, bc)
        fm = residual(spec, c, PolarState.from_packed(xm), eps, bc)
        out[:, j] = (fp - fm) / (2.0 * h)
    return out


def _col_r(idx, n, on_site):  # extended lattice index -> amplitude column
    if idx == 0:
        return 1 if on_site else 0
    return n - 1 if idx == n + 1 else idx - 1


def _col_phi(idx, n, on_site):  # interface index -> (phase column, chain factor)
    if idx == 0:
        return (n, -1.0) if on_site else (None, 0.0)
    return (None, 0.0) if idx == n else (n + idx - 1, 1.0)


def loop_jacobian(spec, c, state, eps, bc):
    """Per-node reference assembly of the analytic Jacobian, in complex form.

    Adds each node's complex entries of dR_n in the order diagonal, right r,
    right phi, left r, left phi: the real part to the node's amplitude row,
    the imaginary part to its phase row.  Each value is computed on
    one-element slices, so every product runs through the same NumPy loop
    as in ``jacobian`` (which may fuse a complex multiply-add, where Python
    complex scalars would not); ``jacobian`` must reproduce it bit for bit.
    """
    n, r, mu, rho = state.n, state.r, state.mu, state.rho
    on_site = bc is BoundaryKind.ON_SITE
    r0, phi0 = (r[1], -state.phi[0]) if on_site else (r[0], 0.0)
    r_ext = np.concatenate([[r0], r, [r[-1]]])
    phi_ext = np.concatenate([[phi0], state.phi, [0.0]])
    ec = eps * complex(c.c_re, c.c_im)
    J = np.zeros((2 * n, 2 * n + 1))

    def add(i, col, value):
        J[2 * i, col] += value.real[0]
        J[2 * i + 1, col] += value.imag[0]

    for i in range(n):
        node, ri = i + 1, r[i:i + 1]
        f = spec.lam(ri, mu) + 1j * (spec.omega(ri, mu, eps) - rho)
        add(i, i, f + ri * (loop_lam_r(spec, ri, mu) + 1j * array_omega_r(spec, ri, mu, eps))
            - 2.0 * ec)
        J[2 * i + 1, 2 * n - 1] = -r[i]
        J[2 * i, 2 * n] = spec.mu_coefficient * r[i]
        right = ec * np.exp(1j * phi_ext[node:node + 1])
        add(i, _col_r(node + 1, n, on_site), right)
        jphi, _ = _col_phi(node, n, on_site)
        if jphi is not None:
            add(i, jphi, 1j * r_ext[node + 1:node + 2] * right)
        left = ec * np.exp(1j * phi_ext[node - 1:node]).conj()
        add(i, _col_r(node - 1, n, on_site), left)
        jphi, fac = _col_phi(node - 1, n, on_site)
        if jphi is not None:
            left_phi = -1j * r_ext[node - 1:node]
            if fac < 0.0:
                left_phi = -left_phi
            add(i, jphi, left_phi * left)
    return J


def real_loop_jacobian(spec, c, state, eps, bc):
    """The analytic Jacobian assembled per node in real arithmetic: cos and
    sin of each phase times c_re and c_im, as the ten real bands of the
    (amplitude, phase) row pair.  A second oracle, independent of complex
    multiplication; it agrees with ``jacobian`` to a few ulps per row."""
    n, r, mu, rho = state.n, state.r, state.mu, state.rho
    on_site = bc is BoundaryKind.ON_SITE
    r0, phi0 = (r[1], -state.phi[0]) if on_site else (r[0], 0.0)
    r_ext = np.concatenate([[r0], r, [r[-1]]])
    phi_ext = np.concatenate([[phi0], state.phi, [0.0]])
    cosp, sinp = np.cos(phi_ext), np.sin(phi_ext)
    cre, cim = c.c_re, c.c_im
    lam, lam_r = spec.lam(r, mu), spec.lam_r(r, mu)
    om, om_r = spec.omega(r, mu, eps), spec.omega_r(r, mu, eps)

    J = np.zeros((2 * n, 2 * n + 1))
    for i in range(n):
        node, ra, pa = i + 1, 2 * i, 2 * i + 1
        J[ra, i] += lam[i] + r[i] * lam_r[i] - 2.0 * eps * cre
        J[pa, i] += (om[i] - rho) + r[i] * om_r[i] - 2.0 * eps * cim
        J[pa, 2 * n - 1] = -r[i]
        J[ra, 2 * n] = spec.mu_coefficient * r[i]
        cn, sn = cosp[node], sinp[node]
        jr = _col_r(node + 1, n, on_site)
        J[ra, jr] += eps * (cre * cn - cim * sn)
        J[pa, jr] += eps * (cre * sn + cim * cn)
        jphi, fac = _col_phi(node, n, on_site)
        if jphi is not None:
            rr = r_ext[node + 1]
            J[ra, jphi] += fac * eps * rr * (-cre * sn - cim * cn)
            J[pa, jphi] += fac * eps * rr * (cre * cn - cim * sn)
        cm, sm = cosp[node - 1], sinp[node - 1]
        jl = _col_r(node - 1, n, on_site)
        J[ra, jl] += eps * (cre * cm + cim * sm)
        J[pa, jl] += eps * (-cre * sm + cim * cm)
        jphi, fac = _col_phi(node - 1, n, on_site)
        if jphi is not None:
            rl = r_ext[node - 1]
            J[ra, jphi] += fac * eps * rl * (-cre * sm + cim * cm)
            J[pa, jphi] += fac * eps * rl * (-cre * cm - cim * sm)
    return J


MIXED = CouplingKind(np.cos(0.7), np.sin(0.7))  # c = e^{0.7i}: both parts nonzero


def _jacobian_cases(rng):
    cases = []
    for n in (2, 3, 5, 10, 32) * 4:
        st = rand_state(rng, n)
        if n == 5:
            st.phi[:] = 0.0  # exact zeros exercise signed-zero sums
        cases.append((st, rng.uniform(0.0, 0.05)))
    # exact-zero amplitudes, as in the far-field tail of an eps = 0 seed, at
    # both boundary nodes and inside the chain: the rho and mu columns must
    # keep the loop's -0.0 there
    zero = rand_state(rng, 10)
    zero.r[[0, 1, 4, 8, 9]] = 0.0
    # phases at and just inside +-pi, beyond it, and -0.0
    edge = rand_state(rng, 7)
    edge.phi[:] = [np.pi, -np.pi, 3.0 * np.pi, -0.0, np.nextafter(np.pi, 0.0),
                   np.nextafter(-np.pi, 0.0)]
    # the eps = 0 seed's far field: exact zeros in both amplitudes and phases
    tail = rand_state(rng, 8, positive=True)
    tail.r[3:], tail.phi[2:] = 0.0, 0.0
    return cases + [(zero, 0.02), (zero, 0.0), (edge, 0.01), (tail, 0.0)]


def test_jacobian_bitwise_equal_to_loop_reference(quintic_rotating, couplings, boundaries):
    rng = np.random.default_rng(15)
    for st, eps in _jacobian_cases(rng):
        border = rng.normal(size=2 * st.n + 1)
        border[::3] = -0.0  # signed zeros in the border row as well
        # with and without an omega1 part: omega_r is an array or the scalar 0.0
        specs = (quintic_rotating, rich_spec(quintic_rotating))
        for c, bc, spec in itertools.product(couplings + (MIXED,), boundaries, specs):
            want = loop_jacobian(spec, c, st, eps, bc)
            assert jacobian(spec, c, st, eps, bc).tobytes() == want.tobytes()
            # the Newton loop's path: terms built once, shared by the
            # residual and the bordered assembly
            terms = point_terms(spec, st, eps, bc)
            assert residual(spec, c, st, eps, bc, terms).tobytes() \
                == residual(spec, c, st, eps, bc).tobytes()
            got = jacobian(spec, c, st, eps, bc, terms, border=border)
            assert got.tobytes() == np.vstack([want, border]).tobytes()
            assert jacobian(spec, c, st, eps, bc, terms).tobytes() == want.tobytes()


def test_point_terms_bitwise_equal_to_reference(quintic, quintic_rotating, hbm,
                                                couplings, boundaries):
    # point_terms keeps the bits of its reference form, the ghosts written
    # into np.empty arrays, and so does the residual built on them
    rng = np.random.default_rng(16)
    for st, eps in _jacobian_cases(rng):
        for spec, bc in itertools.product((quintic, hbm, rich_spec(quintic_rotating)),
                                          boundaries):
            want = empty_point_terms(spec, st, eps, bc)
            got = point_terms(spec, st, eps, bc)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
            for c in couplings + (MIXED,):
                assert residual(spec, c, st, eps, bc).tobytes() \
                    == residual(spec, c, st, eps, bc, want).tobytes()


def test_jacobian_within_ulps_of_real_form_loop(quintic_rotating, couplings, boundaries):
    # complex products round differently from the real form's c_re cos -
    # c_im sin, so the bound is 4 ulps of each row's largest entry
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(15)
    for st, eps in _jacobian_cases(rng):
        for c in couplings + (MIXED,):
            for bc in boundaries:
                got = jacobian(spec, c, st, eps, bc)
                want = real_loop_jacobian(spec, c, st, eps, bc)
                bound = 4.0 * np.finfo(float).eps * np.abs(want).max(axis=1)
                assert np.all(np.abs(got - want).max(axis=1) <= bound)


def test_jacobian_vs_finite_differences(quintic_rotating, couplings, boundaries):
    spec = rich_spec(quintic_rotating)
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, *rng.integers(2, 9, 25)):
        st = rand_state(rng, int(n))
        eps = rng.uniform(0.0, 0.05)
        for c in couplings + (MIXED,):
            for bc in boundaries:
                diff = jacobian(spec, c, st, eps, bc) - fd_jacobian(spec, c, st, eps, bc)
                worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-6


def test_jacobian_rho_column_exact(quintic_rotating, couplings, boundaries):
    rng = np.random.default_rng(12)
    st = rand_state(rng, 6)
    for c in couplings:
        for bc in boundaries:
            jac = jacobian(quintic_rotating, c, st, 0.02, bc)
            n = st.n
            assert np.array_equal(jac[1::2, 2 * n - 1], -st.r)
            assert np.all(jac[0::2, 2 * n - 1] == 0.0)


def test_jacobian_uncoupled_amplitude_diagonal(quintic):
    rng = np.random.default_rng(13)
    st = rand_state(rng, 5)
    jac = jacobian(quintic, CouplingKind.dissipative(), st, 0.0, BoundaryKind.OFF_SITE)
    for i in range(st.n):
        expected = quintic.lam(st.r[i], st.mu) + st.r[i] * quintic.lam_r(st.r[i], st.mu)
        assert jac[2 * i, i] == pytest.approx(float(expected), rel=1e-12)


def test_wrap_phase_in_place_bitwise_equal_to_reference():
    rng = np.random.default_rng(17)
    phi = np.concatenate([
        [0.0, -0.0, np.pi, -np.pi, 3.0 * np.pi, -3.0 * np.pi, np.nextafter(np.pi, 4.0),
         np.nextafter(-np.pi, -4.0), 1e-300, 2.0 * np.pi],
        rng.normal(0.0, 10.0, 200)])
    want = where_wrap_phase(phi)
    x = phi.copy()
    assert wrap_phase(x) is x and x.tobytes() == want.tobytes()
    # a strided slice of the packed vector is wrapped where it lies
    packed = np.repeat(phi, 2)
    wrap_phase(packed[::2])
    assert packed[::2].tobytes() == want.tobytes()
    assert packed[1::2].tobytes() == phi.tobytes()
    assert wrap_phase(-np.pi) == np.pi  # a scalar comes back as a new array


def test_wrap_phase_range():
    phi = np.array([0.0, np.pi, -np.pi, 3.5 * np.pi, -2.7])
    w = wrap_phase(phi)
    assert np.all((w > -np.pi) & (w <= np.pi))
    assert w[1] == np.pi
    assert w[2] == np.pi  # -pi wraps to the +pi representative


def test_canonicalize_sign_flip(quintic_rotating):
    # row-sign equivalence is exact when the whole nonlinearity is even in r
    rng = np.random.default_rng(14)
    spec = quintic_rotating.with_omega1((0.0, 0.0, 0.4))
    for bc in BoundaryKind:
        st = rand_state(rng, 7)
        can = canonicalize(st)
        assert np.all(can.r >= 0.0)
        assert np.all((can.phi > -np.pi) & (can.phi <= np.pi))
        raw = residual(spec, CouplingKind.dissipative(), st, 0.02, bc)
        new = residual(spec, CouplingKind.dissipative(), can, 0.02, bc)
        signs = np.repeat(np.where(st.r < 0.0, -1.0, 1.0), 2)
        assert np.max(np.abs(new - signs * raw)) <= 1e-12
        assert np.max(np.abs(np.abs(new) - np.abs(raw))) <= 1e-12
