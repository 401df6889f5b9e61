import pickle

import numpy as np
import pytest

from conftest import quintic_roots
from locsync.model import (
    ModelError,
    NonlinearitySpec,
    bistable_roots,
    builtin_spec,
    rest_state_roots,
)
from reference import array_omega_r, loop_lam_r


def test_quintic_saddle_node_root(quintic):
    assert quintic.lam(1.0, 1.0) == 0.0


def test_quintic_evenness_sample(quintic):
    assert quintic.lam(0.3, 0.5) == quintic.lam(-0.3, 0.5)


def test_quintic_rest_root_at_mu_zero(quintic):
    # solve -0 + 2 r^2 - r^4 = 0 by the quadratic formula in r^2: r = sqrt(2)
    assert quintic.lam(np.sqrt(2.0), 0.0) == pytest.approx(0.0, abs=1e-14)


def test_hbm_printed_coefficients(hbm):
    c4 = 12.0 * np.pi**2 / 8.0
    c2 = 12.0 * np.pi**4 / 5.0
    r = 0.37
    assert hbm.lam(r, 0.2) == pytest.approx(-(c4 * r**4 - c2 * r**2 + 2 * 0.2))
    assert hbm.lam(0.0, 0.3) == pytest.approx(-0.6)
    assert float(hbm.omega(r, 0.2, 0.01)) == 0.0


def test_unknown_builtin():
    with pytest.raises(ModelError, match="unknown built-in nonlinearity 'cubic'"):
        builtin_spec("cubic")


def test_bistable_roots_quintic(quintic):
    prof = bistable_roots(quintic, 0.75)
    rm, rp = quintic_roots(0.75)
    assert prof.r_minus == pytest.approx(rm, rel=1e-12)
    assert prof.r_plus == pytest.approx(rp, rel=1e-12)
    assert tuple(prof) == (prof.r_minus, prof.r_plus)


def test_bistable_roots_fold_limit(quintic):
    prof = bistable_roots(quintic, 1.0)  # the coincident pair, not an error
    assert prof.r_plus - prof.r_minus < 1e-6
    assert prof.r_minus == pytest.approx(1.0, abs=1e-6)
    assert prof.r_plus == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mu", [0.0, -0.2, 1.0001, 2.0])
def test_bistable_roots_range_error(quintic, mu):
    with pytest.raises(ModelError, match="outside the bistability interval"):
        bistable_roots(quintic, mu)


def test_bistable_roots_monostable():
    mono = NonlinearitySpec("monostable", [0.0, 1.0], mu_coefficient=-1.0)
    with pytest.raises(ModelError, match="one positive root"):
        bistable_roots(mono, 0.5)


def test_root_residuals_small(quintic, hbm):
    for spec in (quintic, hbm):
        for mu in np.linspace(0.1, 0.9, 9):
            prof = bistable_roots(spec, mu)
            assert abs(spec.lam(prof.r_minus, mu)) <= 1e-10
            assert abs(spec.lam(prof.r_plus, mu)) <= 1e-10


def test_quintic_evenness_exact_on_grid(quintic):
    r = np.linspace(0.0, 3.0, 101)
    for mu in np.linspace(0.05, 0.95, 7):
        assert np.max(np.abs(quintic.lam(r, mu) - quintic.lam(-r, mu))) == 0.0


def test_monotone_bracketing(quintic):
    mus = np.linspace(0.1, 0.9, 17)
    rm = [bistable_roots(quintic, m).r_minus for m in mus]
    rp = [bistable_roots(quintic, m).r_plus for m in mus]
    assert all(a < b for a, b in zip(rm[:-1], rm[1:]))
    assert all(a > b for a, b in zip(rp[:-1], rp[1:]))
    for m, a, b in zip(mus, rm, rp):
        orm, orp = quintic_roots(m)
        assert a == pytest.approx(orm, rel=1e-11)
        assert b == pytest.approx(orp, rel=1e-11)


BISTABILITY_GRID = np.linspace(0.1, 0.9, 9)


@pytest.mark.parametrize("spec, found", [
    (builtin_spec("quintic"), None),
    (builtin_spec("hbm"), None),
    (NonlinearitySpec("monostable", [0.0, 1.0], mu_coefficient=-1.0), "one positive root"),
    (NonlinearitySpec("no_roots", [-1.0]), "no positive roots"),
], ids=["quintic", "hbm", "monostable", "no_roots"])
def test_bistability_hypotheses(spec, found):
    if found is not None:
        for mu in BISTABILITY_GRID:
            with pytest.raises(ModelError, match=f"not bistable at mu={mu}: {found}$"):
                bistable_roots(spec, mu)
        return
    profiles = [bistable_roots(spec, mu) for mu in BISTABILITY_GRID]
    for mu, p in zip(BISTABILITY_GRID, profiles):
        assert 0.0 < p.r_minus < p.r_plus
        assert spec.lam(0.0, mu) < 0.0
        assert spec.lam_r(p.r_plus, mu) < 0.0 < spec.lam_r(p.r_minus, mu)
    # r_- rises out of the pitchfork at mu = 0; the gap closes toward mu = 1
    r_minus = [p.r_minus for p in profiles]
    gap = [p.r_plus - p.r_minus for p in profiles]
    assert all(a < b for a, b in zip(r_minus[:-1], r_minus[1:]))
    assert all(a > b for a, b in zip(gap[:-1], gap[1:]))


def test_rest_state_roots(quintic):
    rm, rp = rest_state_roots(quintic)
    assert rm == 0.0
    assert rp == pytest.approx(np.sqrt(2.0), rel=1e-10)


def test_polynomial_lambda_matches_quintic(quintic):
    poly = NonlinearitySpec("polynomial", [0.0, 2.0, -1.0], mu_coefficient=-1.0)
    for r in (0.0, 0.4, 1.3):
        for mu in (0.1, 0.8):
            assert poly.lam(r, mu) == pytest.approx(quintic.lam(r, mu), abs=1e-14)
            assert poly.lam_r(r, mu) == pytest.approx(quintic.lam_r(r, mu), abs=1e-14)


def test_polynomial_lambda_literal_meaning():
    # the documented file-interface form: lambda = c0 + c1 r^2 + c2 r^4
    poly = NonlinearitySpec("polynomial", [0.5, -1.0, 0.25], omega0=2.0)
    r = 1.2
    assert poly.lam(r, 0.7) == pytest.approx(0.5 - r**2 + 0.25 * r**4)
    assert poly.omega0 == 2.0


def test_with_omega1(quintic):
    spec = quintic.with_omega1((0.0, 5.0))
    assert float(spec.omega(0.3, 0.5, 0.01)) == pytest.approx(0.01 * 1.5)
    assert float(spec.omega_r(0.3, 0.5, 0.01)) == pytest.approx(0.05)
    assert float(quintic.omega(0.3, 0.5, 0.01)) == 0.0
    rich = quintic.with_omega1((0.2, 0.3, -0.1, 0.05))
    r = np.linspace(0.0, 2.0, 9)
    assert np.allclose(rich.omega1(r), 0.2 + 0.3 * r - 0.1 * r**2 + 0.05 * r**3,
                       rtol=1e-15, atol=1e-15)
    assert np.allclose(rich.omega_r(r, 0.5, 0.01),
                       0.01 * (0.3 - 0.2 * r + 0.15 * r**2), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("spec", [
    builtin_spec("quintic"),
    builtin_spec("hbm"),
    NonlinearitySpec("sextic", (0.5, -1.0, 0.25, 0.125), mu_coefficient=-1.0),
    NonlinearitySpec("quadratic", (0.5, 2.0), mu_coefficient=-1.0),  # lam_r(-0.0) = -0.0
    builtin_spec("quintic_rotating").with_omega1((0.3,)),
    builtin_spec("quintic").with_omega1((0.0, 0.3, 0.1)),
    builtin_spec("quintic").with_omega1((0.2, 0.3, -0.1, 0.05)),
], ids=["quintic", "hbm", "sextic", "quadratic", "constant_omega1", "quadratic_omega1",
        "cubic_omega1"])
def test_lam_r_and_omega_r_bitwise_equal_to_reference(spec):
    # omega_r reaches the Jacobian only through lam_r + i omega_r, so that
    # sum is what must keep its bits when omega_r is the scalar 0.0
    rng = np.random.default_rng(8)
    for r in (rng.uniform(0.0, 2.0, 33), rng.standard_normal(17),
              np.array([0.0, -0.0, 1.0, -1.0, 1e-160]), 0.7, -0.0):
        assert np.asarray(spec.lam_r(r, 0.5)).tobytes() == \
            np.asarray(loop_lam_r(spec, r, 0.5)).tobytes()
        for eps in (0.0, 1e-4, 0.01):
            got = spec.lam_r(r, 0.5) + 1j * spec.omega_r(r, 0.5, eps)
            want = loop_lam_r(spec, r, 0.5) + 1j * array_omega_r(spec, r, 0.5, eps)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("c", [1.0, 5.0, -0.7, 0.123456789])
def test_linear_omega1_bitwise_equal_to_closure(quintic_rotating, c):
    # the closures that carried omega1 = c r before it became coefficients;
    # the shipped mismatch configs ride on these bits
    spec = quintic_rotating.with_omega1((0.0, c))
    rng = np.random.default_rng(3)
    for r in (rng.uniform(0.0, 2.0, 33), rng.standard_normal(17), 0.7, 0.0):
        for eps in (0.0, 1e-4, 0.01):
            old = spec.omega0 + eps * (c * np.asarray(r, dtype=float))
            old_r = eps * (c + 0.0 * np.asarray(r, dtype=float))
            assert np.asarray(spec.omega(r, 0.5, eps)).tobytes() == \
                np.asarray(old).tobytes()
            assert np.asarray(spec.omega_r(r, 0.5, eps)).tobytes() == \
                np.asarray(old_r).tobytes()


@pytest.mark.parametrize("spec", [
    builtin_spec("quintic"),
    builtin_spec("quintic_rotating"),
    builtin_spec("hbm"),
    NonlinearitySpec("polynomial", [0.5, -1.0, 0.25], mu_coefficient=0.3, omega0=2.0),
    builtin_spec("quintic").with_omega1((0.0, 1.0), name="quintic+omega1[1.0*r]"),
    pytest.param(NonlinearitySpec("quintic", [0, 2, -1], mu_coefficient=-1),
                 id="quintic_from_ints"),
], ids=lambda spec: spec.name)
def test_spec_pickles_hashes_and_compares_equal(spec):
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert hash(copy) == hash(spec)
    if spec.name == "quintic":  # ints are stored as the floats the built-in has
        quintic = builtin_spec("quintic")
        assert spec == quintic and hash(spec) == hash(quintic)
        assert pickle.dumps(spec) == pickle.dumps(quintic)


def test_all_zero_lambda_coefficients_rejected():
    with pytest.raises(ModelError, match="every lambda coefficient"):
        NonlinearitySpec("polynomial", [0.0, 0.0], mu_coefficient=-1.0)


def test_quintic_bitwise_equal_to_closed_form(quintic):
    # the closed forms the quintic was written in before it became data
    def lam(r, mu):
        return -mu + 2.0 * (r * r) - (r * r) * (r * r)

    def lam_r(r, mu):
        return 4.0 * r - 4.0 * r * (r * r)

    rng = np.random.default_rng(7)
    for scale in (1e-9, 1e-3, 1.0, 3.0):
        r = scale * rng.standard_normal(64)
        for mu in rng.uniform(-0.1, 1.1, 5):
            assert np.array_equal(quintic.lam(r, mu), lam(r, mu))
            assert np.array_equal(quintic.lam_r(r, mu), lam_r(r, mu))
            x = float(r[0])
            assert quintic.lam(x, mu) == lam(x, mu)
            assert quintic.lam_r(x, mu) == lam_r(x, mu)


@pytest.mark.parametrize("spec", [
    builtin_spec("hbm"),
    NonlinearitySpec("polynomial", [0.3, 1.5, -2.0, 0.4], mu_coefficient=0.7),
], ids=lambda spec: spec.name)
def test_derivatives_match_finite_differences(spec):
    r = np.linspace(0.05, 1.5, 30)
    mu, h = 0.4, 1e-6
    fd_r = (spec.lam(r + h, mu) - spec.lam(r - h, mu)) / (2 * h)
    fd_mu = (spec.lam(r, mu + h) - spec.lam(r, mu - h)) / (2 * h)
    scale = np.max(np.abs(spec.lam_r(r, mu)))
    assert np.max(np.abs(spec.lam_r(r, mu) - fd_r)) <= 1e-7 * scale
    assert np.max(np.abs(spec.mu_coefficient - fd_mu)) <= 1e-7 * max(1.0, scale)


def test_bistable_roots_above_r_10():
    # r- = 5.412 and r+ = 13.066: r+ lies beyond any fixed search window
    spec = NonlinearitySpec("polynomial", [0.0, 0.02, -1e-4], mu_coefficient=-1.0)
    prof = bistable_roots(spec, 0.5)
    u_minus, u_plus = 100.0 - 50.0 * np.sqrt(2.0), 100.0 + 50.0 * np.sqrt(2.0)
    assert prof.r_minus == pytest.approx(np.sqrt(u_minus), rel=1e-13)
    assert prof.r_plus == pytest.approx(np.sqrt(u_plus), rel=1e-13)
    assert spec.lam_r(prof.r_plus, 0.5) < 0.0 < spec.lam_r(prof.r_minus, 0.5)
