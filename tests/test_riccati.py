import math

import numpy as np
import pytest

from semistab.riccati import (
    CoupledOscillator,
    LogisticBD,
    MatrixRiccati,
    MultivariateBD,
    ScalarRiccati,
    algebraic_residual,
    bd_generator_drift,
    bd_moment_bound,
    bd_riccati_majorant,
    coupled_oscillator_semigroup,
    matrix_riccati,
    scalar_riccati,
)


def test_scalar_riccati_fixed_points():
    s = ScalarRiccati(1.0, 0.0, 1.0)
    assert s.z_inf == pytest.approx(1.0)
    assert scalar_riccati(s, 0.0, 10.0) == pytest.approx(1.0, abs=1e-8)
    # pure decay: zdot = -z - z^2 solves to z0 e^-t / (1 + z0 (1 - e^-t))
    s = ScalarRiccati(0.0, -1.0, 1.0)
    exact = math.exp(-8.0) / (1 + (1 - math.exp(-8.0)))
    assert scalar_riccati(s, 1.0, 8.0) == pytest.approx(exact, rel=1e-8)
    assert s.z_inf == 0.0
    # worked root
    s = ScalarRiccati(1.0, 1.0, 2.0)
    assert s.z_inf == pytest.approx(1.0)
    assert scalar_riccati(s, 5.0, 10.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        ScalarRiccati(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        scalar_riccati(s, -1.0, 1.0)


@pytest.mark.parametrize("coeffs", [
    (math.nan, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, 0.0, math.inf),
    (1e308, 0.0, 1e308),    # a0 b overflows
    (0.0, 1e200, 1.0),      # (a1/2)^2 overflows
    (0.0, -1e200, 1.0),     # (a1/2)^2 overflows with a1 < 0
])
def test_scalar_riccati_rejects_coefficients_whose_rate_overflows(coeffs):
    with pytest.raises(ValueError):
        ScalarRiccati(*coeffs)


def test_scalar_riccati_z_inf_without_cancellation():
    # a1 < 0 with a0 b small against a1^2: a1 + sqrt(a1^2 + 4 a0 b) cancels
    s = ScalarRiccati(1e4, -1e8, 1e-4)
    assert s.z_inf == pytest.approx(1e-4, rel=1e-15)
    assert scalar_riccati(s, 0.0, 10.0) == pytest.approx(s.z_inf, rel=1e-15)


def test_scalar_riccati_huge_finite_rate():
    # the flow forms (a1/2)^2 + a0 b, which is finite here although 4 a0 b
    # or a1^2 overflows; z0 = 1 because 0 is a rest point when a0 = 0
    for coeffs, z_inf in [((1e307, 0.0, 1.0), math.sqrt(1e307)),
                          ((1e308, 0.0, 1.0), math.sqrt(1e308)),
                          ((0.0, 1.5e154, 1.0), 1.5e154)]:
        s = ScalarRiccati(*coeffs)
        assert s.z_inf == pytest.approx(z_inf, rel=1e-15)
        assert scalar_riccati(s, 1.0, 10.0) == pytest.approx(z_inf, rel=1e-15)


def test_scalar_riccati_monotone_and_comparison():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = ScalarRiccati(rng.uniform(0, 3), rng.uniform(-2, 2), rng.uniform(0.2, 3))
        z0 = rng.uniform(0, 4)
        z0b = z0 + rng.uniform(0, 3)
        ts = [0.3, 0.6, 1.2, 2.4]
        za = [scalar_riccati(s, z0, t) for t in ts]
        zb = [scalar_riccati(s, z0b, t) for t in ts]
        # comparison property and monotone approach to the fixed point
        assert all(a <= b + 1e-10 for a, b in zip(za, zb))
        gaps = [abs(z - s.z_inf) for z in za]
        assert all(g2 <= g1 + 1e-10 for g1, g2 in zip(gaps, gaps[1:]))


def test_matrix_riccati_tanh():
    spec = MatrixRiccati(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    for t in (0.25, 0.5, 1.0, 2.0):
        p = matrix_riccati(spec, t)
        assert p[0, 0] == pytest.approx(math.tanh(t), abs=1e-8)


def test_matrix_riccati_lyapunov_reduction():
    # S = 0 reduces to the controllability Gramian flow
    from semistab.kernels import gauss_ou_kernel

    A = np.array([[-1.0, 0.3], [0.0, -0.5]])
    Sig = np.array([[1.0, 0.0], [0.2, 0.7]])
    spec = MatrixRiccati(A, Sig @ Sig.T, np.zeros((2, 2)))
    p = matrix_riccati(spec, 1.0)
    _, cov = gauss_ou_kernel(1.0, A, Sig, np.zeros(2))
    np.testing.assert_allclose(p, cov, atol=1e-9)


def test_matrix_riccati_flow_symmetry_and_psd():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    C = rng.normal(size=(2, 2))
    spec = MatrixRiccati(A, B @ B.T, C @ C.T)
    for t in (0.1, 0.5, 1.0, 3.0):
        p = matrix_riccati(spec, t)
        assert np.abs(p - p.T).max() <= 1e-12
        assert np.linalg.eigvalsh(p).min() >= -1e-10


def test_matrix_riccati_algebraic_fixed_point():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 2))
    Sig = rng.normal(size=(2, 2)) + np.eye(2)
    Cs = rng.normal(size=(2, 2)) + np.eye(2)
    spec = MatrixRiccati(A, Sig @ Sig.T, Cs @ Cs.T)
    p_inf = matrix_riccati(spec, 40.0)
    assert algebraic_residual(spec, p_inf) <= 1e-8


def test_coupled_oscillator_harmonic_reduction():
    res = coupled_oscillator_semigroup(0.0, 1.0, 1.0, np.array([0.0]), 20.0)
    assert res.rho_hat == pytest.approx(-0.5, abs=1e-6)
    # mass at the origin: -2 log Q_t(1)(0) = int Tr(S p_s) = log cosh t
    res1 = coupled_oscillator_semigroup(0.0, 1.0, 1.0, np.array([0.0]), 1.0)
    assert res1.log_mass == pytest.approx(-0.5 * math.log(math.cosh(1.0)), abs=1e-8)
    # mean decays since A - p_inf S is stable
    res2 = coupled_oscillator_semigroup(0.0, 1.0, 1.0, np.array([2.0]), 1.0)
    assert abs(res2.m_t[0]) < 2.0
    assert res2.m_t[0] == pytest.approx(2.0 / math.cosh(1.0), abs=1e-8)


def test_coupled_oscillator_random_2x2():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    Sig = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    Cs = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    S = Cs @ Cs.T
    res = coupled_oscillator_semigroup(A, Sig, S, np.array([1.0, -1.0]), 30.0)
    spec = MatrixRiccati(A, Sig @ Sig.T, S)
    p_inf = matrix_riccati(spec, 60.0)
    assert algebraic_residual(spec, p_inf) <= 1e-8
    assert res.rho_hat == pytest.approx(-0.5 * float(np.trace(S @ p_inf)), abs=1e-6)
    # mean flows to zero at large time
    assert np.linalg.norm(res.m_t) < 1e-6


def test_coupled_oscillator_similarity_invariance():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(2, 2))
    Sig = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    Cs = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    S = Cs @ Cs.T
    x = np.array([0.7, -0.4])
    base = coupled_oscillator_semigroup(A, Sig, S, x, 25.0)
    M = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    Minv = np.linalg.inv(M)
    A2 = M @ A @ Minv
    Sig2 = M @ Sig
    S2 = Minv.T @ S @ Minv
    other = coupled_oscillator_semigroup(A2, Sig2, S2, M @ x, 25.0)
    assert other.rho_hat == pytest.approx(base.rho_hat, abs=1e-6)


def test_coupled_oscillator_controllability_rejection():
    with pytest.raises(ValueError):
        coupled_oscillator_semigroup(
            np.zeros((2, 2)), np.diag([1.0, 0.0]), np.eye(2),
            np.zeros(2), 1.0,
        )


def test_bd_generator_drift_logistic():
    spec = LogisticBD(lam_b=1.0, ups_b=0.5, lam_d=0.2, lam_l=0.1, ups_d=0.3)
    # at x = 1 only the birth move exists
    assert bd_generator_drift(spec, 1) == pytest.approx(spec.birth_rates(1))
    spec2 = LogisticBD(lam_b=1.0, ups_b=0.0, lam_d=0.0, lam_l=0.1, ups_d=0.0)
    assert bd_generator_drift(spec2, 10) == pytest.approx(1.0)  # 1.1*10 - 0.1*100
    for x in (0, 2.5):
        with pytest.raises(ValueError):
            bd_generator_drift(spec, x)


def test_bd_generator_drift_multivariate():
    spec = MultivariateBD(
        lam=np.array([1.0, 0.5]),
        mu=np.array([0.2, 0.2]),
        ups=np.array([0.3, 0.3]),
        sig=np.array([0.0, 0.0]),
        C=np.zeros((2, 2)),
        D=0.2 * np.eye(2),
    )
    e1 = np.array([1, 0])
    up = spec.birth_rates(e1[None, :].astype(float))
    # at a unit state every death is blocked: drift is the total birth rate
    assert bd_generator_drift(spec, e1) == pytest.approx(float(up.sum()))
    x = np.array([3, 2])
    lhs = bd_generator_drift(spec, x)
    a0 = spec.ups.sum() - spec.sig.sum()
    rhs = a0 + float((spec.lam - spec.mu) @ x) - float(x @ (spec.D - spec.C) @ x)
    assert lhs == pytest.approx(rhs)


def test_bd_majorant_quadratic_match():
    spec = LogisticBD(lam_b=2.0, ups_b=0.0, lam_d=0.0, lam_l=0.5, ups_d=0.0)
    maj = bd_riccati_majorant(spec)
    for x in (2, 5, 17, 60):
        assert bd_generator_drift(spec, x) <= maj.rhs(x) + 1e-12


def test_bd_moment_bound_pure_death():
    spec = LogisticBD(lam_b=0.0, ups_b=0.0, lam_d=1.0, lam_l=0.2, ups_d=0.0)
    rep = bd_moment_bound(spec, 30, T=2.0, n_paths=400, seed=7)
    assert rep.ok
    assert not rep.truncated
    assert np.all(np.diff(rep.means) <= 1e-9)  # mean decreasing


def test_bd_moment_bound_logistic():
    spec = LogisticBD(lam_b=2.0, ups_b=0.0, lam_d=0.0, lam_l=0.5, ups_d=0.0)
    rep = bd_moment_bound(spec, 50, T=2.0, n_paths=2000, seed=11)
    assert rep.ok
    assert not rep.truncated
    # the mean settles near the Riccati fixed point from above
    maj = bd_riccati_majorant(spec)
    assert rep.means[-1] <= maj.z_inf + 3 * rep.stderrs[-1] + 0.5


def test_bd_moment_bound_multivariate():
    spec = MultivariateBD(
        lam=np.array([1.5, 1.0]),
        mu=np.array([0.0, 0.0]),
        ups=np.array([0.0, 0.0]),
        sig=np.array([0.0, 0.0]),
        C=np.zeros((2, 2)),
        D=np.array([[0.3, 0.0], [0.0, 0.25]]),
    )
    rep = bd_moment_bound(spec, np.array([20, 15]), T=2.0, n_paths=1000, seed=13)
    assert rep.ok
    assert not rep.truncated


def _logistic_reference(spec, x0, T, n_paths, seed, n_checkpoints=10,
                        state_cap=10 ** 6):
    # the one-dimensional event loop the logistic chain once had to itself
    rng = np.random.default_rng([seed, 0x5D])
    checkpoints = np.linspace(T / n_checkpoints, T, n_checkpoints)
    x = np.full(n_paths, int(x0), dtype=np.int64)
    t = np.zeros(n_paths)
    records = np.full((n_checkpoints, n_paths), np.nan)
    counts = np.zeros(n_checkpoints, dtype=int)
    truncated = False
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        xf = x.astype(float)
        up = spec.lam_b * xf + spec.ups_b
        dn = np.where(xf >= 2, spec.lam_d * xf + spec.lam_l * xf * (xf - 1) + spec.ups_d, 0.0)
        total = up + dn
        t_new = t.copy()
        t_new[active & (total <= 0)] = np.inf
        moving = active & (total > 0)
        if moving.any():
            t_new[moving] = t[moving] + rng.exponential(1.0, size=int(moving.sum())) / total[moving]
        for k, cp in enumerate(checkpoints):
            newly = (t <= cp) & (t_new > cp)
            records[k, newly] = xf[newly]
            counts[k] += int(newly.sum())
        apply = moving & (t_new <= T)
        if moving.any() and apply.any():
            u = rng.uniform(size=n_paths)
            go_up = u[apply] < up[apply] / total[apply]
            xa = np.where(go_up, x[apply] + 1, x[apply] - 1)
            if np.any(xa >= state_cap):
                truncated = True
                xa = np.minimum(xa, state_cap)
            x[apply] = xa
        done = t_new > T
        t = np.where(done, np.inf, t_new)
        active = active & ~done
    stderrs = np.nanstd(records, axis=1, ddof=1) / np.sqrt(np.maximum(counts, 1))
    return np.nanmean(records, axis=1), stderrs, truncated


@pytest.mark.parametrize("spec, x0, cap", [
    (LogisticBD(lam_b=2.0, lam_l=0.5), 50, 10 ** 6),
    (LogisticBD(lam_b=0.0, lam_d=1.0, lam_l=0.2), 30, 10 ** 6),
    (LogisticBD(lam_b=3.0, ups_b=0.5, lam_d=0.1, lam_l=0.05, ups_d=0.2), 3, 40),
])
def test_bd_event_loop_matches_the_logistic_loop_bit_for_bit(spec, x0, cap):
    truncations = set()
    for seed in (1, 2, 3):
        rep = bd_moment_bound(spec, x0, T=2.0, n_paths=500, seed=seed, state_cap=cap)
        means, stderrs, truncated = _logistic_reference(spec, x0, 2.0, 500, seed,
                                                        state_cap=cap)
        assert np.array_equal(rep.means, means)
        assert np.array_equal(rep.stderrs, stderrs)
        assert rep.truncated == truncated
        truncations.add(truncated)
    assert truncations == {cap < 10 ** 6}


def test_bd_determinism():
    spec = LogisticBD(lam_b=2.0, ups_b=0.0, lam_d=0.0, lam_l=0.5, ups_d=0.0)
    a = bd_moment_bound(spec, 40, T=1.0, n_paths=300, seed=3)
    b = bd_moment_bound(spec, 40, T=1.0, n_paths=300, seed=3)
    np.testing.assert_array_equal(a.means, b.means)
    c = bd_moment_bound(spec, 40, T=1.0, n_paths=300, seed=4)
    assert not np.array_equal(a.means, c.means)


def test_multivariate_spec_validation():
    with pytest.raises(ValueError):
        MultivariateBD(
            lam=np.array([1.0]), mu=np.array([0.0]),
            ups=np.array([0.0]), sig=np.array([1.0]),  # |ups| < |sig|
            C=np.zeros((1, 1)), D=np.eye(1),
        )
    with pytest.raises(ValueError):
        MultivariateBD(
            lam=np.array([1.0]), mu=np.array([0.0]),
            ups=np.array([0.0]), sig=np.array([0.0]),
            C=np.eye(1), D=np.eye(1),  # B = 0 not positive definite
        )


def test_negative_horizons_rejected():
    s = ScalarRiccati(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        scalar_riccati(s, 0.5, -1.0)
    spec = MatrixRiccati(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        matrix_riccati(spec, -1.0)
    # rho_hat averages over [0.8t, t], so t = 0 is rejected too
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            coupled_oscillator_semigroup(0.0, 1.0, 1.0, np.array([1.0]), t)
    assert scalar_riccati(s, 0.5, 0.0) == 0.5
    np.testing.assert_array_equal(matrix_riccati(spec, 0.0), np.zeros((1, 1)))


def test_long_horizons_reach_fixed_points():
    spec = MatrixRiccati(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    assert matrix_riccati(spec, 1000.0)[0, 0] == pytest.approx(1.0, abs=1e-12)
    for s, z0 in ((ScalarRiccati(1.0, 1.0, 2.0), 5.0),
                  (ScalarRiccati(0.3, -2.0, 0.5), 0.0),
                  (ScalarRiccati(0.0, 1.5, 0.5), 2.0)):
        assert scalar_riccati(s, z0, 1e4) == pytest.approx(s.z_inf, abs=1e-12)
    # a0 = z0 = 0 keeps the flow at the unstable fixed point 0 at any t
    assert scalar_riccati(ScalarRiccati(0.0, 1.0, 1.0), 0.0, 1e4) == 0.0


def test_scalar_riccati_closed_form_degenerate_cases():
    # beta = 0: zdot = -b z^2 solves to z0 / (1 + b z0 t)
    assert scalar_riccati(ScalarRiccati(0.0, 0.0, 2.0), 3.0, 1.5) == \
        pytest.approx(3.0 / (1 + 2.0 * 3.0 * 1.5), rel=1e-14)
    # a0 = 0, a1 > 0: logistic flow z_inf z0 e^{a1 t} / (z_inf + z0 (e^{a1 t} - 1))
    s = ScalarRiccati(0.0, 1.0, 0.5)
    g = math.exp(3.0)
    assert scalar_riccati(s, 0.1, 3.0) == \
        pytest.approx(2.0 * 0.1 * g / (2.0 + 0.1 * (g - 1)), rel=1e-13)
