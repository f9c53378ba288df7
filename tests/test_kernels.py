import math

import numpy as np
import pytest
from scipy.integrate import quad

from semistab.core import FunctionVec, GridDomain, LyapunovSpec, v_operator_norm
from semistab.kernels import (
    MODELS,
    DirichletHeat,
    GaussOU,
    HalfHarmonicLinear,
    HalfHarmonicOscillator,
    DiscreteOperator,
    HarmonicOscillator,
    MatrixFlow,
    _matrix_flow,
    controllable,
    dirichlet_heat,
    dirichlet_mass,
    discretize,
    domination_transfer,
    doob_h_transform,
    gauss_ou_kernel,
    generator_apply,
    half_harmonic_linear,
    half_linear_fixed_point,
    hermite_polynomial,
    hermite_series_kernel,
    mehler_kernel,
    mehler_mass,
    undo_h_transform,
)
from semistab.riccati import (
    MatrixRiccati,
    ScalarRiccati,
    coupled_oscillator_semigroup,
    matrix_riccati,
    scalar_riccati,
)

# Frozen from 30-digit evaluation of the closed forms (mpmath).
MASS_T1_X0 = 0.80501818219459205          # 1/sqrt(cosh 1)
MEAN_T1_X2 = 1.2961085473277708           # 2/cosh(1)
DIRICHLET_SURV_T1 = 0.0091569902897607558  # sine series at x = 1/2
DIRICHLET_SURV_T03 = 0.28970892125637967


def test_mehler_mass_and_mean():
    assert mehler_mass(1.0, 0.0) == pytest.approx(MASS_T1_X0, abs=1e-14)
    assert 2.0 / math.cosh(1.0) == pytest.approx(MEAN_T1_X2, abs=1e-14)
    val, _ = quad(lambda y: mehler_kernel(1.0, 0.7, y), -12, 12)
    assert val == pytest.approx(mehler_mass(1.0, 0.7), abs=1e-10)
    with pytest.raises(ValueError):
        mehler_kernel(-1.0, 0.0, 0.0)


def test_mehler_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-3, 3, size=2)
        assert mehler_kernel(0.7, x, y) == pytest.approx(
            mehler_kernel(0.7, y, x), rel=1e-12
        )


def test_hermite_polynomial_recurrence():
    assert hermite_polynomial(2, 1.0) == 2.0
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(hermite_polynomial(3, xs), 8 * xs**3 - 12 * xs, atol=1e-10)


def test_hermite_series_single_term():
    # one term: e^{-t/2} phi_1(x) phi_1(y) with the Gaussian ground state
    x, y, t = 0.4, -1.1, 0.9
    phi = lambda z: math.pi ** -0.25 * math.exp(-z * z / 2)
    assert hermite_series_kernel(t, x, y, 1) == pytest.approx(
        math.exp(-t / 2) * phi(x) * phi(y), rel=1e-13
    )
    with pytest.raises(ValueError):
        hermite_series_kernel(1.0, 0.0, 0.0, 201)


def test_mehler_vs_hermite_series():
    xs = np.linspace(-4, 4, 41)
    for t in (0.5, 1.0, 2.0):
        direct = np.array([[mehler_kernel(t, x, y) for y in xs] for x in xs])
        series = hermite_series_kernel(t, xs, xs, 40)
        assert np.abs(direct - series).max() < 1e-8


def test_half_harmonic_normalization_and_mass():
    mass, dens = half_harmonic_linear(1.0, 1.5, 0.0, 1.0)
    val, _ = quad(dens, 0, 25)
    assert val == pytest.approx(1.0, abs=1e-8)
    assert 0 < mass < 1
    # mass -> 0 as x -> 0+
    masses = [half_harmonic_linear(1.0, x, 0.0, 1.0)[0] for x in (1.0, 0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 1e-2
    with pytest.raises(ValueError):
        half_harmonic_linear(1.0, -0.5, 0.0, 1.0)


def test_half_harmonic_eigenvalue_from_decay():
    # incremental rate log(mass(t2)/mass(t1))/(t2-t1) -> rho_1 = -3/2
    x = 1.0
    r_early = math.log(half_harmonic_linear(3.0, x, 0.0, 1.0)[0] / half_harmonic_linear(2.0, x, 0.0, 1.0)[0])
    r_late = math.log(half_harmonic_linear(10.0, x, 0.0, 1.0)[0] / half_harmonic_linear(9.0, x, 0.0, 1.0)[0])
    assert r_late == pytest.approx(-1.5, abs=1e-4)
    assert abs(r_late + 1.5) < abs(r_early + 1.5)


def test_half_harmonic_reflection_oracle():
    # conjugate Ornstein-Uhlenbeck reflection formula for the mass
    t, x = 1.0, 1.2
    eps_t = math.exp(-t)
    sig2 = (1 - eps_t**2) / 2

    def integrand(y):
        r_plus = math.exp(-((y - eps_t * x) ** 2) / (2 * sig2))
        r_minus = math.exp(-((y + eps_t * x) ** 2) / (2 * sig2))
        gauss = (r_plus - r_minus) / math.sqrt(2 * math.pi * sig2)
        return gauss * math.exp((y * y - x * x) / 2 - t / 2) * math.exp(-y * y)

    # e^{y^2/2} weight against the OU kernel, with the extra e^{-y^2}
    # from the h-transform h(y)^2 = e^{-y^2} folded in explicitly:
    # Q_t(1)(x) = e^{-t/2-x^2/2} E[e^{Y^2/2} 1_{T>t}]
    val, _ = quad(
        lambda y: (
            (math.exp(-((y - eps_t * x) ** 2) / (2 * sig2))
             - math.exp(-((y + eps_t * x) ** 2) / (2 * sig2)))
            / math.sqrt(2 * math.pi * sig2)
            * math.exp(y * y / 2)
        ),
        0,
        30,
    )
    oracle = math.exp(-t / 2 - x * x / 2) * val
    assert half_harmonic_linear(t, x, 0.0, 1.0)[0] == pytest.approx(oracle, rel=1e-9)


def test_dirichlet_heat_values():
    m = DirichletHeat(50)
    assert m.exact_rho == pytest.approx(-math.pi**2 / 2)
    assert dirichlet_mass(1.0, 0.5, 50) == pytest.approx(DIRICHLET_SURV_T1, rel=1e-12)
    assert dirichlet_mass(0.3, 0.5, 50) == pytest.approx(DIRICHLET_SURV_T03, rel=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95, size=2)
        assert dirichlet_heat(0.4, x, y, 30) == pytest.approx(
            dirichlet_heat(0.4, y, x, 30), rel=1e-12
        )
    with pytest.raises(ValueError):
        dirichlet_heat(0.4, -0.1, 0.5, 30)


def test_gauss_ou_kernel_scalar_cases():
    mean, cov = gauss_ou_kernel(1.0, -1.0, 1.0, np.array([3.0]))
    assert mean[0] == pytest.approx(3 * math.exp(-1))
    assert cov[0, 0] == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-10)
    # A = 0: Brownian motion, cov = t
    mean, cov = gauss_ou_kernel(0.7, 0.0, 1.0, np.array([0.0]))
    assert cov[0, 0] == pytest.approx(0.7, abs=1e-10)
    # stable A: mean -> 0
    mean, _ = gauss_ou_kernel(40.0, -1.0, 1.0, np.array([5.0]))
    assert abs(mean[0]) < 1e-8
    with pytest.raises(ValueError):
        gauss_ou_kernel(1.0, np.eye(2), np.eye(2), np.array([1.0]))


def test_gauss_ou_kernel_long_horizon():
    # the covariance settles at the stationary variance sigma^2 / (-2a)
    for a, sigma in ((-1.0, 1.0), (-0.25, 0.6)):
        mean, cov = gauss_ou_kernel(1000.0, a, sigma, np.array([5.0]))
        assert cov[0, 0] == pytest.approx(sigma ** 2 / (-2 * a), rel=1e-12)
        assert mean[0] == pytest.approx(0.0, abs=1e-100)


def test_gauss_ou_kernel_matrix_case():
    A = np.array([[0.0, 1.0], [-1.0, -0.5]])
    S = np.array([[0.0, 0.0], [0.0, 1.0]])
    mean, cov = gauss_ou_kernel(1.0, A, S, np.array([1.0, 0.0]))
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() > 0
    assert controllable(A, S)


def test_half_harmonic_linear_reduction_and_fixed_point():
    m0 = HalfHarmonicOscillator().mass(0.8, 1.3)
    m1, _ = half_harmonic_linear(0.8, 1.3, 0.0, 1.0)
    assert m1 == pytest.approx(m0, rel=1e-9)
    assert half_linear_fixed_point(1.0, 3.0) == pytest.approx(1.0)
    # a << -sqrt(varsigma): the root 1 / (sqrt(a^2 + varsigma) - a), no cancellation
    assert half_linear_fixed_point(-1e8, 1.0) == pytest.approx(5e-9, rel=1e-15)
    assert HalfHarmonicLinear(-1e8, 1.0).beta == pytest.approx(5e-9, rel=1e-15)
    # m_t decreasing in t once a < p_t varsigma
    model = HalfHarmonicLinear(a=0.2, varsigma=2.0)
    masses = [half_harmonic_linear(t, 1.0, 0.2, 2.0)[0] for t in (0.5, 1.0, 2.0)]
    assert masses[0] > masses[1] > masses[2]
    # eigenvalue from decay matches a - 3 beta / 2
    rho = model.exact_rho
    est = math.log(
        half_harmonic_linear(8.0, 1.0, 0.2, 2.0)[0]
        / half_harmonic_linear(7.0, 1.0, 0.2, 2.0)[0]
    )
    assert est == pytest.approx(rho, abs=2e-3)


def test_half_line_mass_broadcasts_bit_for_bit():
    model = HalfHarmonicLinear(0.3, 2.0)
    xs = np.linspace(0.05, 6.0, 36)
    scalar = [half_harmonic_linear(0.7, x, 0.3, 2.0)[0] for x in xs]
    assert np.array_equal(model.mass(0.7, xs), scalar)
    assert np.array_equal(model.mass(0.7, xs.reshape(6, 6)), np.reshape(scalar, (6, 6)))


def test_half_harmonic_linear_density_normalized():
    mass, dens = half_harmonic_linear(1.0, 0.7, 0.5, 2.0)
    val, _ = quad(dens, 0, 30)
    assert val == pytest.approx(1.0, abs=1e-8)
    assert 0 < mass < 1


def test_discretize_row_sums_against_mass():
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8, 8, 300)
    K = discretize(m, g, 1.0)
    assert np.abs(K.row_sums() - m.mass(1.0, g.points)).max() < 1e-9

    d = DirichletHeat(50)
    gd = d.default_grid(200)
    KD = discretize(d, gd, 0.1)
    assert np.all(KD.row_sums() < 1.0)
    # midpoint error scales with the kernel curvature 1/t at this resolution
    assert np.abs(KD.row_sums() - d.mass(0.1, gd.points)).max() < 2e-5
    KD5 = discretize(d, gd, 0.5)
    assert np.abs(KD5.row_sums() - d.mass(0.5, gd.points)).max() < 2e-6

    ou = GaussOU(a=-1.0, sigma=1.0)
    go = ou.default_grid(400)
    KO = discretize(ou, go, 0.5)
    assert np.abs(KO.row_sums() - 1).max() < 1e-6


def test_chapman_kolmogorov():
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8, 8, 400)
    K05 = discretize(m, g, 0.5)
    K1 = discretize(m, g, 1.0)
    assert np.abs(K05.compose(K05).matrix - K1.matrix).max() < 1e-4

    d = DirichletHeat(50)
    gd = d.default_grid(200)
    A = discretize(d, gd, 0.25)
    B = discretize(d, gd, 0.5)
    assert np.abs(A.compose(A).matrix - B.matrix).max() < 1e-4


def test_dirichlet_eigen_relation_on_grid():
    d = DirichletHeat(50)
    g = d.default_grid(200)
    K = discretize(d, g, 0.5)
    h = d.exact_h(g.points)
    resid = np.abs(K.matrix @ h - math.exp(d.exact_rho * 0.5) * h).max()
    assert resid < 1e-6


def test_doob_h_transform_properties():
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8, 8, 201)
    K = discretize(m, g, 1.0)
    h = FunctionVec(m.exact_h(g.points), g)
    P = doob_h_transform(K, h, m.exact_rho)
    assert np.abs(P.row_sums() - 1).max() < 1e-6
    # transformed kernel is the contracting Gaussian of the ground-state flow
    ou = GaussOU(a=-1.0, sigma=1.0)
    i = g.size // 3
    expected = ou.density(1.0, g.points[i], g.points) * g.cell_weights
    np.testing.assert_allclose(P.matrix[i], expected, atol=1e-9)
    # algebraic round trip
    back = undo_h_transform(P, h, m.exact_rho)
    assert np.abs(back.matrix - K.matrix).max() < 1e-12
    # h = 1, rho = 0 on a Markov operator: identity transform
    ones = FunctionVec(np.ones(g.size), g)
    KO = discretize(ou, ou.default_grid(100), 0.5)
    same = doob_h_transform(KO, FunctionVec(np.ones(100), KO.grid), 0.0)
    assert np.abs(same.matrix - KO.matrix).max() == 0.0
    with pytest.raises(ValueError):
        doob_h_transform(K, FunctionVec(np.zeros(g.size), g), 0.0)


def test_mehler_operator_norm_drift():
    # Dense evaluation of Q_t(V)/V for V = 1 + x^4.  The kernel keeps mass
    # near the origin at small t (norm > 1) and contracts for larger t.
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8, 8, 400)
    V = LyapunovSpec.poly(4)
    n1 = v_operator_norm(discretize(m, g, 1.0), V)
    n4 = v_operator_norm(discretize(m, g, 4.0), V)
    assert n1 == pytest.approx(2.2546, abs=2e-3)
    assert n4 < 1.0
    # ratio decays at the grid edges regardless of t
    K = discretize(m, g, 1.0)
    ratio = (K.matrix @ V(g.points)) / V(g.points)
    assert ratio[0] < 1e-6 and ratio[-1] < 1e-6


def test_generator_apply_ou_quadratic():
    gv = generator_apply(lambda x: -x, 1.0, LyapunovSpec.poly(2), 2.0)
    assert gv.lv == pytest.approx(-7.0, rel=1e-6)
    assert gv.gamma == pytest.approx(16.0, rel=1e-6)


def test_generator_apply_analytic_oracle_random_polys():
    # L(V) for V(x)=x^2, drift b(x) = c0 + c1 x, sigma s:
    #   (c0 + c1 x) 2x + s^2
    rng = np.random.default_rng(7)
    for _ in range(20):
        c0, c1, s, x = rng.normal(size=4)
        s = abs(s) + 0.5
        gv = generator_apply(
            lambda z, c0=c0, c1=c1: c0 + c1 * z,
            s,
            LyapunovSpec.poly(2),
            x,
        )
        exact = (c0 + c1 * x) * 2 * x + s * s
        assert gv.lv == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_generator_apply_langevin_2d_drift():
    # 2D kinetic model with quartic confinement; the cross-term-augmented
    # total-energy Lyapunov function has L(V) <= -aV + c on a compact window.
    beta, mass, sigma = 1.0, 1.0, 1.0
    eps = 0.4 * sigma**2 / (2 * mass)

    def W(q):
        return q**4

    def drift(z):
        q, p = z
        return np.array([beta * p / mass, -beta * (4 * q**3 + sigma**2 / 2 * p / mass)])

    diffusion = np.array([[0.0, 0.0], [0.0, sigma]])

    def V(z):
        q, p = z
        return 1 + p * p / (2 * mass) + W(q) + eps / 2 * (sigma**2 / 2 * q * q + 2 * p * q)

    qs = np.linspace(-5, 5, 21)
    ratios = []
    for q in qs:
        for p in qs:
            gv = generator_apply(drift, diffusion, V, np.array([q, p]), fd_step=1e-4)
            ratios.append(gv.lv / V(np.array([q, p])))
    ratios = np.asarray(ratios)
    # L(V)/V is eventually negative: fit a > 0 and c with a pointwise check
    a = max(1e-3, -np.percentile(ratios, 95))
    lvs = []
    for q in qs:
        for p in qs:
            z = np.array([q, p])
            lvs.append(generator_apply(drift, diffusion, V, z).lv + a * V(z))
    assert np.isfinite(max(lvs))  # c := max(L(V) + aV) < infinity
    # and the drift is strictly confining at the window edge
    edge = generator_apply(drift, diffusion, V, np.array([5.0, 5.0]))
    assert edge.lv < 0


def test_generator_overdamped_ks_condition():
    # alpha W + beta + L(W) <= -eps Gamma_L(W, W) for W = x^2, |x| >= 2
    gamma, rho, eps, alpha, beta = 1.0, 1.0, 0.1, 1.0, -2.0

    def drift(x):
        return -gamma * 2 * x  # -gamma grad W

    for x in np.linspace(2, 6, 30):
        for s in (-1, 1):
            gv = generator_apply(drift, rho, LyapunovSpec.poly(2), s * x)
            W = x * x
            assert alpha * W + beta + (gv.lv - 0.0) <= -eps * gv.gamma + 1e-6


def test_generator_rejects_singularity():
    V = LyapunovSpec.inv_plus_poly(2)
    with pytest.raises(ValueError):
        generator_apply(lambda x: -x, 1.0, V, 0.0)


def test_domination_transfer_holder():
    d = DirichletHeat(50)
    K = discretize(d, d.default_grid(200), 0.5)
    rep = domination_transfer(K, LyapunovSpec.poly(2), 2.0)
    assert rep.holder_max <= 1 + 1e-9
    assert rep.excluded.size == 0

    # half-harmonic with V = x + 1/x: transferred drift decays at the edges
    hh = HalfHarmonicOscillator()
    Kh = discretize(hh, hh.default_grid(300), 1.0)
    rep = domination_transfer(Kh, LyapunovSpec.inv_plus_poly(1), 2.0)
    assert rep.holder_max <= 1 + 1e-9
    assert rep.edge_decay_ok

    # Markov rows: transfer degenerates to the V^{1/p} operator-norm bound
    ou = GaussOU()
    Ko = discretize(ou, ou.default_grid(200), 0.5)
    rep = domination_transfer(Ko, LyapunovSpec.poly(2), 2.0)
    assert rep.holder_max <= 1 + 1e-9


def test_half_harmonic_drift_bounded():
    # Q_t(V)/V <= c_t/V, i.e. Q_t(V) uniformly bounded with edge decay
    hh = HalfHarmonicOscillator()
    g = hh.default_grid(300)
    K = discretize(hh, g, 1.0)
    V = LyapunovSpec.inv_plus_poly(2)
    QV = K.matrix @ V(g.points)
    assert np.isfinite(QV).all()
    c_t = QV.max()
    k = g.size // 20
    assert max(QV[:k].max(), QV[-k:].max()) < c_t  # decay toward both edges


@pytest.mark.parametrize("model, grid", [
    (HarmonicOscillator(), GridDomain.uniform_closed(-8.0, 8.0, 300)),
    (DirichletHeat(), GridDomain.uniform_open(0.0, 1.0, 300)),
    (GaussOU(), GaussOU().default_grid(150)),
    (HalfHarmonicLinear(0.3, 2.0), GridDomain.uniform_open(0.0, 5.0, 10)),
    (HalfHarmonicOscillator(), GridDomain.uniform_open(0.0, 8.0, 1)),
])
def test_discretize_matches_row_by_row_assembly(model, grid):
    pts, w = grid.points, grid.cell_weights
    rows = np.array([model.density(0.5, x, pts) * w for x in pts])
    assert np.array_equal(discretize(model, grid, 0.5).matrix,
                          np.clip(rows, 0.0, None))


def test_discretize_names_the_failing_row():
    grid = GridDomain.uniform_open(-1.0, 1.0, 20)
    with pytest.raises(ArithmeticError, match=r"grid row 0 \(x=-0\.95\)"):
        discretize(DirichletHeat(), grid, 0.5)


class _ScalarStartOscillator(HarmonicOscillator):
    def density(self, t, x, y):
        return mehler_kernel(t, float(x), y)


def test_discretize_rejects_a_density_of_a_scalar_start():
    with pytest.raises(ArithmeticError, match="grid rows 0 to 29 broadcast together"):
        discretize(_ScalarStartOscillator(), GridDomain.uniform_closed(-4.0, 4.0, 30), 0.5)


def _step_loop_flow(A, R, S, t, start):
    """The step-by-step reference: ceil(t ||H||_1) steps of one expm(hH),
    each renormalised to [I; p]."""
    from scipy.linalg import expm

    n = A.shape[0]
    H = np.block([[-A.T, S], [R, A]])
    steps = max(1, math.ceil(t * np.linalg.norm(H, 1)))
    E = expm((t / steps) * H)
    E11, E12, E21, E22 = E[:n, :n], E[:n, n:], E[n:, :n], E[n:, n:]
    p, F, G, logdet = start
    for _ in range(steps):
        X = E11 + E12 @ p
        Xinv = np.linalg.inv(X)
        p = (E21 + E22 @ p) @ Xinv
        p = 0.5 * (p + p.T)
        G = G + F.T @ (Xinv @ E12) @ F
        F = Xinv.T @ F
        logdet += float(np.linalg.slogdet(X)[1])
    return MatrixFlow(p, F, 0.5 * (G + G.T), logdet)


def test_matrix_flow_doubling_matches_the_step_loop():
    rng = np.random.default_rng(7)
    for k in range(60):
        n = int(rng.integers(1, 4))
        A, B, C, D = rng.normal(size=(4, n, n))
        R, S = B @ B.T, C @ C.T
        start = MatrixFlow.start(D @ D.T if k % 2 else np.zeros((n, n)))
        t = rng.uniform(0.0, 10.0)
        head_ref = _step_loop_flow(A, R, S, 0.8 * t, start)
        head = _matrix_flow(A, R, S, 0.8 * t, start)
        pairs = [(head, head_ref),  # a start, and its continuation to t
                 (_matrix_flow(A, R, S, 0.2 * t, head),
                  _step_loop_flow(A, R, S, 0.2 * t, head_ref))]
        for flow, ref in pairs:
            for got, want in zip(flow, ref):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_horizon_is_a_value_error(t):
    one = np.ones((1, 1))
    with pytest.raises(ValueError, match="horizon t must be finite"):
        matrix_riccati(MatrixRiccati(0 * one, one, one), t)
    with pytest.raises(ValueError, match="horizon t must be finite"):
        coupled_oscillator_semigroup(0.0, 1.0, 1.0, np.array([1.0]), t)
    with pytest.raises(ValueError, match="horizon t must be finite"):
        gauss_ou_kernel(t, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="horizon t must be finite"):
        scalar_riccati(ScalarRiccati(1.0, 0.0, 1.0), 0.5, t)
    with pytest.raises(ValueError, match="horizon t must be finite"):
        half_harmonic_linear(t, 1.0, 0.0, 1.0)


def test_half_line_start_nan_is_rejected():
    with pytest.raises(ValueError, match="x must be positive"):
        half_harmonic_linear(1.0, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="x must be positive"):
        half_harmonic_linear(1.0, np.array([0.5, math.nan]), 0.3, 2.0)


def test_half_line_fixed_point_is_the_riccati_fixed_point():
    # one root serves both: 1 + 2a p - varsigma p^2 is ScalarRiccati(1, 2a, varsigma)
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    rng = np.random.default_rng(8)
    cases = [(1e8, 1.0), (-1e8, 1.0), (-1e8, 1e-3), (1e8, 7.0), (0.0, 2.0)]
    cases += [(float(a), float(v)) for a, v in zip(rng.normal(0, 10, 200),
                                                   10 ** rng.uniform(-4, 4, 200))]
    for a, varsigma in cases:
        p = half_linear_fixed_point(a, varsigma)
        assert p == ScalarRiccati(1.0, 2.0 * a, varsigma).z_inf
        da, dv = Decimal(a), Decimal(varsigma)
        exact = 1 / ((da * da + dv).sqrt() - da)  # the same root, exactly rounded
        assert p == pytest.approx(float(exact), rel=4e-16)


@pytest.mark.parametrize("is_markov", [True, False])
def test_operator_rejects_nan_entries(is_markov):
    # NaN compares False both ways, so neither the sign nor the row checks
    # would see it
    K = np.full((4, 4), 0.25)
    K[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"1 non-finite entries; the first, \(2, 1\), is nan"):
        DiscreteOperator(K, GridDomain.uniform_open(0.0, 1.0, 4), 1.0, is_markov=is_markov)
    K[2, 1] = -0.25
    with pytest.raises(ValueError, match="entries must be nonnegative"):
        DiscreteOperator(K, GridDomain.uniform_open(0.0, 1.0, 4), 1.0, is_markov=is_markov)


class _NanOscillator(HarmonicOscillator):
    def density(self, t, x, y):
        out = mehler_kernel(t, x, y)
        return np.where((x > 0) & (y > 0), np.nan, out)


def test_discretize_reports_nan_entries_as_a_numerical_failure():
    with pytest.raises(ArithmeticError, match="quadrature failed: operator has 49 non-finite"):
        discretize(_NanOscillator(), GridDomain.uniform_closed(-4.0, 4.0, 15), 0.5)



def test_hermite_series_matches_the_plain_sum():
    from semistab.kernels import hermite_functions

    xs, ys = np.linspace(-3, 3, 7), np.linspace(-2.5, 2.5, 11)
    lam = np.exp(-(np.arange(30) + 0.5) * 0.7)
    ref = np.einsum("k,ki,kj->ij", lam, hermite_functions(30, xs), hermite_functions(30, ys))
    out = hermite_series_kernel(0.7, xs, ys, 30)
    assert out.shape == (7, 11)
    assert np.abs(out - ref).max() <= 2e-15 * np.abs(ref).max()  # rounding only
    assert hermite_series_kernel(0.7, xs[0], ys, 30).shape == (11,)
    assert isinstance(hermite_series_kernel(0.7, 0.1, 0.2, 30), float)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_self_adjoint_models_are_w_symmetric_on_the_grid(name):
    # leading_eigentriple trusts the flag to set eta = h w: a model that
    # declares it has w_i K_ij = w_j K_ji to rounding, and one that does
    # not is clearly asymmetric (half_harmonic_linear only away from a = 0,
    # where it is the absorbed oscillator)
    cls = MODELS[name]
    m = cls(a=0.3, varsigma=2.0) if cls is HalfHarmonicLinear else cls()
    grid = m.default_grid(40) if hasattr(m, "default_grid") \
        else GridDomain.uniform_closed(-6.0, 6.0, 40)
    wK = grid.cell_weights[:, None] * discretize(m, grid, 0.5).matrix
    asymmetry = np.abs(wK - wK.T).max() / np.abs(wK).max()
    if m.self_adjoint:
        assert asymmetry <= 1e-14
    else:
        assert asymmetry > 1e-2
