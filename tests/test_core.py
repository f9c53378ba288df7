import warnings

import numpy as np
import pytest

from semistab.core import (
    DegenerateNormalizationError,
    FunctionVec,
    GridDomain,
    LyapunovSpec,
    MeasureVec,
    boltzmann_gibbs,
    coupling_equivalence,
    open_edge_divergence_ok,
    tv_norm,
    v_norm_measure,
    v_operator_norm,
)


@pytest.fixture
def grid():
    return GridDomain.uniform_closed(-4.0, 4.0, 101)


def measure(grid, pairs):
    m = np.zeros(grid.size)
    for idx, mass in pairs:
        m[idx] += mass
    return MeasureVec(m, grid)


def test_grid_invariants():
    g = GridDomain.uniform_closed(0.0, 2.0, 11)
    assert abs(g.cell_weights.sum() - 2.0) < 1e-12
    go = GridDomain.uniform_open(0.0, 1.0, 200)
    assert abs(go.cell_weights.sum() - 1.0) < 1e-12
    assert go.points.min() > 0 and go.points.max() < 1
    with pytest.raises(ValueError):
        GridDomain(np.array([0.0, 0.5, 0.25]), np.full(3, 1 / 3), ((0.0, 1.0),))
    with pytest.raises(ValueError):
        GridDomain(np.array([0.0, 0.5, 1.0]), np.array([0.5, -0.1, 0.6]), ((0.0, 1.0),))
    with pytest.raises(ValueError):  # grids are 1D intervals
        GridDomain(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.full(3, 1 / 3),
                   ((0.0, 1.0),))


def test_tv_norm_atoms(grid):
    mu = measure(grid, [(10, 1.0), (20, -1.0)])  # delta_x - delta_y
    assert tv_norm(mu) == 1.0
    assert tv_norm(measure(grid, [])) == 0.0
    mu = measure(grid, [(0, 0.3), (1, -0.7), (2, 0.4)])
    assert abs(tv_norm(mu) - 0.7) < 1e-15


def test_tv_norm_axioms(grid):
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = MeasureVec(rng.normal(size=grid.size), grid)
        b = MeasureVec(rng.normal(size=grid.size), grid)
        s = MeasureVec(a.masses + b.masses, grid)
        assert tv_norm(s) <= tv_norm(a) + tv_norm(b) + 1e-12
        lam = rng.normal()
        assert abs(tv_norm(MeasureVec(lam * a.masses, grid)) - abs(lam) * tv_norm(a)) < 1e-10
        assert (tv_norm(a) == 0) == np.all(a.masses == 0)


def test_v_norm_half_constant_is_tv(grid):
    rng = np.random.default_rng(1)
    half = LyapunovSpec.const(0.5)
    for _ in range(20):
        mu = MeasureVec(rng.normal(size=grid.size), grid)
        assert abs(v_norm_measure(mu, half) - tv_norm(mu)) < 1e-12


def test_v_norm_dirac_poly(grid):
    i = int(np.argmin(np.abs(grid.points - 2.0)))
    mu = measure(grid, [(i, 1.0)])
    assert abs(v_norm_measure(mu, LyapunovSpec.poly(2)) - 5.0) < 1e-12


def test_norm_equivalence(grid):
    # rho |mu|_V <= |mu|_{1 + rho V} <= (1 + rho) |mu|_V for V >= 1
    rng = np.random.default_rng(2)
    V = LyapunovSpec.poly(2)
    rho = 0.5
    one_plus = LyapunovSpec.affine_rescale(V, 1.0, rho)
    for _ in range(50):
        mu = MeasureVec(rng.normal(size=grid.size), grid)
        nv = v_norm_measure(mu, V)
        nmix = v_norm_measure(mu, one_plus)
        assert rho * nv <= nmix + 1e-12
        assert nmix <= (1 + rho) * nv + 1e-12


class _Op:
    def __init__(self, matrix, grid):
        self.matrix = matrix
        self.grid = grid


def test_v_operator_norm_identity(grid):
    V = LyapunovSpec.poly(2)
    eye = _Op(np.eye(grid.size), grid)
    assert abs(v_operator_norm(eye, V) - 1.0) < 1e-14
    half = _Op(0.5 * np.eye(grid.size), grid)
    assert abs(v_operator_norm(half, V) - 0.5) < 1e-14


def test_v_operator_norm_submultiplicative(grid):
    rng = np.random.default_rng(3)
    V = LyapunovSpec.poly(2)
    n = grid.size
    for _ in range(25):
        A = rng.uniform(size=(n, n)) * rng.uniform()
        B = rng.uniform(size=(n, n)) * rng.uniform()
        nA = v_operator_norm(_Op(A, grid), V)
        nB = v_operator_norm(_Op(B, grid), V)
        nAB = v_operator_norm(_Op(A @ B, grid), V)
        assert nAB <= nA * nB * (1 + 1e-12)


def test_boltzmann_gibbs_identity_and_ratio(grid):
    ones = FunctionVec(np.ones(grid.size), grid)
    mu = MeasureVec(np.full(grid.size, 1.0 / grid.size), grid)
    out = boltzmann_gibbs(ones, mu)
    np.testing.assert_allclose(out.masses, mu.masses, atol=1e-15)

    two = measure(grid, [(5, 1.0), (9, 1.0)])
    h = np.ones(grid.size)
    h[9] = 3.0
    out = boltzmann_gibbs(FunctionVec(h, grid), two)
    assert abs(out.masses[5] - 0.25) < 1e-14
    assert abs(out.masses[9] - 0.75) < 1e-14
    assert abs(out.total_mass() - 1.0) == 0.0


def test_boltzmann_gibbs_composition(grid):
    rng = np.random.default_rng(4)
    for _ in range(30):
        mu = MeasureVec(rng.uniform(0.01, 1, size=grid.size), grid)
        h1 = FunctionVec(rng.uniform(0.1, 2, size=grid.size), grid)
        h2 = FunctionVec(rng.uniform(0.1, 2, size=grid.size), grid)
        h12 = FunctionVec(h1.values * h2.values, grid)
        lhs = boltzmann_gibbs(h12, mu)
        rhs = boltzmann_gibbs(h2, boltzmann_gibbs(h1, mu))
        np.testing.assert_allclose(lhs.masses, rhs.masses, atol=1e-13)


def test_boltzmann_gibbs_degenerate(grid):
    mu = measure(grid, [(0, 1.0), (1, -1.0)])
    with pytest.raises(DegenerateNormalizationError):
        boltzmann_gibbs(FunctionVec(np.ones(grid.size), grid), mu)


def test_coupling_equivalence_basic(grid):
    mu = MeasureVec(np.full(grid.size, 1.0 / grid.size), grid)
    ok, nu = coupling_equivalence(mu, mu, 1.0)
    assert ok
    np.testing.assert_allclose(nu.masses, mu.masses, atol=1e-15)

    a = measure(grid, [(0, 1.0)])
    b = measure(grid, [(1, 1.0)])
    ok, nu = coupling_equivalence(a, b, 0.1)
    assert not ok and nu is None


def test_coupling_equivalence_worked_case():
    g = GridDomain.uniform_closed(0.0, 1.0, 2)
    mu1 = MeasureVec(np.array([0.6, 0.4]), g)
    mu2 = MeasureVec(np.array([0.2, 0.8]), g)
    ok, nu = coupling_equivalence(mu1, mu2, 0.5)
    assert ok
    np.testing.assert_allclose(nu.masses, [1 / 3, 2 / 3], atol=1e-15)
    for mu in (mu1, mu2):
        assert np.all(mu.masses >= 0.5 * nu.masses - 1e-15)


def test_coupling_equivalence_agrees_both_directions(grid):
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.dirichlet(np.ones(grid.size))
        q = rng.dirichlet(np.ones(grid.size))
        mu1, mu2 = MeasureVec(p, grid), MeasureVec(q, grid)
        d = tv_norm(MeasureVec(p - q, grid))
        for eps in rng.uniform(0.01, 1.0, size=20):
            ok, nu = coupling_equivalence(mu1, mu2, eps)
            assert ok == (d <= 1 - eps + 1e-12)
            if ok:
                assert np.all(mu1.masses >= eps * nu.masses - 1e-12)
                assert np.all(mu2.masses >= eps * nu.masses - 1e-12)


def test_lyapunov_families_and_spellings():
    V = LyapunovSpec.parse("poly:2")
    assert V.at(2.0) == 5.0
    assert LyapunovSpec.parse("exp:0.5").at(2.0) == pytest.approx(np.e)
    assert LyapunovSpec.parse("inv_plus_poly:2").at(2.0) == pytest.approx(4.5)
    assert LyapunovSpec.parse("boundary:0.5").at(0.5) == pytest.approx(2 ** 0.5)
    prod = LyapunovSpec.parse("product:[poly:2,const:0.5]")
    assert prod.at(2.0) == pytest.approx(2.5)
    aff = LyapunovSpec.affine_rescale(V, 0.5, 0.25)
    assert aff.at(2.0) == pytest.approx(0.5 + 0.25 * 5.0)
    with pytest.raises(ValueError):
        LyapunovSpec.parse("nope:1")
    with pytest.raises(ValueError):
        LyapunovSpec.parse("boundary:1.5")


def test_lyapunov_divergence_surrogate():
    g = GridDomain.uniform_open(0.0, 1.0, 200)
    assert open_edge_divergence_ok(LyapunovSpec.boundary(0.5), g)
    assert not open_edge_divergence_ok(LyapunovSpec.const(1.0), g)
    gh = GridDomain.uniform_open(0.0, 8.0, 200)
    assert open_edge_divergence_ok(LyapunovSpec.inv_plus_poly(2), gh)


@pytest.mark.parametrize("n", [1, 2])
def test_divergence_surrogate_needs_an_interior_point(n):
    g = GridDomain.uniform_open(0.0, 1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"at least 3 grid points .*, got {n}$"):
            open_edge_divergence_ok(LyapunovSpec.boundary(0.5), g)


def test_mismatched_grid_rejected(grid):
    other = GridDomain.uniform_closed(-4.0, 4.0, 51)
    mu = MeasureVec(np.zeros(other.size), other)
    h = FunctionVec(np.ones(grid.size), grid)
    with pytest.raises(ValueError):
        boltzmann_gibbs(h, mu)
