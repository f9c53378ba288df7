import dataclasses
import hashlib
import math

import numpy as np
import pytest

from semistab.core import FunctionVec, GridDomain, LyapunovSpec, MeasureVec, boltzmann_gibbs
from semistab.kernels import (
    MODELS,
    DirichletHeat,
    DiscreteOperator,
    GaussOU,
    HalfHarmonicLinear,
    HalfHarmonicOscillator,
    HarmonicOscillator,
    discretize,
    doob_h_transform,
    undo_h_transform,
)
from semistab.spectral import (
    EigenTriple,
    FlowExtinctionError,
    finite_rank_gap,
    ground_state_product,
    h_transform_commute,
    leading_eigentriple,
    normalized_flow,
    spectral_decay_check,
)


@pytest.fixture(scope="module")
def dirichlet_op():
    d = DirichletHeat(50)
    return d, discretize(d, d.default_grid(200), 0.5)


@pytest.fixture(scope="module")
def harmonic_op():
    m = HarmonicOscillator()
    return m, discretize(m, GridDomain.uniform_closed(-8, 8, 400), 0.5)


def test_normalized_flow_markov_masses():
    rng = np.random.default_rng(0)
    n = 20
    rows = rng.dirichlet(np.ones(n), size=n)
    grid = GridDomain.uniform_closed(0, 1, n)
    Q = DiscreteOperator(rows, grid, 1.0, is_markov=True, quad_tol=1e-9)
    eta0 = MeasureVec(np.full(n, 1 / n), grid)
    flows, masses = normalized_flow(Q, eta0, 10)
    np.testing.assert_allclose(masses, 1.0, atol=1e-12)
    for m in flows:
        assert abs(m.total_mass() - 1) < 1e-12


def test_normalized_flow_product_identity():
    rng = np.random.default_rng(1)
    n = 15
    rows = rng.uniform(0, 1, size=(n, n))
    rows = 0.7 * rows / rows.sum(axis=1, keepdims=True)  # sub-Markov
    grid = GridDomain.uniform_closed(0, 1, n)
    Q = DiscreteOperator(rows, grid, 1.0)
    eta0 = MeasureVec(rng.dirichlet(np.ones(n)), grid)
    flows, masses = normalized_flow(Q, eta0, 20)
    direct = eta0.masses @ np.linalg.matrix_power(rows, 20)
    assert np.prod(masses) == pytest.approx(direct.sum(), rel=1e-10)
    assert all(m <= 1 + 1e-12 for m in masses)


def test_normalized_flow_extinction():
    grid = GridDomain.uniform_closed(0, 1, 2)
    Q = DiscreteOperator(np.zeros((2, 2)), grid, 1.0)
    with pytest.raises(FlowExtinctionError) as ei:
        normalized_flow(Q, MeasureVec(np.array([0.5, 0.5]), grid), 3)
    assert ei.value.step == 0


def test_dirichlet_mass_ratio_tends_to_eigenvalue(dirichlet_op):
    d, Q = dirichlet_op
    eta0 = MeasureVec(np.full(Q.grid.size, 1 / Q.grid.size), Q.grid)
    _, masses = normalized_flow(Q, eta0, 12)
    assert math.log(masses[-1]) / 0.5 == pytest.approx(d.exact_rho, abs=1e-2)


def test_leading_eigentriple_harmonic(harmonic_op):
    m, Q = harmonic_op
    triple = leading_eigentriple(Q, tol=1e-12)
    assert triple.converged
    assert triple.rho == pytest.approx(-0.5, abs=1e-3)
    # ground state matches the Gaussian after L2 normalization
    g = Q.grid
    h_num = triple.h.values / math.sqrt(float(triple.h.values**2 @ g.cell_weights))
    h_ref = m.exact_h(g.points)
    h_ref /= math.sqrt(float(h_ref**2 @ g.cell_weights))
    err = math.sqrt(float((h_num - h_ref) ** 2 @ g.cell_weights))
    assert err < 1e-3
    # quasi-invariant measure: density proportional to the ground state
    dens = triple.eta_inf.masses / g.cell_weights
    dens /= dens.max()
    assert np.abs(dens - h_ref / h_ref.max()).max() < 1e-3


def test_leading_eigentriple_dirichlet(dirichlet_op):
    d, Q = dirichlet_op
    triple = leading_eigentriple(Q, tol=1e-13)
    assert triple.converged
    assert triple.rho == pytest.approx(-math.pi**2 / 2, abs=1e-2)
    h = triple.h.values
    ref = d.exact_h(Q.grid.points)
    assert np.abs(h / h.max() - ref / ref.max()).max() < 1e-6


def test_leading_eigentriple_half_harmonic():
    hh = HalfHarmonicOscillator()
    Q = discretize(hh, hh.default_grid(400), 0.5)
    triple = leading_eigentriple(Q, tol=1e-12)
    assert triple.rho == pytest.approx(-1.5, abs=5e-3)


def test_reweighted_fixed_point_moments(harmonic_op):
    # reweighting the quasi-invariant law by h squares the ground state:
    # the result is the centered Gaussian with variance 1/2
    from semistab.core import boltzmann_gibbs

    m, Q = harmonic_op
    triple = leading_eigentriple(Q, tol=1e-12)
    eta_h = boltzmann_gibbs(triple.h, triple.eta_inf)
    pts = Q.grid.points
    mean = float(eta_h.masses @ pts)
    var = float(eta_h.masses @ pts**2) - mean**2
    assert abs(mean) < 1e-10
    assert var == pytest.approx(0.5, abs=1e-4)


def test_left_right_eigenvalue_duality(dirichlet_op):
    _, Q = dirichlet_op
    triple = leading_eigentriple(Q, tol=1e-13)
    lam_left = math.exp(triple.rho * Q.time_step)
    h = triple.h.values
    lam_right = float(h @ (Q.matrix @ h)) / float(h @ h)
    assert lam_left == pytest.approx(lam_right, abs=1e-8)


def test_eigentriple_invariants_enforced():
    grid = GridDomain.uniform_closed(0, 1, 3)
    h = FunctionVec(np.array([1.0, 1.0, 1.0]), grid)
    eta = MeasureVec(np.array([0.5, 0.3, 0.2]), grid)
    EigenTriple(-1.0, h, eta, True, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        EigenTriple(-1.0, h, MeasureVec(np.array([0.5, 0.5, 0.5]), grid),
                    True, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        EigenTriple(-1.0, FunctionVec(np.array([1.0, -1.0, 1.0]), grid),
                    eta, True, 0.0, 0.0, 1)


def test_ground_state_product_dirichlet(dirichlet_op):
    d, Q = dirichlet_op
    triple = leading_eigentriple(Q, tol=1e-13)
    g = Q.grid
    i25 = int(np.argmin(np.abs(g.points - 0.25)))
    i50 = int(np.argmin(np.abs(g.points - 0.5)))
    p25 = ground_state_product(Q, triple, i25, 40)
    p50 = ground_state_product(Q, triple, i50, 40)
    ratio = p25.value / p50.value
    exact = math.sin(math.pi * g.points[i25]) / math.sin(math.pi * g.points[i50])
    assert ratio == pytest.approx(exact, rel=1e-6)
    # and the product converges to h itself in the pairing normalization
    assert p50.value == pytest.approx(triple.h.values[i50], rel=1e-8)


def test_ground_state_product_geometric_factor_decay():
    # factor deviations shrink like e^{gap * tau * n}; needs an asymmetric
    # start so the first correction mode does not vanish
    d = DirichletHeat(50)
    Q = discretize(d, d.default_grid(200), 0.1)
    triple = leading_eigentriple(Q, tol=1e-13)
    i = int(np.argmin(np.abs(Q.grid.points - 0.23)))
    p = ground_state_product(Q, triple, i, 25)
    devs = np.abs(p.factors - 1)
    devs = devs[devs > 1e-13]
    slope = np.polyfit(np.arange(len(devs)), np.log(devs), 1)[0]
    # even sine modes integrate to zero, so the mass functional first sees
    # mode 3: the visible gap is rho_3 - rho_1
    gap = (d.eigenvalue(3) - d.eigenvalue(1)) * Q.time_step
    assert slope == pytest.approx(gap, rel=0.1)


def test_finite_rank_gap_rank_one_operator():
    rng = np.random.default_rng(2)
    n = 10
    grid = GridDomain.uniform_closed(0, 1, n)
    col = rng.dirichlet(np.ones(n))
    rows = np.tile(col, (n, 1)) * 0.8
    Q = DiscreteOperator(rows, grid, 1.0)
    mu = MeasureVec(rng.dirichlet(np.ones(n)), grid)
    H = FunctionVec(np.ones(n), grid)
    curve = finite_rank_gap(Q, mu, H, 3, LyapunovSpec.const(1.0))
    assert curve.values[0] < 1e-12


def test_finite_rank_gap_dirichlet_rate(dirichlet_op):
    d, _ = dirichlet_op
    Q = discretize(d, d.default_grid(200), 0.1)
    triple = leading_eigentriple(Q, tol=1e-13)
    mu = MeasureVec(np.full(Q.grid.size, 1 / Q.grid.size), Q.grid)
    curve = finite_rank_gap(Q, mu, triple.h, 12, LyapunovSpec.const(1.0))
    gap = abs(d.eigenvalue(2) - d.eigenvalue(1))  # 3 pi^2 / 2
    assert curve.fitted_rate == pytest.approx(gap, rel=0.15)
    tail = curve.values[3:]
    assert np.all(np.diff(tail[tail > 1e-250]) < 0)


def test_spectral_decay_eigenfunction_is_exact(harmonic_op):
    m, Q = harmonic_op
    g = Q.grid
    h = m.exact_h(g.points)
    rep = spectral_decay_check(m, FunctionVec(h, g), 0.5)
    assert rep.lhs < 1e-8
    assert rep.ok


def test_spectral_decay_harmonic_second_mode(harmonic_op):
    m, Q = harmonic_op
    g = Q.grid
    f2 = g.points * np.exp(-g.points**2 / 2)  # second eigenstate direction
    reps = [spectral_decay_check(m, FunctionVec(f2, g), t) for t in (0.5, 1.0, 1.5)]
    for rep in reps:
        assert rep.ok
    # measured decay rate of the projection defect is the conjugate gap -1
    rate = math.log(reps[1].lhs / reps[0].lhs) / 0.5
    assert rate == pytest.approx(-1.0, abs=1e-3)


def test_spectral_decay_dirichlet_unit_function(dirichlet_op):
    d, Q = dirichlet_op
    g = Q.grid
    one = FunctionVec(np.ones(g.size), g)
    for t in (0.1, 0.5, 1.0):
        rep = spectral_decay_check(d, one, t)
        assert rep.ok


def test_spectral_decay_rejects_non_self_adjoint():
    from semistab.kernels import GaussOU

    ou = GaussOU()
    g = ou.default_grid(50)
    with pytest.raises(ValueError):
        spectral_decay_check(ou, FunctionVec(np.ones(50), g), 0.5)


def test_h_transform_commute(dirichlet_op):
    d, Q = dirichlet_op
    triple = leading_eigentriple(Q, tol=1e-13)
    rng = np.random.default_rng(3)
    eta = MeasureVec(rng.dirichlet(np.ones(Q.grid.size)), Q.grid)
    dists = h_transform_commute(Q, triple, eta)
    for n, d_tv in dists.items():
        assert d_tv < 1e-10, (n, d_tv)
    # eta = eta_inf: both routes sit at the reweighted fixed point
    dists = h_transform_commute(Q, triple, triple.eta_inf)
    for d_tv in dists.values():
        assert d_tv < 1e-10


def test_h_transform_commute_markov_identity():
    rng = np.random.default_rng(4)
    n = 12
    rows = rng.dirichlet(np.ones(n), size=n)
    grid = GridDomain.uniform_closed(0, 1, n)
    Q = DiscreteOperator(rows, grid, 1.0, is_markov=True, quad_tol=1e-9)
    triple = EigenTriple(
        0.0,
        FunctionVec(np.ones(n), grid),
        MeasureVec(np.full(n, 1 / n), grid),
        True, 0.0, 0.0, 1,
    )
    eta = MeasureVec(rng.dirichlet(np.ones(n)), grid)
    # h = 1, rho = 0: both sides are the plain flow
    dists = h_transform_commute(Q, triple, eta)
    for d_tv in dists.values():
        assert d_tv < 1e-14


@pytest.mark.parametrize("rows", [
    [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]],  # state 1 never leaves
    [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.3, 0.5]],  # a zero row
])
def test_eigentriple_rejects_an_operator_that_is_not_strongly_connected(rows):
    Q = DiscreteOperator(np.array(rows), GridDomain.uniform_closed(0, 1, 3), 1.0)
    with pytest.raises(ValueError, match="not strongly connected"):
        leading_eigentriple(Q)


def test_eigentriple_names_an_underflowed_ground_state():
    m = HarmonicOscillator()
    Q = discretize(m, GridDomain.uniform_closed(-40, 40, 200), 0.5)
    with pytest.raises(ArithmeticError, match="ground state underflowed to zero at 8 of 200"):
        leading_eigentriple(Q)


def test_h_transform_commute_steps_match_separate_flows(dirichlet_op):
    _, Q = dirichlet_op
    triple = leading_eigentriple(Q)
    eta = MeasureVec(np.full(Q.grid.size, 1 / Q.grid.size), Q.grid)
    P = doob_h_transform(Q, triple.h, triple.rho)
    dists = h_transform_commute(Q, triple, eta)
    assert sorted(dists) == [1, 2, 5]
    for n, dist in dists.items():
        lhs = boltzmann_gibbs(triple.h, normalized_flow(Q, eta, n)[0][-1]).masses
        rhs = boltzmann_gibbs(triple.h, eta).masses @ np.linalg.matrix_power(P.matrix, n)
        assert dist == pytest.approx(0.5 * np.abs(lhs - rhs).sum(), abs=1e-15)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_discretize_stamps_self_adjoint_from_the_model(name):
    m = MODELS[name]()
    grid = m.default_grid(60) if hasattr(m, "default_grid") else GridDomain.uniform_closed(-6, 6, 60)
    Q = discretize(m, grid, 0.5)
    assert Q.self_adjoint is m.self_adjoint
    # nothing else sets it: products and conjugations are not w-symmetric
    t = leading_eigentriple(Q)
    P = doob_h_transform(Q, t.h, t.rho)
    for derived in (Q.compose(Q), P, undo_h_transform(P, t.h, t.rho)):
        assert derived.self_adjoint is False


def _two_sided(Q):
    return leading_eigentriple(dataclasses.replace(Q, self_adjoint=False), tol=1e-12)


@pytest.mark.parametrize("model, grid", [
    (HarmonicOscillator(), GridDomain.uniform_closed(-8.0, 8.0, 400)),
    (HalfHarmonicOscillator(), GridDomain.uniform_open(0.0, 8.0, 400)),
    (DirichletHeat(50), GridDomain.uniform_open(0.0, 1.0, 200)),
])
def test_self_adjoint_iteration_matches_the_two_sided_loop(model, grid):
    # eta = h w, normalised, is the two-sided loop's eta within tol; the
    # Rayleigh quotient's rho is no farther from the exact value
    Q = discretize(model, grid, 0.5)
    one, two = leading_eigentriple(Q, tol=1e-12), _two_sided(Q)
    assert one.converged and two.converged
    assert one.residual_right <= 1e-12 and one.residual_left <= 1e-12
    assert 0.5 * np.abs(one.eta_inf.masses - two.eta_inf.masses).sum() <= 1e-12
    assert abs(one.rho - model.exact_rho) <= abs(two.rho - model.exact_rho)
    assert one.iterations <= two.iterations
    eta = one.h.values / one.h.values.max() * grid.cell_weights
    np.testing.assert_allclose(one.eta_inf.masses, eta / eta.sum(), rtol=1e-14, atol=0)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# (rho.hex(), sha256 of h, sha256 of eta_inf, rounds) of the two-sided loop
# on operators that do not declare self_adjoint: they keep these bits.  The
# operators are those of the in-place Gaussian-row assembly of `discretize`
_PINNED_TWO_SIDED = {
    "half_harmonic_linear": ("-0x1.28c56c0da5284p+1", "e464a3fa07308a83", "d0a8898dab11f2bf", 19),
    "gauss_ou": ("-0x1.0000000000001p-51", "cf3756ba9d331b50", "d845023588ddd8ab", 31),
}


@pytest.mark.parametrize("model, grid", [
    (HalfHarmonicLinear(a=0.3, varsigma=2.0), GridDomain.uniform_open(0.0, 5.0, 10)),
    (GaussOU(), GaussOU().default_grid(60)),
])
def test_operators_not_declared_self_adjoint_keep_their_bits(model, grid):
    Q = discretize(model, grid, 0.5)
    assert not Q.self_adjoint
    t = leading_eigentriple(Q, tol=1e-12)
    got = (t.rho.hex(), _digest(t.h.values), _digest(t.eta_inf.masses), t.iterations)
    assert got == _PINNED_TWO_SIDED[model.name]


def test_a_mis_declared_operator_does_not_converge():
    # gauss_ou is not w-symmetric: h converges, eta = h w does not
    # satisfy the left relation, so the loop runs out of rounds
    m = GaussOU()
    Q = dataclasses.replace(discretize(m, m.default_grid(60), 0.5), self_adjoint=True)
    t = leading_eigentriple(Q, tol=1e-12)
    assert not t.converged
    assert t.residual_right <= 1e-12 < t.residual_left
    assert t.iterations == 1000


def test_a_reducible_self_adjoint_operator_is_rejected():
    # two blocks that never meet: symmetric, w-symmetric on a uniform grid
    K = np.array([[0.5, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.6]])
    Q = DiscreteOperator(K, GridDomain.uniform_open(0.0, 1.0, 3), 1.0, self_adjoint=True)
    with pytest.raises(ValueError, match="not strongly connected"):
        leading_eigentriple(Q)
