import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semistab.core import FunctionVec, GridDomain, LyapunovSpec, MeasureVec
from semistab.contraction import (
    _pair_scan,
    build_pvc_chain,
    decay_envelope_constant,
    foster_lyapunov_verify,
    geometric_decay_curve,
    local_minorization,
    nonexpansive_check,
    rescaled_lyapunov,
    v_dobrushin,
)
from semistab.kernels import (
    DiscreteOperator,
    HarmonicOscillator,
    discretize,
    doob_h_transform,
)

HALF = LyapunovSpec.const(0.5)


def chain(rows, tau=1.0):
    rows = np.asarray(rows, dtype=float)
    grid = GridDomain.uniform_closed(0.0, 1.0, rows.shape[0])
    return DiscreteOperator(rows, grid, tau, is_markov=True, quad_tol=1e-9)


def random_markov(rng, n):
    return chain(rng.dirichlet(np.ones(n), size=n))


def test_v_dobrushin_rank_one_and_identity():
    rows = np.tile(np.array([0.2, 0.3, 0.5]), (3, 1))
    P = chain(rows)
    assert v_dobrushin(P, HALF).beta == 0.0
    assert v_dobrushin(P, LyapunovSpec.poly(2)).beta == 0.0
    assert v_dobrushin(chain(np.eye(3)), HALF).beta == pytest.approx(1.0)


def test_v_dobrushin_two_state():
    P = chain([[0.9, 0.1], [0.2, 0.8]])
    rep = v_dobrushin(P, HALF)
    assert rep.beta == pytest.approx(0.7, abs=1e-14)
    assert rep.witness_pair == (0, 1)


def test_standard_dobrushin_equals_one_minus_overlap():
    rng = np.random.default_rng(0)
    for n in (3, 10, 40):
        P = random_markov(rng, n)
        beta = v_dobrushin(P, HALF).beta
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                overlap = np.minimum(P.matrix[i], P.matrix[j]).sum()
                worst = max(worst, 1 - overlap)
        assert beta == pytest.approx(worst, abs=1e-12)


def test_v_dobrushin_submultiplicative_markov_pairs():
    rng = np.random.default_rng(1)
    V = LyapunovSpec.poly(2)
    for _ in range(25):
        n = rng.integers(3, 12)
        A, B = random_markov(rng, n), random_markov(rng, n)
        bA = v_dobrushin(A, V).beta
        bB = v_dobrushin(B, V).beta
        bAB = v_dobrushin(A.compose(B), V).beta
        assert bAB <= bA * bB * (1 + 1e-10)


def test_local_minorization_cases():
    rows = np.tile(np.array([0.2, 0.3, 0.5]), (3, 1))
    P = chain(rows)
    assert local_minorization(P, HALF, 10.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        local_minorization(P, LyapunovSpec.poly(2), 0.5)  # below min V

    m = HarmonicOscillator()
    K = discretize(m, GridDomain.uniform_closed(-8, 8, 200), 1.0)
    # positive continuous density on compacts: alpha(r) > 0 already for the
    # raw sub-Markov rows
    assert local_minorization(K, LyapunovSpec.poly(2), 5.0) > 0
    h = FunctionVec(m.exact_h(K.grid.points), K.grid)
    Pm = doob_h_transform(K, h, m.exact_rho)
    alpha5 = local_minorization(Pm, LyapunovSpec.poly(2), 5.0)
    alpha9 = local_minorization(Pm, LyapunovSpec.poly(2), 9.0)
    assert alpha5 > 0
    assert alpha9 <= alpha5  # nonincreasing in r


def test_rescaled_lyapunov_formula():
    V = LyapunovSpec.poly(2)
    Vr, a = rescaled_lyapunov(0.5, 0.5, 0.5, 4.0, V)
    assert a == pytest.approx(0.25 * (0.5 / 1.75) * 0.5)
    # rescaled function: (1 + alpha V /((1+eps) r))/2 at x = 1 -> V = 2
    assert Vr.at(1.0) == pytest.approx(0.5 * (1 + (0.5 / (1.5 * 4.0)) * 2.0))
    # alpha(r) -> 0 forces the margin to 0
    _, a_small = rescaled_lyapunov(0.5, 0.5, 1e-9, 4.0, V)
    assert a_small < 1e-9
    with pytest.raises(ValueError):
        rescaled_lyapunov(0.5, 0.5, 0.5, 1.9, V)  # r <= r_eps = 2


def test_rescaled_lemma_on_engineered_chains():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(10, 50))
        eps = float(rng.uniform(0.2, 0.85))
        P, V, eps, r, alpha_r = build_pvc_chain(rng, n, eps)
        vals = V(P.grid.points)
        assert np.all(P.matrix @ vals <= eps * vals + 0.5 + 1e-10)
        assert 0 < alpha_r <= 1
        Vr, margin = rescaled_lyapunov(eps, 0.5, alpha_r, r, V)
        beta = v_dobrushin(P, Vr).beta
        assert beta <= 1 - margin + 1e-10


def test_foster_lyapunov_identity_fails_cleanly():
    cert = foster_lyapunov_verify(chain(np.eye(4)), HALF)
    assert not cert.ok
    assert "everywhere" in cert.reason
    with pytest.raises(ValueError):
        cert.validate(chain(np.eye(4)), HALF)


def test_foster_lyapunov_on_mehler():
    m = HarmonicOscillator()
    K = discretize(m, GridDomain.uniform_closed(-8, 8, 300), 1.0)
    V = LyapunovSpec.poly(4)
    cert = foster_lyapunov_verify(K, V)
    assert cert.ok
    cert.validate(K, V)
    assert cert.edge_decay_ok
    for eps, c, _ in cert.ladder:
        vals = V(K.grid.points)
        assert np.all(K.matrix @ vals <= eps * vals + c + 1e-10)


def test_foster_lyapunov_half_harmonic_bounded_theta():
    from semistab.kernels import HalfHarmonicOscillator

    hh = HalfHarmonicOscillator()
    K = discretize(hh, hh.default_grid(300), 1.0)
    V = LyapunovSpec.inv_plus_poly(2)
    cert = foster_lyapunov_verify(K, V)
    assert cert.ok
    # Q(V)/V <= c/V pointwise, i.e. V * theta uniformly bounded
    vals = V(K.grid.points)
    assert np.isfinite((vals * cert.theta.values).max())


def test_geometric_decay_trivial_cases():
    P = chain(np.tile(np.array([0.5, 0.5]), (2, 1)))
    g = P.grid
    mu = MeasureVec(np.array([1.0, 0.0]), g)
    eta = MeasureVec(np.array([0.0, 1.0]), g)
    same = geometric_decay_curve(P, HALF, mu, mu, 5)
    assert np.all(same.values == 0)
    curve = geometric_decay_curve(P, HALF, mu, eta, 5)
    assert curve.values[0] > 0
    assert np.all(curve.values[1:] == 0)


def test_geometric_decay_mehler_h_transform_gap():
    # ground-state transform of the oscillator kernel: spectral gap 1
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8, 8, 400)
    K = discretize(m, g, 1.0)
    h = FunctionVec(m.exact_h(g.points), g)
    P = doob_h_transform(K, h, m.exact_rho)
    i = int(np.argmin(np.abs(g.points + 2)))
    j = int(np.argmin(np.abs(g.points - 2)))
    mu, eta = MeasureVec.dirac(g, i), MeasureVec.dirac(g, j)
    curve = geometric_decay_curve(P, LyapunovSpec.poly(2), mu, eta, 12)
    assert curve.fitted_rate == pytest.approx(1.0, rel=0.10)


def test_geometric_decay_envelope_on_certified_chain():
    rng = np.random.default_rng(3)
    P, V, eps, r, alpha_r = build_pvc_chain(rng, 30, 0.5)
    g = P.grid
    mu, eta = MeasureVec.dirac(g, 0), MeasureVec.dirac(g, g.size - 1)
    curve = geometric_decay_curve(P, V, mu, eta, 40,
                                  certificate={"eps": eps, "alpha_r": alpha_r, "r": r})
    assert curve.envelope_ok


def test_decay_envelope_constant():
    assert decay_envelope_constant(0.5, 4.0, 0.5) == pytest.approx(1 + 2 * 4 * 1.5 / 0.5)


def test_nonexpansive_geometric_special_case():
    # phi(v) = (1 - eps) v reduces to the plain geometric drift
    rng = np.random.default_rng(4)
    P, V, eps, r, alpha_r = build_pvc_chain(rng, 25, 0.4)
    vals = V(P.grid.points)
    phi = lambda v: (1 - eps) * v

    # hypothesis P(V) <= V - phi(V) + c holds with c = 1/2 by construction
    assert np.all(P.matrix @ vals <= vals - phi(vals) + 0.5 + 1e-10)


def test_nonexpansive_rank_one():
    rows = np.tile(np.array([0.25, 0.25, 0.5]), (3, 1))
    P = chain(rows)
    V = LyapunovSpec.table(np.array([1.0, 2.0, 3.0]), P.grid)
    rep = nonexpansive_check(P, V, lambda v: np.sqrt(v), rho=1.0, r=1.5,
                             T=10, trials=10)
    assert rep.monotone_ok


def test_nonexpansive_on_certified_polynomial_chain():
    from semistab.subgeometric import build_certified_chain

    P, V, drift, c = build_certified_chain()
    rep = nonexpansive_check(P, V, drift.phi, rho=1.1, r=1.0, T=25, trials=50)
    assert rep.window_ok, rep.violated
    assert rep.monotone_ok
    assert rep.ok


def test_nonexpansive_overflowed_weights_are_a_numerical_failure():
    from semistab.subgeometric import build_certified_chain

    P, V, drift, c = build_certified_chain()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="norm weights are not finite"):
            nonexpansive_check(P, V, drift.phi, rho=1e308, r=1.0)


def test_nonexpansive_reports_empty_window():
    rows = np.tile(np.array([0.25, 0.25, 0.5]), (3, 1))
    P = chain(rows)
    V = LyapunovSpec.table(np.array([1.0, 2.0, 3.0]), P.grid)
    rep = nonexpansive_check(P, V, lambda v: np.sqrt(v), rho=1e-9, r=1.5,
                             T=5, trials=5)
    assert not rep.window_ok
    assert "2 alpha1" in rep.violated


def brute_pair_scan(K, w=None):
    """Double loop over i < j; a strictly larger value moves the witness."""
    best, pair = -math.inf, (0, 0)
    for i in range(K.shape[0]):
        for j in range(i + 1, K.shape[0]):
            diff = np.abs(K[i] - K[j])
            v = diff.sum() if w is None else (diff * w).sum() / (w[i] + w[j])
            if v > best:
                best, pair = float(v), (i, j)
    return max(best, 0.0), pair


@st.composite
def scan_inputs(draw):
    """Random square matrices, some with dyadic entries (exactly tied sums)
    and some with duplicated rows, plus positive weights."""
    n = draw(st.sampled_from([1, 2, 3, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        K = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n))
        w = rng.choice([0.5, 1.0, 2.0], size=n)
    else:
        K = rng.random((n, n))
        w = rng.uniform(0.5, 3.0, size=n)
    for _ in range(draw(st.integers(0, n))):
        src, dst = rng.integers(n, size=2)
        K[dst], w[dst] = K[src], w[src]
    return K, w


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scan_inputs(), st.booleans())
def test_pair_scan_matches_brute_force(inputs, weighted):
    K, w = inputs
    w = w if weighted else None
    value, pair = _pair_scan(K, w)
    ref_value, ref_pair = brute_pair_scan(K, w)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    assert pair == ref_pair


def test_pair_scan_exact_ties_take_the_smallest_index_pair():
    # every pair of point masses is at L1 distance 2 and weighted ratio 1
    K = np.eye(5)
    assert _pair_scan(K) == (2.0, (0, 1))
    assert _pair_scan(K, np.array([3.0, 0.5, 1.0, 2.0, 0.25])) == (1.0, (0, 1))
    # rows 1 and 3 equal: (1, 2) and (2, 3) tie at the maximum
    K = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert _pair_scan(K) == (2.0, (1, 2))


def test_one_state_scans():
    P = DiscreteOperator(np.array([[0.7]]), GridDomain.uniform_open(0.0, 1.0, 1),
                         1.0, quad_tol=1e-9)
    rep = v_dobrushin(P, HALF)
    assert (rep.beta, rep.witness_pair) == (0.0, (0, 0))
    P3 = chain(np.eye(3)[::-1])
    V = LyapunovSpec.table(np.array([1.0, 2.0, 3.0]), P3.grid)
    assert local_minorization(P3, V, 1.5) == 1.0  # sub-level set {state 0}


def test_nonexpansive_batched_trials_keep_the_per_trial_stream():
    # a permutation chain moves mass out to large V, so the norm rises
    P = chain(np.eye(3)[::-1])
    V = LyapunovSpec.table(np.array([1.0, 2.0, 3.0]), P.grid)
    rep = nonexpansive_check(P, V, np.sqrt, rho=1.0, r=1.5, T=6, trials=7, seed=3)
    rng = np.random.default_rng(3)
    weights = 1.0 + V(P.grid.points)
    worst = 0.0
    for _ in range(7):
        mu = rng.dirichlet(np.ones(3)) - rng.dirichlet(np.ones(3))
        prev = np.abs(mu) @ weights
        for _ in range(6):
            mu = mu @ P.matrix
            cur = np.abs(mu) @ weights
            if cur - prev > 1e-12 * max(prev, 1.0):
                worst = max(worst, cur - prev)
            prev = cur
    assert not rep.monotone_ok
    assert rep.worst_increase == pytest.approx(worst, rel=1e-12)
