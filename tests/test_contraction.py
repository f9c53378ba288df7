import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from semistab.core import FunctionVec, GridDomain, LyapunovSpec, MeasureVec
import semistab.contraction as contraction
from semistab.contraction import (
    _minorization_levels,
    _pair_scan,
    _sorted_quantile,
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
    GaussOU,
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


def _row_loop_weighted_scan(K, w):
    # the weighted scan as one division per row of the condensed distances
    n = K.shape[0]
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    d = pdist(K, "minkowski", p=1, w=w)
    for i, (lo, hi) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
        d[lo:hi] /= w[i] + w[i + 1:]
    k = int(np.argmax(d))
    i = int(np.searchsorted(ends, k, side="right"))
    return float(d[k]), (i, int(k - ends[i] + n))


@pytest.mark.parametrize("n", [2, 3, 39, 700])
@pytest.mark.parametrize("dyadic", [False, True])
def test_weighted_pair_scan_keeps_the_row_loop_bits(n, dyadic):
    # n = 700 divides in several row blocks; dyadic entries and weights make
    # exact ties, which must keep the smallest-index witness
    rng = np.random.default_rng(n)
    if dyadic:
        K = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n))
        w = rng.choice([0.5, 1.0, 2.0], size=n)
    else:
        K = rng.dirichlet(np.ones(n), size=n)
        w = rng.uniform(0.5, 40.0, size=n)
    assert _pair_scan(K, w) == _row_loop_weighted_scan(K, w)


def test_weighted_pair_scan_memory_is_the_condensed_array():
    # the divisions' temporaries are bounded by the row blocks, not n(n-1)/2
    n = 2000
    rng = np.random.default_rng(0)
    K = rng.random((n, n))
    w = rng.uniform(0.5, 3.0, size=n)
    tracemalloc.start()
    try:
        _pair_scan(K, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (n - 1) // 2 + 2 * 2**20


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


def _one_pdist_scan(K, w=None):
    # the scan as one condensed pdist over all rows and one argmax
    i, j = np.triu_indices(K.shape[0], 1)
    if w is None:
        d = pdist(K, "cityblock")
    else:
        d = pdist(K, "minkowski", p=1, w=w) / (w[i] + w[j])
    k = int(np.argmax(d))
    return float(d[k]), (int(i[k]), int(j[k]))


def _scan_matrix(n, dyadic):
    rng = np.random.default_rng(n + dyadic)
    if dyadic:
        return (rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n)),
                rng.choice([0.5, 1.0, 2.0], size=n))
    return rng.dirichlet(np.ones(n), size=n), rng.uniform(0.5, 40.0, size=n)


# one pdist, then cells past it: the last one ragged, an exact fit, and a
# last row over (folded into the cell before it)
@pytest.mark.parametrize("n", [100, 129, 200, 256, 257, 300])
@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_tiled_pair_scan_keeps_the_one_pdist_bits(n, dyadic, weighted):
    K, w = _scan_matrix(n, dyadic)
    w = w if weighted else None
    assert _pair_scan(K, w) == _one_pdist_scan(K, w)


def test_cells_cover_each_pair_once_and_every_diagonal_cell_holds_a_pair():
    # a diagonal cell's pairs are its cached triangle, any other cell's its
    # rectangle, entry k at divmod(k, width); one row has no pair and no cell
    assert contraction._cuts(1, contraction._CELL) == []
    for n in range(2, 530):
        pairs = np.zeros((n, n), dtype=int)
        for _, r0, r1, c0, c1 in zip(*contraction._bounds(np.ones((n, 1)), None)):
            if r0 == c0:
                assert 2 <= r1 - r0 <= contraction._CELL + 1, (n, r0, r1)
                i, j = contraction._triangle(r1 - r0)
            else:
                i, j = np.divmod(np.arange((r1 - r0) * (c1 - c0)), c1 - c0)
            np.add.at(pairs, (r0 + i, c0 + j), 1)
        assert (pairs == np.triu(np.ones((n, n), dtype=int), 1)).all(), n


def test_cached_triangles_are_read_only():
    i, j = contraction._triangle(5)
    assert contraction._triangle(5)[0] is i  # one array per size
    for a in (i, j):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def _two_tied_pairs(n, p, q):
    # rows p and q are disjoint halves of columns {0, 1, 2, 3}, each of which
    # overlaps both rows of the other pair: only p and q reach distance 2
    K = np.full((n, n), 1.0 / n)
    for (a, b), (ca, cb) in ((p, ((0, 2), (1, 3))), (q, ((0, 1), (2, 3)))):
        for row, cols in ((a, ca), (b, cb)):
            K[row] = 0.0
            K[row, list(cols)] = 0.5
    return K


@pytest.mark.parametrize("p, q", [
    ((5, 200), (10, 20)),     # the first pair sits in a later cell
    ((5, 200), (130, 131)),   # the later pair sits in a later cell
    ((3, 590), (300, 599)),
])
def test_tied_pairs_across_tiles_take_the_smallest_index_pair(p, q):
    assert _pair_scan(np.eye(600)) == (2.0, (0, 1))
    assert _pair_scan(np.eye(600), np.ones(600)) == (1.0, (0, 1))
    K = _two_tied_pairs(600, p, q)
    assert _pair_scan(K) == (2.0, min(p, q)) == _one_pdist_scan(K)
    w = np.ones(600)
    assert _pair_scan(K, w) == (1.0, min(p, q)) == _one_pdist_scan(K, w)


@pytest.mark.parametrize("weighted", [False, True])
def test_pair_scan_memory_is_one_tile(weighted):
    # the condensed n(n-1)/2 array of one pdist would be 16 MB at n = 2000;
    # the cell bounds and one cell at a time stay below a sixteenth of it
    n = 2000
    rng = np.random.default_rng(0)
    K = rng.random((n, n))
    w = rng.uniform(0.5, 3.0, size=n) if weighted else None
    _pair_scan(K[:300, :300], None if w is None else w[:300])  # imports first
    tracemalloc.start()
    try:
        _pair_scan(K, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (n - 1) // 2 // 16


def _banded(n, dyadic):
    """Rows of a Gaussian kernel a twelfth of the grid wide, so that rows far
    apart barely overlap and the bound rules out cells near the diagonal.
    Dyadic entries (multiples of 1/8, rows not normalized) make exact ties;
    three rows are copies of others.  Positive weights to match."""
    rng = np.random.default_rng([n, dyadic])
    x = np.arange(n) / max(1.0, n / 12)
    K = np.exp(-0.5 * np.subtract.outer(x, x) ** 2)
    if dyadic:
        K = np.round(K * 8) / 8
        w = rng.choice([0.5, 1.0, 2.0], size=n)
    else:
        K /= K.sum(axis=1, keepdims=True)
        w = rng.uniform(0.5, 3.0, size=n)
    for src, dst in rng.integers(n, size=(3, 2)):
        K[dst], w[dst] = K[src], w[src]
    return K, w


def _scanned(monkeypatch):
    """Counts, as a scan runs, the pairs that its pdist and cdist calls
    compute and the number of those calls."""
    import scipy.spatial.distance as distance

    record = {"pairs": 0, "calls": 0}
    cdist, pdist = distance.cdist, distance.pdist

    def counting_cdist(XA, XB, **kw):
        record["pairs"] += len(XA) * len(XB)
        record["calls"] += 1
        return cdist(XA, XB, **kw)

    def counting_pdist(X, **kw):
        record["pairs"] += len(X) * (len(X) - 1) // 2
        record["calls"] += 1
        return pdist(X, **kw)

    monkeypatch.setattr(distance, "cdist", counting_cdist)
    monkeypatch.setattr(distance, "pdist", counting_pdist)
    return record


def _contract_set(model):
    # the 560 rows {V <= r} that `contract` scans for alpha(r) on the model
    # at 700 grid points on [-8, 8], r the 0.8 quantile of V = 1 + x^2
    P = discretize(model, GridDomain.uniform_closed(-8.0, 8.0, 700), 1.0)
    vals = LyapunovSpec.poly(2)(P.grid.points)
    K = P.matrix[vals <= np.quantile(vals, 0.8)]
    assert K.shape[0] == 560
    return K


def test_pair_scan_skips_tiles_on_the_harmonic_contract_set(monkeypatch):
    K = _contract_set(HarmonicOscillator())
    n = K.shape[0]
    record = _scanned(monkeypatch)
    assert _pair_scan(K) == _one_pdist_scan(K)
    assert record["pairs"] < n * (n - 1) // 2 // 4


def test_a_scan_whose_first_cell_holds_the_maximum_computes_that_cell_alone(monkeypatch):
    # the `contract` rows on gauss_ou: the cell of largest bound holds the
    # maximum, and the bound rules out every other cell
    K = _contract_set(GaussOU())
    record = _scanned(monkeypatch)
    assert _pair_scan(K) == _one_pdist_scan(K)
    assert record["pairs"] == 16 * 16  # 512 when a cell was computed twice
    assert record["calls"] == 1


def _visits(monkeypatch):
    """The cells (bound, r0, r1, c0, c1) that scans take from `_bounds`, in
    the order taken; a scan that stops takes the cell it stops at last."""
    cells, bounds = [], contraction._bounds

    def recording_bounds(K, weights):
        bound, *edges = bounds(K, weights)

        def visit():
            for k, value in enumerate(bound):
                cells.append((value, *(int(e[k]) for e in edges)))
                yield value
        return (visit(), *edges)

    monkeypatch.setattr(contraction, "_bounds", recording_bounds)
    return cells


def _computed(cells, best):
    # the cells a scan computes of those it takes: all but a last one whose
    # bound is below the maximum it found
    return cells[:-1] if cells and cells[-1][0] < best else cells


def _pairs_of(cell):
    _, r0, r1, c0, c1 = cell
    return (r1 - r0) * (r1 - r0 - 1) // 2 if r0 == c0 else (r1 - r0) * (c1 - c0)


@pytest.mark.parametrize("dyadic", [False, True])
def test_every_pair_is_scanned_at_most_once(monkeypatch, dyadic):
    # the cells computed never overlap, and they are all the scan computes
    n = 700
    K, _ = _banded(n, dyadic)
    cells = _visits(monkeypatch)
    record = _scanned(monkeypatch)
    best, pair = _pair_scan(K)
    assert (best, pair) == _one_pdist_scan(K)
    count = np.zeros((n, n), int)
    for _, r0, r1, c0, c1 in _computed(cells, best):
        block = count[r0:r1, c0:c1]
        block += np.triu(np.ones_like(block), 1) if r0 == c0 else 1
    assert count.max() == 1 and count.sum() == record["pairs"]


@pytest.mark.parametrize("case", ["harmonic", "banded", "banded-weighted",
                                  "banded-dyadic", "banded-dyadic-weighted"])
def test_a_bounded_scan_computes_exactly_the_cells_whose_bound_reaches_the_maximum(
        monkeypatch, case):
    # best-first order: every cell whose bound is at least the maximum is
    # computed, and the scan stops at the first cell whose bound is below it
    if case == "harmonic":
        K, w = _contract_set(HarmonicOscillator()), None
    else:
        K, w = _banded(700, "dyadic" in case)
        w = w if "weighted" in case else None
    bound, *edges = contraction._bounds(K, w)
    best, _ = _one_pdist_scan(K, w)
    reach = [(b, *(int(e[k]) for e in edges)) for k, b in enumerate(bound) if b >= best]
    cells = _visits(monkeypatch)
    record = _scanned(monkeypatch)
    assert _pair_scan(K, w) == _one_pdist_scan(K, w)
    assert _computed(cells, best) == reach
    assert cells[-1][0] < best  # the scan stopped
    assert record["pairs"] == sum(map(_pairs_of, reach))
    if case == "harmonic":
        assert record["pairs"] == 12800


def test_a_cell_whose_bound_equals_the_best_is_not_ruled_out(monkeypatch):
    # the stop is strict: with the witness's cell first and every other
    # cell's bound equal to the maximum, each cell is computed; one step
    # below the maximum (a bound still, as the maximum is attained once),
    # only the witness's cell is
    n = 300
    K, _ = _banded(n, False)
    best, (i, j) = _one_pdist_scan(K)
    bound, r0, r1, c0, c1 = contraction._bounds(K, None)
    first = (r0 <= i) & (i < r1) & (c0 <= j) & (j < c1)
    order = np.argsort(~first, kind="stable")
    edges = [e[order] for e in (r0, r1, c0, c1)]
    record = _scanned(monkeypatch)
    for others, pairs in ((best, n * (n - 1) // 2),
                          (np.nextafter(best, 0), _pairs_of((0, *(int(e[0]) for e in edges))))):
        fake = np.where(first[order], np.inf, others)
        monkeypatch.setattr(contraction, "_bounds", lambda K, w: (fake, *edges))
        record["pairs"] = 0
        assert _pair_scan(K) == (best, (i, j))
        assert record["pairs"] == pairs


# sizes from one row to several 128-row spans: cell edges, the one-pdist
# limit, an exact fit, and a last row over
SCAN_SIZES = [1, 2, 3, 7, 16, 17, 33, 39, 100, 127, 128, 129, 200, 256, 257, 300, 700]


@pytest.mark.parametrize("n", SCAN_SIZES)
@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_pruned_pair_scan_keeps_the_one_pdist_bits(monkeypatch, n, dyadic, weighted):
    K, w = _banded(n, dyadic)
    w = w if weighted else None
    record = _scanned(monkeypatch)
    assert _pair_scan(K, w) == (_one_pdist_scan(K, w) if n > 1 else (0.0, (0, 0)))
    if n == 700:  # the bound rules out part of the largest scan
        assert record["pairs"] < n * (n - 1) // 2


@pytest.mark.parametrize("n", [n for n in SCAN_SIZES if n > 1])
@pytest.mark.parametrize("matrix", [_banded, _scan_matrix])
@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_every_pair_value_is_within_its_cell_bound(n, matrix, dyadic, weighted):
    # the rounding slack covers the computed value of every pair, exact ties
    # and duplicated rows included, not just the maximum
    K, w = matrix(n, dyadic)
    w = w if weighted else None
    bounds = np.full((n, n), np.nan)
    for bound, r0, r1, c0, c1 in zip(*contraction._bounds(K, w)):
        bounds[r0:r1, c0:c1] = bound
    i, j = np.triu_indices(n, 1)
    if w is None:
        d = pdist(K, "cityblock")
    else:
        d = pdist(K, "minkowski", p=1, w=w) / (w[i] + w[j])
    assert (d <= bounds[i, j]).all()


def test_a_negative_entry_is_rejected_by_the_bound():
    # the slack needs K >= 0: a scan with a bound reads the sign from the
    # cells' column minima
    K, w = _banded(300, False)
    K[200, 7] = -1e-300
    for weights in (None, w):
        with pytest.raises(ValueError, match="K >= 0"):
            _pair_scan(K, weights)
    with pytest.raises(ValueError, match="K >= 0"):
        _minorization_levels(K, [np.arange(300) < 150, np.arange(300) >= 0])


def test_pruned_weighted_scan_on_the_harmonic_h_transform(monkeypatch):
    # the V-Dobrushin scan of the Doob h-transform of the harmonic model at
    # 700 points on [-8, 8], V = 1 + x^2: weighted pruning on a model operator
    m = HarmonicOscillator()
    g = GridDomain.uniform_closed(-8.0, 8.0, 700)
    P = doob_h_transform(discretize(m, g, 1.0), FunctionVec(m.exact_h(g.points), g),
                         m.exact_rho)
    K, vals = P.matrix, LyapunovSpec.poly(2)(g.points)
    n = g.size
    record = _scanned(monkeypatch)
    rep = v_dobrushin(P, LyapunovSpec.poly(2))
    assert record["pairs"] < n * (n - 1) // 2
    best, pair = _one_pdist_scan(K, vals)
    assert rep.witness_pair == pair and rep.beta == pytest.approx(best, rel=1e-12, abs=0)
    assert _pair_scan(K, vals) == (best, pair)


def _row_set_scan_keeps_the_one_pdist_bits(K, w, m):
    # the scan of the rows of mask m over every column, as a minorization
    # level scans them, or with weights w over the rows and columns of m, as
    # the V-Dobrushin scan of the chain restricted to m reads them
    rows = np.flatnonzero(m)
    K, w = (K[rows], None) if w is None else (K[np.ix_(rows, rows)], w[rows])
    assert _pair_scan(K, w) == (_one_pdist_scan(K, w) if len(rows) > 1 else (0.0, (0, 0)))


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_pruned_row_sets_scan_like_their_own_rows(monkeypatch, dyadic, weighted):
    n = 700
    K, w = _banded(n, dyadic)
    w = w if weighted else None
    idx = np.arange(n)
    masks = [idx < n // 3, idx < n // 2, idx >= 0,            # nested
             idx % 2 == 0, (idx > n // 4) & (idx % 3 > 0),    # not nested
             idx < 0, idx == n - 1]                           # empty, one row
    record = _scanned(monkeypatch)
    levels = _minorization_levels(K, masks)
    assert record["pairs"] < n * (n - 1) // 2  # the bound prunes the scans
    assert levels[5:] == [None, 1.0]
    for m, level in zip(masks[:5], levels):
        assert level == 1.0 - 0.5 * _one_pdist_scan(K[m])[0]
        _row_set_scan_keeps_the_one_pdist_bits(K, w, m)


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_nested_row_sets_share_one_bound(monkeypatch, dyadic, weighted):
    # the eight nested sub-level sets that polynomial_rate_check passes (the
    # largest is every row): each is scanned on its own rows or takes the
    # maximum of a larger set that holds its witness pair, the bound rules
    # out pairs of every scan, and each level is that of one pdist over the
    # set's own rows
    n = 700
    K, w = _banded(n, dyadic)
    w = w if weighted else None
    idx = np.arange(n)
    masks = [idx < n * k // 8 for k in range(1, 9)]
    record = _scanned(monkeypatch)
    levels = _minorization_levels(K, masks)
    assert record["pairs"] < n * (n - 1) // 2
    assert levels == [1.0 - 0.5 * _one_pdist_scan(K[m])[0] for m in masks]
    for m in masks:
        _row_set_scan_keeps_the_one_pdist_bits(K, w, m)


def test_local_minorization_on_one_sub_level_set_is_bounded(monkeypatch):
    # local_minorization scans the 560 rows of its one mask, a scan that
    # the bound prunes
    P = discretize(HarmonicOscillator(), GridDomain.uniform_closed(-8.0, 8.0, 700), 1.0)
    V = LyapunovSpec.poly(2)
    vals = V(P.grid.points)
    r = float(np.quantile(vals, 0.8))
    K = P.matrix[vals <= r]
    n = K.shape[0]
    assert n == 560
    record = _scanned(monkeypatch)
    assert local_minorization(P, V, r) == 1.0 - 0.5 * _one_pdist_scan(K)[0]
    assert record["pairs"] < n * (n - 1) // 2


@pytest.mark.parametrize("p, q", [
    ((5, 200), (10, 20)),     # the first pair sits in a later cell
    ((5, 200), (130, 131)),   # the later pair sits in a later cell
    ((3, 590), (300, 599)),
    ((300, 599), (140, 450)),  # both pairs away from the first cell
])
@pytest.mark.parametrize("weighted", [False, True])
def test_tied_pairs_across_skipped_tiles_take_the_smallest_index_pair(monkeypatch, p, q,
                                                                      weighted):
    # the rows other than p and q are equal, so the cells that hold neither
    # pair are skipped, and each tied pair's cell is computed
    K = _two_tied_pairs(600, p, q)
    w = np.ones(600) if weighted else None
    record = _scanned(monkeypatch)
    assert _pair_scan(K, w) == (1.0 if weighted else 2.0, min(p, q)) == _one_pdist_scan(K, w)
    assert record["pairs"] < 600 * 599 // 2


@pytest.mark.parametrize("weighted", [False, True])
def test_pruned_pair_scan_memory_is_one_tile(monkeypatch, weighted):
    # the bound takes a few rows of n entries and a few arrays of cell
    # bounds: the scan stays within the bound of
    # test_pair_scan_memory_is_one_tile while it skips most pairs
    n = 2000
    K, w = _banded(n, False)
    w = w if weighted else None
    _pair_scan(K[:300, :300], None if w is None else w[:300])  # imports first
    record = _scanned(monkeypatch)
    tracemalloc.start()
    try:
        _pair_scan(K, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["pairs"] < n * (n - 1) // 2
    assert peak <= 8 * n * (n - 1) // 2 // 16


@pytest.mark.parametrize("n", [20, 300])
def test_minorization_levels_equal_the_scans_one_mask_at_a_time(n):
    rng = np.random.default_rng(n)
    K = rng.dirichlet(np.ones(n), size=n)
    idx = np.arange(n)
    masks = [idx < n // 3, idx < n // 2, idx < n,         # nested
             idx % 2 == 0, (idx > n // 4) & (idx % 3 > 0),  # not nested
             idx < 0,                                       # empty
             idx == n - 1]                                  # one row
    levels = _minorization_levels(K, masks)
    assert levels[5] is None
    assert levels[6] == 1.0
    for m, level in zip(masks[:5], levels):
        assert level == 1.0 - 0.5 * _one_pdist_scan(K[m])[0]
    assert _minorization_levels(K, [idx < 0, idx == 3]) == [None, 1.0]


def _scan_rows(monkeypatch):
    """The number of rows of each `_pair_scan` call, in call order."""
    rows, scan = [], contraction._pair_scan

    def recording_scan(K, weights=None):
        rows.append(K.shape[0])
        return scan(K, weights)

    monkeypatch.setattr(contraction, "_pair_scan", recording_scan)
    return rows


def test_a_row_set_inside_a_scanned_set_that_holds_its_witness_takes_its_maximum(monkeypatch):
    # the eight sub-level sets of phi(V) and phi2(V) that polynomial_rate_check
    # builds on the canonical chain: the 180-, 150- and 100-row sets hold the
    # witness of the 200-row set, and the second 7-row set is the first
    from semistab.subgeometric import build_subgeo_chain

    P, V, drift, c = build_subgeo_chain()
    K, vals = P.matrix, V(P.grid.points)
    phiv, phi2v = drift.phi(vals), drift.phi2(vals)
    radii = [float(np.quantile(phi2v, q)) for q in (1.0, 0.9, 0.75, 0.5)]
    masks = [f <= r for r in radii for f in (phiv, phi2v)]
    assert [int(m.sum()) for m in masks] == [7, 200, 7, 180, 6, 150, 5, 100]
    assert (masks[0] == masks[2]).all()
    rows = _scan_rows(monkeypatch)
    levels = _minorization_levels(K, masks)
    assert rows == [200, 7, 6, 5]
    assert levels == [1.0 - 0.5 * _one_pdist_scan(K[m])[0] for m in masks]


def test_a_row_set_is_scanned_unless_a_scanned_set_holds_it_and_its_witness(monkeypatch):
    n = 40
    K, _ = _scan_matrix(n, False)
    idx = np.arange(n)
    big = idx < 30
    _, (i, j) = _one_pdist_scan(K[big])  # rows of K, as big is its first rows
    pair = np.isin(idx, [i, j])
    masks = [pair | (idx < 5),       # inside big, with its witness: not scanned
             big, big.copy(),        # repeated: scanned once
             big & (idx != i),       # inside big, without its witness
             pair | (idx >= 30)]     # not inside a scanned set, with big's witness
    rows = _scan_rows(monkeypatch)
    levels = _minorization_levels(K, masks)
    assert rows == [30, 29, 12]
    assert levels == [1.0 - 0.5 * _one_pdist_scan(K[m])[0] for m in masks]
    assert levels[0] == levels[1]


@pytest.mark.parametrize("n", [7, 300])
@pytest.mark.parametrize("dyadic", [False, True])
def test_row_sets_scan_like_their_own_rows(n, dyadic):
    # each set's level is that of one pdist over its rows, and the weighted
    # scan of its rows keeps that pdist's maximum and witness, named in the
    # rows of K
    K, w = _scan_matrix(n, dyadic)
    idx = np.arange(n)
    masks = [idx >= 0, idx % 2 == 1, idx > n // 2, idx == 3, idx < 0]
    levels = _minorization_levels(K, masks)
    for m, level in zip(masks[:3], levels):
        assert level == 1.0 - 0.5 * _one_pdist_scan(K[m])[0]
        _row_set_scan_keeps_the_one_pdist_bits(K, w, m)
    assert levels[3:] == [1.0, None]  # no pair in the set


@pytest.mark.parametrize("rows", [129, 257])
def test_scans_of_a_last_row_over_keep_the_one_pdist_bits(rows):
    # 129 and 257 rows leave one row past the last full cell
    n = rows + 32
    rng = np.random.default_rng(rows)
    P = chain(rng.dirichlet(np.ones(n), size=n))
    V = LyapunovSpec.poly(2)  # increasing on [0, 1]
    vals = V(P.grid.points)
    r = float(vals[rows - 1])
    mask = vals <= r
    assert mask.sum() == rows
    expected = 1.0 - 0.5 * _one_pdist_scan(P.matrix[mask])[0]
    assert local_minorization(P, V, r) == expected
    assert _minorization_levels(P.matrix, [mask, ~mask])[0] == expected
    Q = chain(rng.dirichlet(np.ones(rows), size=rows))
    w = V(Q.grid.points)
    best, pair = _one_pdist_scan(Q.matrix, w)
    rep = v_dobrushin(Q, V)
    assert rep.witness_pair == pair
    assert rep.beta == pytest.approx(best, rel=1e-12)


def test_sorted_quantile_is_numpys_linear_quantile():
    rng = np.random.default_rng(7)
    for n in range(2, 2001):
        v = np.sort(rng.uniform(0.5, 4.0 * rng.uniform(1.0, 10.0), size=n))
        assert _sorted_quantile(v, 0.8) == float(np.quantile(v, 0.8)), n


def test_foster_lyapunov_fallback_rung():
    # P(V)/V < 1 at one point in 20, so its 0.5, 0.25 and 0.1 quantiles are
    # all above 1 and the ladder's one rung sits halfway from its minimum to 1
    n = 20
    row = np.full(n, 0.05 / n)
    row[-1] += 0.95
    P = chain(np.tile(row, (n, 1)))
    vals = np.ones(n)
    vals[-1] = 10.0
    V = LyapunovSpec.table(vals, P.grid)
    cert = foster_lyapunov_verify(P, V)
    theta = cert.theta.values
    assert (theta < 1).sum() == 1
    assert cert.ok and cert.alpha_r == 1.0
    assert cert.ladder == ((0.5 * (theta.min() + 1.0), theta[0], n - 1),)
    cert.validate(P, V)


def test_foster_lyapunov_fallback_rung_above_every_ratio():
    # P(V)/V is 0 on three zero rows and 0.3 on the last: every quantile
    # rung is 0, and no ratio reaches the fallback rung 1/2, so c = 0
    rows = np.zeros((4, 4))
    rows[3, [0, 1, 3]] = 0.1
    P = DiscreteOperator(rows, GridDomain.uniform_closed(0.0, 1.0, 4), 1.0)
    cert = foster_lyapunov_verify(P, LyapunovSpec.const(1.0))
    assert cert.ok and cert.ladder == ((0.5, 0.0, 0),)


def test_foster_lyapunov_without_overlap_reports_alpha_zero():
    # the three rows of {V <= r} sit on distinct states
    P = chain([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
    V = LyapunovSpec.table([1.0, 1.0, 1.0, 10.0], P.grid)
    cert = foster_lyapunov_verify(P, V)
    assert not cert.ok and cert.alpha_r == 0.0 and cert.r == pytest.approx(4.6)
    assert cert.reason.startswith("alpha(r) = 0 at r = 4.6: two rows started in")
    with pytest.raises(ValueError, match="failure report"):
        cert.validate(P, V)
