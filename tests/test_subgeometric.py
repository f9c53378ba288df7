import math

import numpy as np
import pytest

from semistab.contraction import _minorization_levels
from semistab.core import MeasureVec
from semistab.subgeometric import (
    build_certified_chain,
    build_subgeo_chain,
    general_rate_bound,
    jensen_drift_check,
    ode_majorant,
    polynomial_rate_check,
    prototype_drift,
)


def test_prototype_constants():
    d = prototype_drift(0.5, 0.5, 1.0, 1.0)
    assert d.chi == pytest.approx(2.0)
    assert d.kappa2 == pytest.approx(0.75)
    # 1/chi = i - 1 for delta = (n-1)/n, upsilon = (i-1)/(n-1)
    for n, i in ((4, 2), (4, 3), (5, 4)):
        d = prototype_drift((n - 1) / n, (i - 1) / (n - 1), 1.0, 2.0)
        assert 1.0 / d.chi == pytest.approx(i - 1, rel=1e-12)
    # upsilon*delta -> 1 kills kappa2
    d = prototype_drift(0.999, 0.999, 1.0, 1.0)
    assert d.kappa2 < 3e-3
    with pytest.raises(ValueError):
        prototype_drift(1.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        prototype_drift(0.5, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        prototype_drift(0.5, 0.5, 1.0, 0.5)


def test_prototype_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = prototype_drift(
            rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
            rng.uniform(0.1, 3.0), rng.uniform(1.0, 4.0),
        )
        v = rng.uniform(1, 1e5, size=100)
        np.testing.assert_allclose(d.dphi1(v) * d.phi(v), d.phi2(v), rtol=1e-10)


def test_concavity_step():
    # phi1(v - u) <= phi1(v) - dphi1(v) u for 0 <= u <= v - 1
    rng = np.random.default_rng(1)
    d = prototype_drift(0.5, 0.5, 1.0, 1.5)
    for _ in range(200):
        v = rng.uniform(1.0, 100.0)
        u = rng.uniform(0.0, v - 1.0) if v > 1 else 0.0
        assert d.phi1(v - u) <= d.phi1(v) - d.dphi1(v) * u + 1e-12


def test_jensen_drift_on_canonical_chain():
    P, V, drift, c = build_subgeo_chain()
    rep = jensen_drift_check(P, V, drift, c)
    assert rep.ok
    assert rep.worst_hypothesis_gap <= 1e-10
    assert rep.worst_phi1_gap <= 1e-10
    # undersized c fails with the worst state reported
    bad = jensen_drift_check(P, V, drift, c=0.0)
    assert not bad.ok
    assert bad.worst_hypothesis_gap > 0


def test_ode_majorant_closed_form():
    # varsigma(v) = v^2: I(u) = 1/u - 1/u0, bound(t) = 1/(1/u0 + t)
    bounds = ode_majorant(1.0, lambda v: np.asarray(v) ** 2, 9)
    assert bounds[-1] == pytest.approx(0.1, abs=1e-8)
    ts = np.arange(1, 10)
    np.testing.assert_allclose(bounds, 1.0 / (1.0 + ts), atol=1e-8)
    assert np.all(np.diff(bounds) < 0)  # strictly decreasing
    # power form matches (u0^-chi + t chi)^(-1/chi)
    chi = 2.0
    bounds = ode_majorant(0.5, lambda v: np.asarray(v) ** (1 + chi), 5)
    ts = np.arange(1, 6)
    np.testing.assert_allclose(
        bounds, (0.5 ** -chi + ts * chi) ** (-1 / chi), atol=1e-8
    )
    with pytest.raises(ValueError):
        ode_majorant(1.0, lambda v: -np.asarray(v), 3)


@pytest.mark.parametrize("chi", [1.5, 2.0, 2.5])
def test_ode_majorant_newton_chain_is_accurate(chi):
    # each bound continues from the previous one by safeguarded Newton
    bounds = ode_majorant(1.0, lambda v: np.asarray(v) ** (1 + chi), 30)
    exact = (1.0 + chi * np.arange(1, 31)) ** (-1.0 / chi)
    assert np.max(np.abs(bounds / exact - 1.0)) <= 1e-12


def test_ode_majorant_floor():
    # varsigma(v) = v: the bound is e^-t down to the floor u0 2^-47, then stays there
    u0 = 3.0
    bounds = ode_majorant(u0, lambda v: np.asarray(v), 40)
    t = np.arange(1, 41)
    above = u0 * np.exp(-t) > u0 * 2.0 ** -47
    np.testing.assert_allclose(bounds[above], u0 * np.exp(-t[above]), rtol=1e-12)
    assert (bounds[~above] == u0 * 2.0 ** -47).all() and (~above).sum() == 8


def test_ode_majorant_dominates_admissible_sequences():
    rng = np.random.default_rng(2)
    chi = 2.0
    varsigma = lambda v: np.asarray(v) ** (1 + chi)
    T = 30
    bounds = ode_majorant(1.0, varsigma, T)
    for _ in range(500):
        u = rng.uniform(0.2, 1.0)
        seq = []
        for t in range(T):
            step = float(varsigma(u)) * (1.0 + rng.uniform(0, 0.5))
            u = max(u - step, u * 0.5 * rng.uniform(0, 1))
            # keep the admissibility u_{t+1} <= u_t - varsigma(u_t)
            u = min(u, seq[-1] - float(varsigma(seq[-1]))) if seq else u
            seq.append(u)
        seq = np.asarray(seq)
        # the bound is anchored at u_0 = 1 and any admissible sequence
        # starting at or below it must stay underneath
        assert np.all(seq <= bounds + 1e-12)


def test_general_rate_bound_closed_form():
    # psi(v) = v^2, rho = 1, iota = 1: psi_rho(v) = v^2/32, J(u) = 32(1/u - 1)
    rb = general_rate_bound(lambda v: v * v, 1.0, 1.0, 32.0)
    assert not rb.vacuous
    assert rb.value == pytest.approx(0.5, abs=1e-8)
    # decreasing in t and -> 0
    vals = [general_rate_bound(lambda v: v * v, 1.0, 1.0, t).value
            for t in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.05
    assert general_rate_bound(lambda v: v * v, 1.0, 1.0, -1.0).vacuous


def test_general_rate_bound_bisection_vs_closed_form():
    chi = 2.0
    rho, iota = 1.0, 1.0
    scale = rho * rho / (1 + rho) ** 2
    for t in (5.0, 50.0, 500.0):
        rb = general_rate_bound(lambda v: v ** (1 + chi), rho, iota, t)
        # J(u) = (1+rho)/scale^(1+chi) * (u^-chi - iota^-chi)/chi
        pref = (1 + rho) / scale ** (1 + chi) / chi
        exact = (t / pref + iota ** -chi) ** (-1 / chi)
        assert rb.value == pytest.approx(exact, rel=1e-8)


def test_jensen_norm_inequality():
    # |mu|_{phi2(V)} >= kappa2 |mu|_{phi1(V)}^{1+chi} / |mu|_V^chi
    rng = np.random.default_rng(3)
    d = prototype_drift(0.5, 0.5, 1.0, 1.0)
    v = rng.uniform(1, 50, size=100)
    for _ in range(100):
        mu = rng.normal(size=100)
        nv = np.abs(mu) @ v
        n1 = np.abs(mu) @ d.phi1(v)
        n2 = np.abs(mu) @ d.phi2(v)
        assert n2 >= d.kappa2 * n1 ** (1 + d.chi) / nv ** d.chi - 1e-10


def test_polynomial_rate_zero_measure():
    P, V, drift, c = build_subgeo_chain(n=50)
    mu = MeasureVec(np.zeros(50), P.grid)
    rep = polynomial_rate_check(P, V, drift, 1.0, mu, 20)
    assert np.all(rep.values == 0)


def test_subgeo_chain_bias_stays_a_probability_up_to_n_256():
    assert build_subgeo_chain(n=256)[0].matrix.min() >= 0.0
    with pytest.raises(ValueError, match="n = 257 too large"):
        build_subgeo_chain(n=257)


def test_polynomial_rate_canonical_chain_window_empty():
    # local steps keep the minorization radius tiny: curve only, no claim
    P, V, drift, c = build_subgeo_chain()
    nu = np.zeros(P.grid.size)
    nu[149], nu[0] = 1.0, -1.0
    rep = polynomial_rate_check(P, V, drift, 1.0, MeasureVec(nu, P.grid), 50)
    assert not rep.certified
    assert rep.assertion_ok is None
    assert "window" in rep.note or "transfer" in rep.note


def test_polynomial_rate_certified_chain_envelope():
    P, V, drift, c = build_certified_chain()
    n = P.grid.size
    nu = np.zeros(n)
    nu[-1], nu[0] = 1.0, -1.0
    rep = polynomial_rate_check(P, V, drift, 0.9, MeasureVec(nu, P.grid), 200)
    assert rep.certified
    assert rep.assertion_ok
    assert np.all(rep.values <= rep.envelope + 1e-12)
    assert np.all(np.diff(rep.envelope) < 0)


def test_tv_decay_slope_canonical_chain():
    P, V, drift, c = build_subgeo_chain()
    n = P.grid.size
    nu = np.zeros(n)
    nu[149], nu[0] = 1.0, -1.0
    tvs = []
    for t in range(1, 501):
        nu = nu @ P.matrix
        tvs.append(0.5 * np.abs(nu).sum())
    ts = np.arange(1, 501)
    tvs = np.asarray(tvs)
    sel = (ts >= 50) & (tvs > 1e-13)
    slope = np.polyfit(np.log(ts[sel]), np.log(tvs[sel]), 1)[0]
    assert slope <= -0.4


def _eight_scan_window(P, V, drift, rho):
    # the radius search as one minorization scan per sub-level set
    vals = V(P.grid.points)
    c = max(float(np.max(P.matrix @ vals - vals + drift.phi(vals))), 0.0)
    c1 = c * float(drift.dphi1(1.0))
    phi2v = drift.phi2(vals)
    best = None
    for q in (1.0, 0.9, 0.75, 0.5):
        r = float(np.quantile(phi2v, q))
        [a1] = _minorization_levels(P.matrix, [drift.phi(vals) <= r])
        [a2] = _minorization_levels(P.matrix, [phi2v <= r])
        if a1 is None or a2 is None or a1 <= 0 or a2 <= 0:
            continue
        lo = 2.0 * max(a1, a2) / r
        hi = min(a1, a2) / min(c1, c) if min(c1, c) > 0 else math.inf
        if rho > lo and rho <= hi:
            delta_rho = drift.kappa2 * (rho - lo)
            if best is None or delta_rho > best[0]:
                best = (delta_rho, r, a1, a2)
    return best


@pytest.mark.parametrize("build", [build_certified_chain, build_subgeo_chain])
@pytest.mark.parametrize("rho", [0.3, 0.9, 0.95, 2.0])
def test_polynomial_rate_window_keeps_the_eight_scan_bits(build, rho):
    P, V, drift, c = build()
    n = P.grid.size
    nu = np.zeros(n)
    nu[-1], nu[0] = 1.0, -1.0
    rep = polynomial_rate_check(P, V, drift, rho, MeasureVec(nu, P.grid), 30)
    best = _eight_scan_window(P, V, drift, rho)
    if best is None:
        assert not rep.certified and (rep.r, rep.alphas) == (None, ())
    else:
        delta_rho, r, a1, a2 = best
        chi = drift.chi
        omega = rho ** chi * delta_rho / (1 + rho) ** (1 + chi)
        norm0 = float(np.abs(nu) @ (1.0 + rho * V(P.grid.points)))
        envelope = ((chi * omega) ** (-1.0 / chi)
                    * np.arange(1, 31, dtype=float) ** (-1.0 / chi) * norm0)
        assert rep.certified and (rep.r, rep.alphas) == (r, (a1, a2))
        assert np.array_equal(rep.envelope, envelope)
