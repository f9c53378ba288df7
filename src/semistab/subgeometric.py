"""Subexponential drift verification and polynomial-rate envelopes.

The drift prototype is phi(v) = kappa0 v^delta paired with the concave
companion phi1(v) = kappa1 v^(1 - upsilon delta); the induced exponent is
chi = (1 - delta)/(upsilon delta) and rates decay like t^(-1/chi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .contraction import _drift_constant, _minorization_levels, _norm_path
from .core import GridDomain, LyapunovSpec, MeasureVec
from .kernels import DiscreteOperator

__all__ = [
    "SubGeoDrift",
    "prototype_drift",
    "JensenReport",
    "jensen_drift_check",
    "ode_majorant",
    "RateBound",
    "general_rate_bound",
    "RateReport",
    "polynomial_rate_check",
    "build_subgeo_chain",
    "build_certified_chain",
]


@dataclass(frozen=True)
class SubGeoDrift:
    delta: float
    upsilon: float
    kappa0: float
    kappa1: float

    def __post_init__(self):
        if not 0 < self.delta < 1 or not 0 < self.upsilon < 1:
            raise ValueError("delta and upsilon must lie in (0, 1)")
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if self.kappa1 < 1:
            raise ValueError("kappa1 must be >= 1")

    @property
    def chi(self) -> float:
        return (1 - self.delta) / (self.upsilon * self.delta)

    @property
    def kappa2(self) -> float:
        return self.kappa0 * self.kappa1 ** (-self.chi) * (1 - self.upsilon * self.delta)

    def phi(self, v):
        return self.kappa0 * np.asarray(v, dtype=float) ** self.delta

    def phi1(self, v):
        return self.kappa1 * np.asarray(v, dtype=float) ** (1 - self.upsilon * self.delta)

    def dphi1(self, v):
        e = 1 - self.upsilon * self.delta
        return self.kappa1 * e * np.asarray(v, dtype=float) ** (e - 1)

    def phi2(self, v):
        v = np.asarray(v, dtype=float)
        return self.kappa2 * v * (self.phi1(v) / v) ** (1 + self.chi)


def prototype_drift(delta: float, upsilon: float, kappa0: float,
                    kappa1: float) -> SubGeoDrift:
    """Build the power-law drift family and verify its defining identity.

    The identity dphi1(v) phi(v) = phi2(v) is checked pointwise on random
    arguments before the object is handed out.
    """
    d = SubGeoDrift(delta, upsilon, kappa0, kappa1)
    rng = np.random.default_rng(12345)
    v = rng.uniform(1.0, 1e4, size=100)
    lhs = d.dphi1(v) * d.phi(v)
    rhs = d.phi2(v)
    if not np.allclose(lhs, rhs, rtol=1e-10):
        raise AssertionError("prototype identity dphi1 * phi = phi2 failed")
    return d


class JensenReport(NamedTuple):
    ok: bool
    c: float
    c1: float
    worst_hypothesis_gap: float   # max of P(V) - (V - phi(V) + c); <= 0 when ok
    worst_phi1_gap: float         # max of P(phi1 V) - (phi1 V - phi2 V + c1)
    worst_point: int


def jensen_drift_check(P: DiscreteOperator, V: LyapunovSpec,
                       drift: SubGeoDrift, c: float) -> JensenReport:
    """Concavity transfer of the drift inequality to phi1(V).

    First verifies P(V) <= V - phi(V) + c on the grid; on success asserts
    P(phi1(V)) <= phi1(V) - phi2(V) + c1 with c1 = c * dphi1(1).
    """
    vals = V(P.grid.points)
    pv = P.matrix @ vals
    hyp_gap = pv - (vals - drift.phi(vals) + c)
    worst = int(np.argmax(hyp_gap))
    if hyp_gap[worst] > 1e-10:
        return JensenReport(False, c, math.nan, float(hyp_gap[worst]),
                            math.nan, worst)
    c1 = c * float(drift.dphi1(1.0))
    p1 = P.matrix @ drift.phi1(vals)
    gap1 = p1 - (drift.phi1(vals) - drift.phi2(vals) + c1)
    worst1 = int(np.argmax(gap1))
    ok = gap1[worst1] <= 1e-10
    return JensenReport(bool(ok), c, c1, float(hyp_gap[worst]),
                        float(gap1[worst1]), worst1)


def _invert_log_integral(rate: Callable, top: float, t: float) -> float:
    """u in (0, top] with int_u^top dv / rate(v) = t, or the floor top * 2^-47
    when the integral stays below t down to it.

    Newton's method runs in w = log u, where the integral is robust across
    many decades and dI/dw = -e^w / rate(e^w), starting from w = log top
    (where I = 0).  Every evaluated point narrows a bracket on the root, and
    a step that leaves the bracket is replaced by its midpoint in w.
    """
    from scipy.integrate import quad

    w_top = math.log(top)

    def excess(w):  # I(e^w) - t, decreasing in w
        val, _ = quad(lambda s: math.exp(s) / float(rate(math.exp(s))),
                      w, w_top, limit=200)
        return val - t

    floor = top * 2.0 ** -47
    lo, hi = math.log(floor), w_top  # excess(hi) = -t < 0; excess(lo) unchecked
    lo_checked = False
    w, g = w_top, -t
    for _ in range(200):
        u = math.exp(w)
        step = g * float(rate(u)) / u
        if abs(step) <= 1e-12:
            return math.exp(w + step)
        w += step
        if not lo < w < hi:
            if not lo_checked:
                if excess(lo) < 0:
                    return floor
                lo_checked = True
            w = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            break
        g = excess(w)
        if g >= 0:
            lo, lo_checked = w, True
        else:
            hi = w
    return math.exp(w)


def ode_majorant(u0: float, varsigma: Callable, T: int) -> np.ndarray:
    """Bounds u_t <= I^{-1}(t) for decreasing sequences with steps <= -varsigma(u).

    I(u) is the integral of 1/varsigma from u to u0.  Each bound continues
    from the previous one: u_t solves int_{u_t}^{u_{t-1}} dv / varsigma = 1.
    Below u0 * 2^-47 the bound stays at that floor.  The integrand must be
    positive and increasing on (0, u0].
    """
    if u0 <= 0:
        raise ValueError("u0 must be positive")
    probe = varsigma(np.linspace(u0 * 1e-6, u0, 32))
    if np.any(probe <= 0) or np.any(np.diff(probe) < -1e-12):
        raise ValueError("varsigma must be positive increasing on (0, u0]")
    floor = u0 * 2.0 ** -47
    out = np.empty(T)
    u = u0
    for t in range(T):
        if u > floor:
            u = max(_invert_log_integral(varsigma, u, 1.0), floor)
        out[t] = u
    return out


class RateBound(NamedTuple):
    value: float
    vacuous: bool


def general_rate_bound(psi: Callable, rho: float, iota: float,
                       t: float) -> RateBound:
    """Inverse of J(u) = int_u^iota dv / psi_rho(v) at time t.

    psi_rho(v) = psi(rho^2 v / (1+rho)^2) / (1+rho) is the rescaled convex
    rate function; the returned bound decreases in t and specializes to the
    polynomial bound for power-law psi.
    """
    if rho <= 0 or iota <= 0:
        raise ValueError("rho and iota must be positive")

    def psi_rho(v):
        return psi(rho * rho * v / (1 + rho) ** 2) / (1 + rho)

    if t <= 0:
        return RateBound(iota, True)
    return RateBound(_invert_log_integral(psi_rho, iota, t), False)


class RateReport(NamedTuple):
    times: np.ndarray
    values: np.ndarray              # |mu P^t|_{1 + rho phi1(V)}
    certified: bool
    assertion_ok: Optional[bool]    # None when hypotheses were not certified
    envelope: Optional[np.ndarray]
    rho: float
    r: Optional[float]
    alphas: tuple
    note: str = ""


def polynomial_rate_check(P: DiscreteOperator, V: LyapunovSpec,
                          drift: SubGeoDrift, rho: float, mu: MeasureVec,
                          T: int) -> RateReport:
    """Measured weighted-norm decay against the t^(-1/chi) envelope.

    The hypotheses are re-certified from scratch: the phi1 drift transfer
    and minorization over the sub-level sets of phi(V) and phi2(V), scanning
    candidate radii for a nonempty admissibility window at the given rho.
    Each of the eight sub-level sets gets its minorization level from a
    pair scan of its own rows, or from a larger set that holds its witness.
    When no radius qualifies, the curve is returned without assertion.
    Needs T >= 1 steps and rho >= 0, which keeps the weights positive.
    """
    if T < 1:
        raise ValueError(f"T = {T} must be at least 1")
    if not rho >= 0:
        raise ValueError(f"rho = {rho} must be >= 0")
    vals = V(P.grid.points)
    if abs(float(mu.masses.sum())) > 1e-12:
        raise ValueError("mu must have zero total mass")
    c = _drift_constant(P.matrix, vals, drift.phi)
    jr = jensen_drift_check(P, V, drift, c)
    chi = drift.chi
    with np.errstate(over="ignore"):  # an overflowed weight fails in _norm_path
        w1 = 1.0 + rho * drift.phi1(vals)
        w0 = 1.0 + rho * vals
    values = _norm_path(mu.masses, P.matrix, w1, T)[1:]
    norm0 = float(_norm_path(mu.masses, P.matrix, w0, 0)[0])
    times = np.arange(1, T + 1) * P.time_step

    if not jr.ok:
        return RateReport(times, values, False, None, None, rho, None, (),
                          note="phi1 drift transfer failed")
    phiv, phi2v = drift.phi(vals), drift.phi2(vals)
    radii = [float(np.quantile(phi2v, q)) for q in (1.0, 0.9, 0.75, 0.5)]
    levels = _minorization_levels(P.matrix, [f <= r for r in radii for f in (phiv, phi2v)])
    best = None
    for r, a1, a2 in zip(radii, levels[::2], levels[1::2]):
        if a1 is None or a2 is None or a1 <= 0 or a2 <= 0:
            continue
        lo = 2.0 * max(a1, a2) / r
        hi = min(a1, a2) / min(jr.c1, c) if min(jr.c1, c) > 0 else math.inf
        if rho > lo and rho <= hi:
            delta_rho = drift.kappa2 * (rho - lo)
            if best is None or delta_rho > best[0]:
                best = (delta_rho, r, a1, a2)
    if best is None:
        return RateReport(times, values, False, None, None, rho, None, (),
                          note="admissibility window empty at this rho")
    delta_rho, r, a1, a2 = best
    omega = rho ** chi * delta_rho / (1 + rho) ** (1 + chi)
    c_rho = (chi * omega) ** (-1.0 / chi)
    envelope = c_rho * np.arange(1, T + 1, dtype=float) ** (-1.0 / chi) * norm0
    ok = bool(np.all(values <= envelope + 1e-12))
    return RateReport(times, values, True, ok, envelope, rho, r, (a1, a2))


# ---------------------------------------------------------------------------
# Canonical fixtures.
# ---------------------------------------------------------------------------

def build_subgeo_chain(n: int = 200):
    """Reflected random walk on {1..n} with polynomial inward drift.

    Steps are uniform over {1..L} upward or downward (clipped to the state
    space); the downward bias at x is 2 kappa0 x^delta / (L+1), so the mean
    drift is exactly -kappa0 x^delta away from the edges.  Here L = 7,
    kappa0 = 1/4 and delta = 1/2, so the bias stays a probability up to
    n = 256.  Returns (P, V, drift, c) with the drift inequality
    P(V) <= V - phi(V) + c holding at every state.
    """
    delta, L, kappa0 = 0.5, 7, 0.25
    xs = np.arange(1, n + 1, dtype=float)
    g = 2.0 * kappa0 * xs ** delta / (L + 1)
    if g.max() > 1:
        raise ValueError(f"n = {n} too large: the downward bias reaches {g.max():.4g} > 1")
    P = np.zeros((n, n))
    rows, up, dn = np.arange(n), (1 - g) / (2 * L), (1 + g) / (2 * L)
    for s in range(1, L + 1):  # each row meets each column at most once per call
        P[rows, np.minimum(rows + s, n - 1)] += up
        P[rows, np.maximum(rows - s, 0)] += dn
    return _chain(P, delta, kappa0)


def build_certified_chain():
    """Jump-to-bottom chain on {1..500} whose rate constants are certifiable.

    Each state keeps mass 1 - s(x) and sends s(x) = kappa0 sqrt(x)/(x-1)
    + theta to the bottom state, giving drift <= -kappa0 sqrt(x) with a
    uniform overlap floor; the admissibility window of the polynomial rate
    lemma is nonempty here, unlike on the local-step walk.  With
    kappa0 = 0.4 and theta = 0.3, s peaks at 0.87 at x = 2.
    """
    n, kappa0, theta = 500, 0.4, 0.3
    xs = np.arange(2, n + 1, dtype=float)
    s = np.concatenate(([0.0], kappa0 * np.sqrt(xs) / (xs - 1) + theta))
    P = np.diag(1 - s)
    P[:, 0] += s
    return _chain(P, 0.5, kappa0)


def _chain(P: np.ndarray, delta: float, kappa0: float):
    """(P, V, drift, c) of a Markov matrix on {1..n}: V(x) = x, the prototype
    drift at (delta, 1/2, kappa0, 1) and the least c with P(V) <= V - phi(V) + c."""
    n = len(P)
    xs = np.arange(1, n + 1, dtype=float)
    grid = GridDomain.uniform_closed(1.0, float(n), n)
    drift = prototype_drift(delta, 0.5, kappa0, 1.0)
    return (DiscreteOperator(P, grid, 1.0, is_markov=True, quad_tol=1e-9),
            LyapunovSpec.table(xs, grid), drift, _drift_constant(P, xs, drift.phi))
