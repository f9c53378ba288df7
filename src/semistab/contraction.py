"""V-Dobrushin coefficients, local minorization and geometric decay.

All suprema over pairs of states are exhaustive scans of the grid in one
compiled pass (the continuum supremum is attained on point masses, so grid
exhaustion is the faithful finite analogue).  Ties are broken toward the
smallest index pair, making every report deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import FunctionVec, GridDomain, LyapunovSpec, MeasureVec
from .kernels import DiscreteOperator

__all__ = [
    "ContractionReport",
    "DriftCertificate",
    "DecayCurve",
    "NonExpansiveReport",
    "v_dobrushin",
    "local_minorization",
    "rescaled_lyapunov",
    "decay_envelope_constant",
    "foster_lyapunov_verify",
    "geometric_decay_curve",
    "nonexpansive_check",
    "build_pvc_chain",
]


@dataclass(frozen=True)
class ContractionReport:
    beta: float
    witness_pair: tuple
    V_used: LyapunovSpec

    def __post_init__(self):
        if not 0 <= self.beta:
            raise ValueError("beta must be nonnegative")


def _pair_scan(K: np.ndarray, weights: Optional[np.ndarray] = None):
    """Max over row pairs i < j of sum_k w_k |K_ik - K_jk|, over (w_i + w_j)
    when weights are given (K square), with its first argmax witness (i, j).

    The one extra array is pdist's condensed n(n-1)/2 distances.
    """
    from scipy.spatial.distance import pdist

    n = K.shape[0]
    if n < 2:
        return 0.0, (0, 0)
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # condensed row i ends at ends[i]
    if weights is None:
        d = pdist(K, "cityblock")
    else:
        d = pdist(K, "minkowski", p=1, w=weights)
        for i, (lo, hi) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
            d[lo:hi] /= weights[i] + weights[i + 1:]
    k = int(np.argmax(d))  # lexicographic first maximum: smallest-index tie-break
    i = int(np.searchsorted(ends, k, side="right"))
    return float(d[k]), (i, int(k - ends[i] + n))


def _minorization(K: np.ndarray, mask: np.ndarray, what: str) -> float:
    """1 - max total-variation distance between the rows of K in mask;
    raises ValueError(what) when mask selects no row."""
    if not mask.any():
        raise ValueError(what)
    return 1.0 - 0.5 * _pair_scan(K[mask])[0]


def _drift_constant(K: np.ndarray, vals: np.ndarray, phi: Callable) -> float:
    """Smallest c >= 0 with K V <= V - phi(V) + c at every state."""
    return max(float(np.max(K @ vals - vals + phi(vals))), 0.0)


def _norm_path(nu: np.ndarray, K: np.ndarray, w: np.ndarray, T: int) -> np.ndarray:
    """|nu K^t|(w) for t = 0..T, one row per t; nu is one measure or a stack
    of them (one per row).  Non-finite weights are a numerical failure."""
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("norm weights are not finite")
    out = np.empty((T + 1,) + nu.shape[:-1])
    for t in range(T + 1):
        if t:
            nu = nu @ K
        out[t] = np.abs(nu) @ w
    return out


def _tail_rate(times: np.ndarray, values: np.ndarray, floor: float) -> Optional[float]:
    """Decay rate from a log-linear fit over the tail half of the curve,
    skipping values <= floor; None when fewer than two points remain."""
    n = len(values)
    sel = (values > floor) & (np.arange(n) >= n // 2)
    if sel.sum() < 2:
        return None
    return -float(np.polyfit(times[sel], np.log(values[sel]), 1)[0])


def v_dobrushin(P: DiscreteOperator, V: LyapunovSpec) -> ContractionReport:
    """Exhaustive sup over grid pairs of |delta_x P - delta_y P|_V / (V(x)+V(y))."""
    K = P.matrix
    vals = V(P.grid.points)
    best, pair = _pair_scan(K, vals)
    # recompute at the witness so the reported value is exact, not a
    # vectorized intermediate
    i, j = pair
    exact = float(np.abs(K[i] - K[j]) @ vals / (vals[i] + vals[j]))
    if abs(exact - best) > 1e-12 * max(1.0, abs(best)):
        raise ArithmeticError(
            f"pair-scan ratio {best:.17g} disagrees with its witness {exact:.17g}"
        )
    return ContractionReport(exact, pair, V)


def local_minorization(P: DiscreteOperator, V: LyapunovSpec, r: float) -> float:
    """alpha(r) = 1 - max total-variation distance of rows started in {V <= r}."""
    vals = V(P.grid.points)
    return _minorization(P.matrix, vals <= r,
                         f"sub-level set {{V <= {r:g}}} is empty; smallest V "
                         f"value is {vals.min():.17g}")


def rescaled_lyapunov(eps: float, c: float, alpha_r: float, r: float,
                      V: LyapunovSpec):
    """Contraction-adapted rescaling of a certified Lyapunov pair.

    Expects the drift inequality P(V) <= eps V + c; when c != 1/2 the
    function first replaces V by (1 + eps V / c)/2, which satisfies the
    same inequality with c = 1/2 and V >= 1/2 (r and alpha_r must then be
    stated for the normalized function).  Returns the rescaled spec
    V_{eps,r} = (1 + alpha_r V / ((1+eps) r))/2 together with the
    contraction margin alpha_eps(r), both > 0 whenever r > 1/(1-eps).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < alpha_r <= 1:
        raise ValueError("alpha_r must lie in (0, 1]")
    r_eps = 1.0 / (1.0 - eps)
    if r <= r_eps:
        raise ValueError(
            f"r = {r:g} <= r_eps = {r_eps:g}: the contraction bound is vacuous"
        )
    if abs(c - 0.5) > 1e-12:
        if c <= 0:
            raise ValueError("c must be positive")
        V = LyapunovSpec.affine_rescale(V, 0.5, eps / (2 * c))
    V_rescaled = LyapunovSpec.affine_rescale(
        V, 0.5, alpha_r / (2.0 * (1.0 + eps) * r)
    )
    alpha_eps_r = (
        (alpha_r / 2.0)
        * (1.0 - eps) / ((1.0 + eps) + alpha_r / 2.0)
        * (1.0 - r_eps / r)
    )
    return V_rescaled, alpha_eps_r


def decay_envelope_constant(eps: float, r: float, alpha_r: float) -> float:
    """Prefactor 1 + 2r(1+eps)/alpha(r) of the geometric decay envelope."""
    return 1.0 + 2.0 * r * (1.0 + eps) / alpha_r


@dataclass(frozen=True)
class DriftCertificate:
    """Drift data (eps, c) with a minorization level on a sub-level set.

    ok is False when no eps < 1 is achievable (the drift ratio never dips
    below one anywhere on the grid).
    """

    ok: bool
    epsilon: float
    c: float
    r: float
    alpha_r: float
    theta: FunctionVec
    ladder: tuple = ()
    edge_decay_ok: bool = False
    reason: str = ""

    def validate(self, P: DiscreteOperator, V: LyapunovSpec):
        if not self.ok:
            raise ValueError(f"certificate is a failure report: {self.reason}")
        vals = V(P.grid.points)
        lhs = P.matrix @ vals
        if np.any(lhs > self.epsilon * vals + self.c + 1e-10):
            raise AssertionError("drift inequality violated on the grid")
        if not 0 < self.alpha_r <= 1:
            raise AssertionError("alpha_r outside (0, 1]")


def foster_lyapunov_verify(P: DiscreteOperator, V: LyapunovSpec,
                           r_quantile: float = 0.8) -> DriftCertificate:
    """Extract (eps, c) drift pairs from the ratio P(V)/V on the grid.

    Builds a ladder of (eps_n, c_n) pairs from quantiles of the ratio; for
    each one the inequality P(V) <= eps V + c holds at every grid point
    with c the maximum of V * theta over the super-level set of theta.
    Returns a failure report rather than raising when the ratio never
    drops below 1.
    """
    vals = V(P.grid.points)
    pv = P.matrix @ vals
    theta = pv / vals
    theta_f = FunctionVec(theta, P.grid)
    k = max(1, P.grid.size // 20)
    edge_decay = bool(max(theta[:k].max(), theta[-k:].max()) <= np.median(theta))
    if theta.min() >= 1.0:
        return DriftCertificate(False, math.nan, math.nan, math.nan, math.nan,
                                theta_f, reason="P(V)/V >= 1 everywhere")
    ladder = []
    for q in (0.5, 0.25, 0.1):
        eps = float(np.quantile(theta, q))
        if not 0 < eps < 1:
            continue
        mask = theta >= eps
        c = float((vals[mask] * theta[mask]).max()) if mask.any() else 0.0
        ladder.append((eps, c, int(mask.sum())))
    if not ladder:
        # ratio dips below 1 but the chosen quantiles all sit above it
        eps = float(0.5 * (theta.min() + 1.0))
        mask = theta >= eps
        ladder = [(eps, float((vals[mask] * theta[mask]).max()), int(mask.sum()))]
    eps, c, _ = ladder[0]
    r = float(np.quantile(vals, r_quantile))
    r = max(r, float(vals.min()))
    alpha_r = local_minorization(P, V, r)
    cert = DriftCertificate(True, eps, c, r, alpha_r, theta_f,
                            ladder=tuple(ladder), edge_decay_ok=edge_decay)
    cert.validate(P, V)
    return cert


@dataclass(frozen=True)
class DecayCurve:
    times: np.ndarray
    values: np.ndarray
    fitted_rate: Optional[float]       # per unit time, from the tail half
    envelope_ok: Optional[bool] = None
    envelope: Optional[np.ndarray] = None


def geometric_decay_curve(P: DiscreteOperator, V: LyapunovSpec,
                          mu: MeasureVec, eta: MeasureVec, T: int,
                          certificate: Optional[dict] = None) -> DecayCurve:
    """V-norm decay of (mu - eta) P^t for t = 0..T, with a tail-half rate fit.

    When `certificate` provides normalized drift data
    {eps, alpha_r, r} (c = 1/2 convention), the curve is compared against
    the geometric envelope const * (1 - alpha_eps(r))^t.
    """
    norms = _norm_path(mu.masses - eta.masses, P.matrix, V(P.grid.points), T)
    times = np.arange(T + 1) * P.time_step
    fitted = _tail_rate(times, norms, 1e-300)
    envelope_ok = None
    envelope = None
    if certificate is not None:
        eps, alpha_r, r = (certificate[k] for k in ("eps", "alpha_r", "r"))
        _, margin = rescaled_lyapunov(eps, 0.5, alpha_r, r, V)
        const = decay_envelope_constant(eps, r, alpha_r)
        envelope = const * (1.0 - margin) ** np.arange(T + 1) * norms[0]
        envelope_ok = bool(np.all(norms <= envelope + 1e-12))
    return DecayCurve(times, norms, fitted, envelope_ok, envelope)


@dataclass(frozen=True)
class NonExpansiveReport:
    ok: bool
    c: float
    alpha1_r: float
    window_ok: bool
    violated: str
    monotone_ok: bool
    worst_increase: float


def nonexpansive_check(P: DiscreteOperator, V: LyapunovSpec,
                       phi: Callable, rho: float, r: float,
                       T: int = 30, trials: int = 50,
                       seed: int = 0) -> NonExpansiveReport:
    """Uniform-norm stability under the drift P(V) <= V - phi(V) + c.

    Verifies the hypothesis on the grid, checks the admissibility window
    rho c <= alpha_1(r) <= rho r / 2 obtained from minorization over the
    sub-level set {phi(V) <= r}, then confirms that t -> |mu P^t|_{1+rho V}
    never increases for random zero-mass measures.
    """
    vals = V(P.grid.points)
    phiv = phi(vals)
    if np.any(np.diff(phi(np.linspace(vals.min(), vals.max(), 64))) < -1e-12):
        raise ValueError("phi must be increasing")
    c = _drift_constant(P.matrix, vals, phi)
    # surrogate decay of phi(V)/V where V is largest
    ratio = phiv / vals
    order = np.argsort(vals)
    k = max(1, P.grid.size // 20)
    if ratio[order[-k:]].max() > np.median(ratio) + 1e-12:
        raise ValueError("phi(V)/V does not decay where V is large")
    alpha1 = _minorization(P.matrix, phiv <= r,
                           "sub-level set {phi(V) <= r} is empty")
    violated = ""
    if rho * c > alpha1:
        violated = f"rho*c = {rho * c:.6g} > alpha1(r) = {alpha1:.6g}"
    if rho < 2 * alpha1 / r:
        violated = (violated + "; " if violated else "") + \
            f"rho = {rho:.6g} < 2 alpha1(r)/r = {2 * alpha1 / r:.6g}"
    window_ok = violated == ""
    with np.errstate(over="ignore"):  # an overflowed weight fails in _norm_path
        weights = 1.0 + rho * vals
    rng = np.random.default_rng(seed)
    ones = np.ones(P.grid.size)
    # one trial per row, drawn in the order of the per-trial stream
    mu = np.array([rng.dirichlet(ones) - rng.dirichlet(ones)
                   for _ in range(trials)]).reshape(trials, ones.size)
    path = _norm_path(mu, P.matrix, weights, T)
    inc = np.diff(path, axis=0)
    worst_inc = float(inc[inc > 1e-12 * np.maximum(path[:-1], 1.0)].max(initial=0.0))
    monotone = worst_inc == 0.0
    return NonExpansiveReport(window_ok and monotone, c, alpha1, window_ok,
                              violated, monotone, worst_inc)


def build_pvc_chain(rng: np.random.Generator, n: int, eps: float,
                    v_max_factor: float = 4.0):
    """Random finite chain engineered to satisfy the normalized drift.

    Produces (P, V, eps, r, alpha_r): rows are Dirichlet draws mixed with a
    uniform component, then pulled toward the smallest-V state exactly as
    far as needed so that P(V) <= eps V + 1/2 holds at every state with
    V >= 1/2.  The uniform component keeps every pair of rows overlapping,
    so the minorization level alpha(r) is positive for every r.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    grid = GridDomain.uniform_closed(0.0, 1.0, n)
    r_eps = 1.0 / (1.0 - eps)
    v = np.sort(rng.uniform(0.5, v_max_factor * r_eps, size=n))
    v[0] = 0.5
    V = LyapunovSpec.table(v, grid)
    rows = 0.8 * rng.dirichlet(np.ones(n), size=n) + 0.2 / n
    # vecdot forms each row's dot as the one-row product rows[i] @ v does;
    # a single rows @ v (gemv) would change their last bits
    pv = np.vecdot(rows, v)
    target = eps * v + 0.5
    pull = pv > target
    lam = (target[pull] - 0.5) / (pv[pull] - 0.5)
    rows[pull] *= lam[:, None]
    rows[pull, 0] += 1.0 - lam
    P = DiscreteOperator(rows, grid, 1.0, is_markov=True, quad_tol=1e-9)
    r = max(float(np.quantile(v, 0.8)), 1.05 * r_eps)
    alpha_r = local_minorization(P, V, r)
    return P, V, eps, r, alpha_r
