"""V-Dobrushin coefficients, local minorization and geometric decay.

All suprema over pairs of states are exact maxima over the grid pairs (the
continuum supremum is attained on point masses, so grid exhaustion is the
faithful finite analogue).  One scan serves the V-Dobrushin coefficient
and every minorization level.  A scan of at most 128 rows is one pdist
triangle.  A larger scan covers the pair triangle with cells of _CELL rows
a side (a last row over joins the cell before it): a pdist triangle on the
diagonal and a cdist rectangle above it.  It visits them best-first, in
descending order of an upper bound on their pair values (`_bounds`, the
coupling form of the total-variation distance: two rows' masses less twice
their overlap), and stops at the first cell whose bound is below the best
value found, so it computes exactly the cells whose bound reaches the
maximum.  Memory is one cell's distances and the bounds, not the n(n-1)/2
condensed distances.  A sub-level set is scanned on its own rows, unless a
larger scanned set holds it and its witness pair.

One reducer takes each block to its maximum and first witness.  Every
computed pair keeps its bits, and ties are broken toward the smallest index
pair, making every report deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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

    def __post_init__(self):
        if not 0 <= self.beta:
            raise ValueError("beta must be nonnegative")


# The largest scan that is one pdist: its condensed distances take 64 kB.
_WHOLE = 128
# Rows per side of a cell, the unit of a larger scan and of its bound.
_CELL = 16
# A bound plus _SLACK m times its cells' largest row masses (and 2m
# subnormals) covers the rounding of each pair value it bounds; see _bounds.
_SLACK = 16 * np.finfo(float).eps
# Below this fraction of nonzero entries the norm path multiplies in CSR.
# Where the paths cross (median of 21 calls, one OpenBLAS thread, 2 vCPU):
# for one measure and T = 200 at n = 200, CSR took 2.2 ms against 2.2-2.4
# dense at 0.6-1% nonzero, and lost from 1.5% (2.2 against 1.7); at n = 120
# it lost even at 1%, and at n >= 300 it won at every density up to 7%.  A
# stack of 50 measures, T = 25, gained 1.8x to 10x at 1%.  Below 1%, a
# kernel with no zero row has n > 100.
_SPARSE = 0.01


@functools.lru_cache(maxsize=_WHOLE)
def _triangle(t: int) -> tuple:
    """Rows (i, j) of each entry of pdist's condensed triangle over t rows,
    read-only.  A triangle holds 2 to _WHOLE rows, so the cache keeps at
    most _WHOLE layouts."""
    ij = np.triu_indices(t, 1)
    for a in ij:
        a.flags.writeable = False
    return ij


def _cuts(n: int, size: int) -> list:
    """Edges of blocks of `size` rows over n rows; a last block of one row
    joins the block before it, so every block holds a pair."""
    return [0, *range(size, n - 1, size), n] if n > 1 else []


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _bounds(K: np.ndarray, weights: Optional[np.ndarray]) -> tuple:
    """The cells (a, b), a <= b, of _CELL rows a side over the rows of K,
    with an upper bound on the pair values of each, in descending order of
    bound (a stable sort, so ties keep row-major order): the arrays
    (bound, r0, r1, c0, c1), a cell's rows r0:r1 and columns c0:c1.

    With column weights w >= 0 (ones for the L1 distance) and row masses
    s_i = sum_k w_k K_ik, the identity |a - b| = a + b - 2 min(a, b) gives
    d(i, j) = s_i + s_j - 2 sum_k w_k min(K_ik, K_jk).  For i in cell A and
    j in cell B, min(K_ik, K_jk) >= min(lo_Ak, lo_Bk), lo_Ak the least K_.k
    over the rows of A.  So d(i, j) <= hi_A + hi_B - 2 o_AB, hi_A the
    largest s_i over A and o_AB = sum_k w_k min(lo_Ak, lo_Bk) the cells'
    overlap.  A ratio divides by the cells' least w_i + w_j.

    Rounding, with u = eps / 2 and K >= 0: the computed pair value is
    within (m + 1) u sum_k w_k |K_ik - K_jk| of d(i, j), and that sum is at
    most s_i + s_j because K >= 0 (checked on the column minima; a negative
    entry raises ValueError).  Each computed s_i is within m u s_i, and the
    computed overlap within m u o_AB, where 2 o_AB <= hi_A + hi_B.  With the
    bound's own two additions, the errors add up to at most
    (3m + 3) u (hi_A + hi_B) <= 3 m eps (hi_A + hi_B), which a slack of
    _SLACK m (hi_A + hi_B) covers more than five times over; 2m subnormals
    cover the terms that underflow.  A ratio divides by
    (v_A + v_B)(1 - 4 eps), v_A the least weight over A, which covers the
    roundings of both divisions.
    """
    n, m = K.shape
    cuts = _cuts(n, _CELL)
    c = len(cuts) - 1  # cells a side
    a, b = np.triu_indices(c)
    w = np.ones(m) if weights is None else weights
    hi = np.maximum.reduceat(K @ w, cuts[:-1])
    overlap = np.zeros(len(a))
    starts = np.flatnonzero(a == b)  # where each row of cells (x, x:) starts
    step = max(1, _WHOLE * _WHOLE // c)  # columns a pass, so that their minima take 128 kB
    for k in range(0, m, step):
        lo = np.array([K[r0:r1, k:k + step].min(axis=0) for r0, r1 in zip(cuts, cuts[1:])])
        if lo.min() < 0:
            raise ValueError(f"a pair scan needs K >= 0; K has the entry {lo.min():.17g}")
        for x, start in enumerate(starts):
            overlap[start:start + c - x] += np.minimum(lo[x], lo[x:]) @ w[k:k + step]
    mass = hi[a] + hi[b]
    bound = mass - 2 * overlap + (_SLACK * m * mass + 2 * m * np.finfo(float).smallest_subnormal)
    if weights is not None:
        least = np.minimum.reduceat(weights, cuts[:-1])
        bound /= (least[a] + least[b]) * (1 - 4 * np.finfo(float).eps)
    bound[np.isnan(bound)] = np.inf  # an overflowed mass rules out nothing
    order = np.argsort(-bound, kind="stable")
    a, b, cuts = a[order], b[order], np.array(cuts)
    return bound[order], cuts[a], cuts[a + 1], cuts[b], cuts[b + 1]


def _pair_scan(K: np.ndarray, weights: Optional[np.ndarray] = None) -> tuple:
    """Max over row pairs i < j of sum_k w_k |K_ik - K_jk|, over (w_i + w_j)
    when weights are given (K square), with its lexicographically first
    argmax witness (i, j); (0.0, (0, 0)) when K has fewer than two rows.  K
    and the weights must be finite and nonnegative; a scan of more than
    _WHOLE rows raises ValueError on a negative entry of K.

    A scan of at most _WHOLE rows is one block.  A larger one visits the
    cells of `_bounds` best-first and stops at the first cell whose bound
    is below the best value found: that cell and every later one hold no
    pair that ties the maximum, and every cell whose bound reaches the
    maximum is computed, each once.  A diagonal block (r0 == c0) is pdist's
    condensed triangle, rows (i, j) from `_triangle`, and any other is
    cdist's rectangle, its rows and columns broadcast; both give each pair
    the bits of one pdist over all rows of K.  Each block is reduced to its
    maximum and first witness.
    """
    from scipy.spatial.distance import cdist, pdist

    n = K.shape[0]
    if n < 2:
        return 0.0, (0, 0)
    metric = ({"metric": "cityblock"} if weights is None
              else {"metric": "minkowski", "p": 1, "w": weights})
    cells = zip(*_bounds(K, weights)) if n > _WHOLE else [(math.inf, 0, n, 0, n)]
    top = (math.inf, (0, 0))  # (-max, first witness)
    for bound, r0, r1, c0, c1 in cells:
        if bound < -top[0]:
            break
        if r0 == c0:
            d = pdist(K[r0:r1], **metric)
            i, j = _triangle(r1 - r0)
        else:
            d = cdist(K[r0:r1], K[c0:c1], **metric)
            i, j = np.s_[:, None], np.s_[None, :]
        if weights is not None:
            d /= weights[r0:r1][i] + weights[c0:c1][j]
        first = int(d.argmax())  # first maximum in row-major pair order
        a, b = (i[first], j[first]) if r0 == c0 else divmod(first, c1 - c0)
        # the largest value, and of its pairs the smallest
        top = min(top, (-d.item(first), (int(r0 + a), int(c0 + b))))
    return -top[0], top[1]


def _minorization_levels(K: np.ndarray, masks: list) -> list:
    """1 - max total-variation distance between the rows of K inside each
    mask (None for an empty mask).  Each mask is scanned on its own rows,
    the largest first, except a mask inside a scanned one that holds its
    witness pair: the pair attains the larger set's maximum, which bounds
    the smaller set's, so the two maxima are equal."""
    sizes = [np.count_nonzero(mask) for mask in masks]
    tops = [None] * len(masks)
    scanned = []  # (mask, its maximum, its witness rows)
    for k in sorted(range(len(masks)), key=lambda k: -sizes[k]):
        mask = masks[k]
        if not sizes[k]:
            continue
        tops[k] = next((top for big, top, (i, j) in scanned
                        if mask[i] and mask[j] and not (mask & ~big).any()), None)
        if tops[k] is None:
            rows = np.flatnonzero(mask)
            tops[k], (i, j) = _pair_scan(K[rows])
            scanned.append((mask, tops[k], (rows[i], rows[j])))
    return [None if top is None else 1.0 - 0.5 * top for top in tops]


def _drift_constant(K: np.ndarray, vals: np.ndarray, phi: Callable) -> float:
    """Smallest c >= 0 with K V <= V - phi(V) + c at every state."""
    return max(float(np.max(K @ vals - vals + phi(vals))), 0.0)


def _sparse_transpose(K: np.ndarray):
    """K^T as a scipy CSR array when fewer than _SPARSE of the entries of the
    square K are nonzero, else None.  The first rows are counted first:
    they hold more entries than that, so a dense K is told from them alone
    (0.01 ms on the 800-state harmonic kernel, a full count 0.7 ms).  The
    CSR is built from the column-major nonzero positions of K, its rows
    (K's columns) in ascending row index of K: the layout of
    scipy.sparse.csr_array(K.T), which takes 1.9 ms on the 500-state
    certified chain against 0.4 ms for this."""
    n = K.shape[0]
    limit = _SPARSE * K.size
    if np.count_nonzero(K[:int(limit // n) + 1]) >= limit:
        return None
    at = np.flatnonzero(K.T != 0)
    if at.size >= limit:
        return None
    from scipy.sparse import csr_array

    col, row = np.divmod(at, n)
    return csr_array((K[row, col], row, np.searchsorted(col, np.arange(n + 1))),
                     shape=(n, n))


def _norm_path(nu: np.ndarray, K: np.ndarray, w: np.ndarray, T: int) -> np.ndarray:
    """|nu K^t|(w) for t = 0..T, one row per t; nu is one measure or a stack
    of them (one per row).  Non-finite weights are a numerical failure.

    Below _SPARSE nonzeros the T products run on K^T in CSR, which sums
    each state's mass in ascending source order with its own rounding: the
    last bits can move where two or more sources are nonzero.  A dense K,
    or T = 0, keeps the dense loop and its bits."""
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("norm weights are not finite")
    Kt = _sparse_transpose(K) if T else None
    out = np.empty((T + 1,) + nu.shape[:-1])
    for t in range(T + 1):
        if t:
            nu = nu @ K if Kt is None else (Kt @ nu.T).T
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
    return ContractionReport(exact, pair)


def local_minorization(P: DiscreteOperator, V: LyapunovSpec, r: float) -> float:
    """alpha(r) = 1 - max total-variation distance of rows started in {V <= r}."""
    vals = V(P.grid.points)
    [alpha_r] = _minorization_levels(P.matrix, [vals <= r])
    if alpha_r is None:
        raise ValueError(f"sub-level set {{V <= {r:g}}} is empty; smallest V "
                         f"value is {vals.min():.17g}")
    return alpha_r


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


class DriftCertificate(NamedTuple):
    """Drift data (eps, c) with a minorization level on a sub-level set.

    ok is False when no eps < 1 is achievable (the drift ratio never dips
    below one anywhere on the grid) or when the rows started in {V <= r}
    do not overlap, so that alpha(r) = 0.
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


def foster_lyapunov_verify(P: DiscreteOperator, V: LyapunovSpec) -> DriftCertificate:
    """Extract (eps, c) drift pairs from the ratio P(V)/V on the grid.

    Builds a ladder of (eps_n, c_n) pairs from quantiles of the ratio; for
    each one the inequality P(V) <= eps V + c holds at every grid point
    with c the maximum of V * theta over the super-level set of theta.
    The minorization level alpha(r) is read at r, the 0.8 quantile of V.
    Returns a failure report rather than raising when the ratio never
    drops below 1 or when alpha(r) is not positive.
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
    rungs = [e for e in (float(np.quantile(theta, q)) for q in (0.5, 0.25, 0.1)) if 0 < e < 1]
    ladder = []
    # when the ratio dips below 1 but the chosen quantiles all sit above it,
    # the one rung is halfway from its minimum to 1
    for eps in rungs or [float(0.5 * (theta.min() + 1.0))]:
        mask = theta >= eps
        c = float((vals[mask] * theta[mask]).max()) if mask.any() else 0.0
        ladder.append((eps, c, int(mask.sum())))
    eps, c, _ = ladder[0]
    r = float(np.quantile(vals, 0.8))
    alpha_r = local_minorization(P, V, r)
    reason = "" if alpha_r > 0 else (f"alpha(r) = 0 at r = {r:.6g}: two rows started "
                                     f"in {{V <= r}} do not overlap (computed {alpha_r:.3g})")
    cert = DriftCertificate(alpha_r > 0, eps, c, r, alpha_r, theta_f, tuple(ladder),
                            edge_decay, reason)
    if cert.ok:
        cert.validate(P, V)
    return cert


class DecayCurve(NamedTuple):
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


class NonExpansiveReport(NamedTuple):
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
    never increases for random zero-mass measures.  Needs T >= 1 steps and
    trials >= 1 measures, so that the check looks at something.
    """
    if T < 1:
        raise ValueError(f"T = {T} must be at least 1")
    if trials < 1:
        raise ValueError(f"trials = {trials} must be at least 1")
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
    [alpha1] = _minorization_levels(P.matrix, [phiv <= r])
    if alpha1 is None:
        raise ValueError("sub-level set {phi(V) <= r} is empty")
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
    # one trial per row: the difference of two consecutive draws
    draws = rng.dirichlet(np.ones(P.grid.size), size=2 * trials)
    mu = draws[0::2] - draws[1::2]
    path = _norm_path(mu, P.matrix, weights, T)
    inc = np.diff(path, axis=0)
    worst_inc = float(inc[inc > 1e-12 * np.maximum(path[:-1], 1.0)].max(initial=0.0))
    monotone = worst_inc == 0.0
    return NonExpansiveReport(window_ok and monotone, c, alpha1, window_ok,
                              violated, monotone, worst_inc)


def _sorted_quantile(v: np.ndarray, q: float) -> float:
    """np.quantile(v, q) of an ascending array, bit for bit: numpy's linear
    method interpolates between the neighbours of index (n - 1) q, from the
    upper one when the fraction is at least 1/2."""
    h = (len(v) - 1) * q
    lo = math.floor(h)
    g = h - lo
    a, b = float(v[lo]), float(v[min(lo + 1, len(v) - 1)])
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def build_pvc_chain(rng: np.random.Generator, n: int, eps: float):
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
    v = np.sort(rng.uniform(0.5, 4.0 * r_eps, size=n))
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
    r = max(_sorted_quantile(v, 0.8), 1.05 * r_eps)
    alpha_r = local_minorization(P, V, r)
    return P, V, eps, r, alpha_r
