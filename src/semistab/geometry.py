"""Hypersurface boundary toolkit for graph (Monge) charts in 2D and 3D.

Frames, fundamental forms and shape matrices; offset-surface Jacobians in
Fermi coordinates; signed distance by multi-start Newton projection; co-area
consistency checks; level-set densities of sub-Gaussian kernels; and the
boundary-blowup Lyapunov profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import _grad_hess

__all__ = [
    "MongeSurface", "BoundaryFrame", "BoundaryProfile", "SURFACES", "make_surface",
    "make_polynomial_surface", "frame", "fundamental_forms",
    "weingarten_identity_check", "offset_jacobian", "signed_distance",
    "coarea_check", "level_set_density", "boundary_lyapunov",
]


@dataclass(frozen=True)
class MongeSurface:
    """Graph chart theta -> (theta, phi(theta)) up to an axis permutation.

    phi maps the (n-1)-dimensional chart domain to the graph coordinate
    `graph_axis` of ambient R^n.  The callbacks take a stack of chart points
    of shape (m, n-1): phi returns shape (m,), grad (m, n-1) and hess
    (m, n-1, n-1), so a user-built surface writes them over the rows (as in
    `th[:, 0] ** 2`); one-point callbacks do not work.  Derivatives use grad
    and hess when supplied, central differences at fd_step, one chart point
    at a time, otherwise.  epsilon flips the normal orientation (and with it
    the signs of Omega and W).  The ambient dimension n is len(chart_domain) + 1.
    """

    phi: Callable
    chart_domain: tuple
    epsilon: int = 1
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    graph_axis: Optional[int] = None
    fd_step: float = 1e-5
    name: str = ""

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("chart_domain must have 1 or 2 intervals (ambient dimension 2 or 3)")
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if self.graph_axis is None:
            object.__setattr__(self, "graph_axis", self.n - 1)

    @property
    def n(self) -> int:
        return len(self.chart_domain) + 1

    @property
    def chart_dim(self) -> int:
        return len(self.chart_domain)

    def _inside(self, thetas, margin: float = 0.0) -> np.ndarray:
        """Row mask of a stack of chart points inside the chart box."""
        lo, hi = np.array(self.chart_domain, dtype=float).T
        if thetas.shape[1:] != lo.shape:
            return np.zeros(len(thetas), dtype=bool)
        return ((lo + margin <= thetas) & (thetas <= hi - margin)).all(axis=1)

    def in_chart(self, theta, margin: float = 0.0) -> bool:
        return bool(self._inside(_stack(theta), margin)[0])

    def _other_axes(self):
        return [i for i in range(self.n) if i != self.graph_axis]

    def _points(self, thetas) -> np.ndarray:
        """Embedded points of a stack of chart points, one row each."""
        out = np.empty((len(thetas), self.n))
        out[:, self.graph_axis] = np.reshape(self.phi(thetas), len(thetas))
        out[:, self._other_axes()] = thetas
        return out

    def _fd(self, thetas, part: int) -> list:
        return [_grad_hess(lambda p: self.phi(p[None])[0], th, self.fd_step)[part]
                for th in thetas]

    def _grads(self, thetas) -> np.ndarray:
        G = self._fd(thetas, 0) if self.grad is None else self.grad(thetas)
        return np.asarray(G, dtype=float).reshape(thetas.shape)

    def _hessians(self, thetas) -> np.ndarray:
        H = self._fd(thetas, 1) if self.hess is None else self.hess(thetas)
        H = np.asarray(H, dtype=float).reshape(thetas.shape + thetas.shape[1:])
        if np.abs(H - H.swapaxes(1, 2)).max(initial=0.0) > 1e-8:
            raise ValueError("Hessian not symmetric at this chart point")
        return H

    def embed(self, theta) -> np.ndarray:
        return self._points(_stack(theta))[0]

    def gradient(self, theta) -> np.ndarray:
        return self._grads(_stack(theta))[0]

    def hessian(self, theta) -> np.ndarray:
        return self._hessians(_stack(theta))[0]


def _stack(theta) -> np.ndarray:
    """One chart point as a stack of one."""
    return np.atleast_1d(np.asarray(theta, dtype=float))[None]


@dataclass(frozen=True)
class BoundaryFrame:
    """One validated frame, or a stack of them along leading axes."""

    T: np.ndarray                 # (n-1, n) tangent rows
    N: np.ndarray                 # unit normal
    g: np.ndarray                 # first fundamental form
    Omega: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.abs(np.sqrt(np.vecdot(self.N, self.N)) - 1.0).max() > 1e-10:
            raise ValueError("normal is not unit length")
        if np.abs(self.T @ self.N[..., None]).max() > 1e-10:
            raise ValueError("tangent vectors are not orthogonal to the normal")
        g = self.g
        if (np.abs(g - g.swapaxes(-1, -2)).max() > 1e-12
                or np.linalg.eigvalsh(g).min() <= 0):
            raise ValueError("metric must be symmetric positive definite")
        if self.Omega is not None and self.W is not None:
            if np.abs(np.linalg.solve(g, self.Omega) - self.W).max() > 1e-10:
                raise ValueError("W != g^{-1} Omega")


def _frame_parts(surface: MongeSurface, thetas):
    """Gradients, tangent rows, unit normals, metrics g = I + grad grad' and
    sqrt(det g) = sqrt(1 + |grad|^2) of a stack of chart points, from one
    gradient call."""
    outside = ~surface._inside(thetas)
    if outside.any():
        raise ValueError(f"theta {thetas[outside.argmax()]} outside chart domain")
    G = surface._grads(thetas)
    (m, d), others = G.shape, surface._other_axes()
    T = np.zeros((m, d, surface.n))
    T[:, :, others] = np.eye(d)
    T[:, :, surface.graph_axis] = G
    N = np.zeros((m, surface.n))
    N[:, others] = G
    N[:, surface.graph_axis] = -1.0
    s = np.sqrt(1.0 + np.vecdot(G, G))
    N = surface.epsilon * N / s[:, None]
    return G, T, N, np.eye(d) + G[:, :, None] * G[:, None, :], s


def _forms(surface: MongeSurface, thetas):
    """Stacked T, N, g, second fundamental forms Omega and shape matrices W."""
    _, T, N, g, s = _frame_parts(surface, thetas)
    Omega = -surface.epsilon * surface._hessians(thetas) / s[:, None, None]
    return T, N, g, Omega, np.linalg.solve(g, Omega)


def frame(surface: MongeSurface, theta) -> BoundaryFrame:
    """Tangent rows, unit normal and metric at a chart point."""
    return BoundaryFrame(*(a[0] for a in _frame_parts(surface, _stack(theta))[1:4]))


def fundamental_forms(surface: MongeSurface, theta) -> BoundaryFrame:
    """Frame with the second fundamental form and shape matrix filled in."""
    return BoundaryFrame(*(a[0] for a in _forms(surface, _stack(theta))))


def gram_det_two_ways(surface: MongeSurface, theta):
    """det g by the Gram product and by the rank-one formula 1 + |grad|^2."""
    grad, T = (a[0] for a in _frame_parts(surface, _stack(theta))[:2])
    return float(np.linalg.det(T @ T.T)), 1.0 + float(grad @ grad)


def weingarten_identity_check(surface: MongeSurface, theta) -> float:
    """Residual of dN/dtheta_i = -sum_k W_{k,i} dpsi/dtheta_k (central
    differences at step 1e-5, so theta must lie 1e-5 inside the chart)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ff, d = fundamental_forms(surface, theta), surface.chart_dim
    if not surface.in_chart(theta, margin=1e-5):
        raise ValueError(f"theta {theta} lies within 1e-05 of the chart edge, so the "
                         "central-difference step leaves the chart domain")
    e = 1e-5 * np.eye(d)
    N = _frame_parts(surface, np.concatenate([theta + e, theta - e]))[2]
    dN = (N[:d] - N[d:]) / 2e-5
    recon = -sum(np.outer(ff.W[k], ff.T[k]) for k in range(d))
    return float(np.sqrt(np.vecdot(dN - recon, dN - recon)).max())


def _focal_crossing(W: np.ndarray, u: float):
    """Smallest |u*| <= |u| where det(I - u* W) hits zero, or None.

    W is one shape matrix or a stack of them; the stack crosses where any
    of its members does.
    """
    lam = np.linalg.eigvals(W).ravel()
    u_star = 1.0 / lam.real[(np.abs(lam.imag) <= 1e-12) & (lam.real != 0)]
    hits = np.abs(u_star[(u != 0) & (u_star * u > 0) & (np.abs(u_star) <= abs(u))])
    return float(hits.min()) if hits.size else None


def _offset_dets(W: np.ndarray, u: float):
    """Offset Jacobians |det(I - u W)| of one shape matrix or a stack."""
    return np.abs(np.linalg.det(np.eye(W.shape[-1]) - u * W))


def offset_jacobian(surface: MongeSurface, theta, u: float) -> float:
    """Volume distortion |det(I - u W)| of the normal offset map at depth u."""
    ff = fundamental_forms(surface, theta)
    cross = _focal_crossing(ff.W, u)
    if cross is not None:
        raise ValueError(f"offset depth |u| = {abs(u):g} crosses the focal "
                         f"distance {cross:g} at this chart point")
    with np.errstate(all="ignore"):  # a non-finite Jacobian is reported below
        jac = float(_offset_dets(ff.W, u))
    if not math.isfinite(jac):
        raise ArithmeticError(f"offset Jacobian at depth u = {u:g} is {jac}")
    return jac


class SignedDistanceResult(NamedTuple):
    d: float
    foot_theta: np.ndarray
    roundtrip_error: float


_LINE_SEARCH = 0.5 ** np.arange(27)  # t = 1, 1/2, ... as halving visits while t > 1e-8


def _project(surface: MongeSurface, x, starts, max_iter: int):
    """Damped Newton on |x - psi(theta)|^2 from all starts at once: the final
    chart points, embeddings and objective values, one row per start.

    A round evaluates the whole backtracking line search of the live starts
    in one stacked embedding, and each takes its first step length that
    raises the objective by at most 1e-12.  A start stops when none does or
    when its step is below 1e-14.
    """
    d, ax, others = surface.chart_dim, surface.graph_axis, surface._other_axes()
    lo_b, hi_b = np.array(surface.chart_domain, dtype=float).T
    theta, pts, eye = starts.copy(), surface._points(starts), np.eye(d)
    f = np.vecdot(x - pts, x - pts)
    live = np.arange(len(starts))
    for _ in range(max_iter):
        if not live.size:
            break
        th, delta = theta[live], x - pts[live]
        G = surface._grads(th)
        grad_f = -2.0 * (delta[:, others] + G * delta[:, ax, None])
        # d2/dtheta2 |x - psi|^2 = 2(g - (x - psi)_graph * hess phi)
        H = 2.0 * (eye + G[:, :, None] * G[:, None, :]
                   - delta[:, ax, None, None] * surface._hessians(th))
        lo_eig = np.linalg.eigvalsh(0.5 * (H + H.swapaxes(1, 2))).min(axis=1)
        low = lo_eig < 1e-10
        if low.any():
            H[low] += (1e-10 - lo_eig[low])[:, None, None] * eye
        step = np.linalg.solve(H, -grad_f[:, :, None])[:, None, :, 0]
        # backtracking keeps the iteration on a descent path even near
        # focal points where the raw Hessian is indefinite
        new = th[:, None] + _LINE_SEARCH[:, None] * step
        new = np.minimum(np.maximum(new, lo_b), hi_b).reshape(-1, d)  # np.clip
        p_new = surface._points(new)
        r = x - p_new
        f_new = np.vecdot(r, r).reshape(len(live), -1)
        accept = f_new <= (f[live] + 1e-12)[:, None]
        pick = accept.argmax(axis=1) + len(_LINE_SEARCH) * np.arange(len(live))
        moved = accept.ravel()[pick]
        live, pick = live[moved], pick[moved]
        dx = new[pick] - th[moved]
        stalled = np.sqrt(np.vecdot(dx, dx)) < 1e-14
        theta[live], pts[live], f[live] = new[pick], p_new[pick], f_new.ravel()[pick]
        live = live[~stalled]
    return theta, pts, f


def signed_distance(surface: MongeSurface, x, tube_alpha: float) -> SignedDistanceResult:
    """Signed normal distance and foot point by multi-start Newton.

    Minimizes |x - psi(theta)|^2 in at most 60 rounds from a lattice of
    about 9 chart starts, keeps the first start that reaches the least
    value, and signs the distance by the projection on the oriented normal.
    Rejects when the minimizer sits within 1e-6 of the chart edge, when |d|
    exceeds the tube radius, or when the Fermi round trip
    psi(foot) + d N(foot) fails to reproduce x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    axes = [np.linspace(lo, hi, max(2, round(9 ** (1 / surface.chart_dim))))
            for lo, hi in surface.chart_domain]
    starts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    theta, pts, f = _project(surface, x, starts, 60)
    best = int(np.argmin(f))
    foot = theta[best]
    if not surface.in_chart(foot, margin=1e-6):
        raise ValueError("projection foot lies on the chart boundary")
    fr = frame(surface, foot)
    dist = float((x - pts[best]) @ fr.N)
    if abs(dist) > tube_alpha:
        raise ValueError(f"point at |d| = {abs(dist):g} outside the {tube_alpha:g}-tube")
    rt = float(np.linalg.norm(pts[best] + dist * fr.N - x))
    if rt > 1e-8:
        raise ValueError(f"Fermi round trip error {rt:.3e} exceeds 1e-8")
    return SignedDistanceResult(dist, foot, rt)


class CoareaReport(NamedTuple):
    tube_integral: float
    iterated_integral: float
    rel_gap: float
    alpha_used: float
    ok: bool


def _chart_forms(surface: MongeSurface, n_theta: int):
    """Midpoint nodes of the chart, n_theta per axis, in one stacked evaluation.

    Every node passes the checks of a BoundaryFrame.  Returns the embedded
    points and unit normals (one row per node), the stacked shape matrices W
    and the area weights sqrt(det g) * cell volume.
    """
    steps = [(hi - lo) / n_theta for lo, hi in surface.chart_domain]
    axes = [lo + (np.arange(n_theta) + 0.5) * h
            for (lo, _), h in zip(surface.chart_domain, steps)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    ff = BoundaryFrame(*_forms(surface, nodes))
    area = np.sqrt(np.linalg.det(ff.g)) * math.prod(steps)
    return surface._points(nodes), ff.N, ff.W, area


def coarea_check(surface: MongeSurface, f: Callable, alpha: float,
                 n_r: int = 32, n_theta: int = 48) -> CoareaReport:
    """Two quadratures of the tube integral of f(distance-to-boundary).

    Route one: tensor midpoint rule over the Fermi chart (theta, u) with
    the |det(I - u W)| volume weight.  Route two: offset-slice surface
    areas integrated in the radial variable by per-cell two-point Gauss on
    a finer mesh.  Both radial rules run in s = sqrt(u), which absorbs the
    integrable blowup of profiles like u^(-1/2) at the boundary.  Shrinks
    alpha when a focal crossing is detected inside the tube.  The routes
    agree when their relative gap is at most 1e-3.
    """
    _, _, W, area = _chart_forms(surface, n_theta)
    # focal guard on the coarse nodes
    a = alpha
    for _ in range(20):
        if _focal_crossing(W, a) is None:
            break
        a = 0.5 * a

    def radial_integrand(s):
        u = s * s
        return 2.0 * s * float(f(u)) * float(_offset_dets(W, u) @ area)

    s_max = math.sqrt(a)
    # route 1: midpoint in s
    hs = s_max / n_r
    route1 = sum(radial_integrand((k + 0.5) * hs) * hs for k in range(n_r))
    # route 2: two-point Gauss per cell on a staggered, finer mesh
    m, xi = 2 * n_r, 0.5 / math.sqrt(3.0)
    hg = s_max / m
    route2 = sum(0.5 * hg * (radial_integrand((k + 0.5) * hg - xi * hg)
                             + radial_integrand((k + 0.5) * hg + xi * hg))
                 for k in range(m))
    gap = abs(route1 - route2) / max(abs(route2), 1e-300)
    return CoareaReport(route1, route2, gap, a, bool(gap <= 1e-3))


class LevelSetDensity(NamedTuple):
    value: float
    bound: float
    ok: bool


def level_set_density(kernel: dict, surface: MongeSurface, x, r: float,
                      alpha: Optional[float] = None,
                      n_theta: int = 64) -> LevelSetDensity:
    """Surface integral of a sub-Gaussian kernel over the r-offset boundary.

    kernel supplies (c_t, sigma_t, m_t); the density bound is the uniform
    estimate built from the Gaussian domination constants at epsilon = 1/2
    and the extreme offset Jacobians over the tube.
    """
    c_t, sigma_t, m_t = kernel["c_t"], kernel["sigma_t"], kernel["m_t"]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if alpha is None:
        alpha = max(r, 1e-6)
    if r > alpha:
        raise ValueError("offset depth r exceeds the tube radius alpha")
    mx = np.atleast_1d(np.asarray(m_t(x), dtype=float))
    prev, n_cur = None, n_theta
    for _ in range(6):
        points, N, W, area = _chart_forms(surface, n_cur)
        dy = points + r * N - mx
        q = c_t * np.exp(-np.sum(dy * dy, axis=1) / (2 * sigma_t**2))
        total = float((q * _offset_dets(W, r)) @ area)
        if prev is not None and abs(total - prev) <= 1e-5 * max(abs(total), 1e-6):
            break
        prev, n_cur = total, 2 * n_cur
    else:
        raise ArithmeticError("level-set quadrature did not converge")
    depths = (0.0, 0.5 * alpha, alpha)
    kappa = max(float(_offset_dets(W, rr).max()) for rr in depths)
    kappa_minus = max(float(_offset_dets(W, -rr).max()) for rr in depths)
    eps, n_amb = 0.5, surface.n
    varpi = c_t * (2 * math.pi * sigma_t**2) ** (n_amb / 2)
    iota = (1 - eps) ** (-n_amb / 2) * math.exp((1 / eps - 1) * alpha**2
                                                 / (2 * sigma_t**2))
    bound = varpi * iota * kappa_minus * kappa / alpha
    return LevelSetDensity(total, bound, bool(total <= bound + 1e-9))


@dataclass(frozen=True)
class BoundaryProfile:
    """Blowup profile chi(u) = u^-(1-eps) with its finite tube integral."""

    epsilon_exp: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon_exp < 1:
            raise ValueError("epsilon_exp must lie in (0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def chi(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise ValueError("chi is only defined for positive distances")
        return u ** (-(1.0 - self.epsilon_exp))

    def chi_bar(self) -> float:
        return self.alpha ** self.epsilon_exp / self.epsilon_exp


def boundary_lyapunov(profile: BoundaryProfile, domain, x) -> float:
    """chi(distance to the boundary) for interval or Monge-chart domains."""
    if isinstance(domain, MongeSurface):
        res = signed_distance(domain, x, tube_alpha=np.inf)
        d = abs(res.d)
    else:
        a, b = domain
        xv = float(np.asarray(x))
        d = min(xv - a, b - xv)
    return float(profile.chi(d))


# ---------------------------------------------------------------------------
# Named fixtures.
# ---------------------------------------------------------------------------

def make_polynomial_surface(coeffs: Sequence[float], domain=(-2.0, 2.0),
                            epsilon: int = 1, name: str = "custom") -> MongeSurface:
    """1D Monge graph from polynomial coefficients (lowest degree first)."""
    c0 = np.asarray(coeffs, dtype=float)
    c1, c2 = (np.polynomial.polynomial.polyder(c0, k) for k in (1, 2))

    def horner(x, c):  # numpy's polyval, without its per-call argument checks
        out = c[-1] + 0.0 * x
        for a in c[-2::-1]:
            out = a + out * x
        return out

    return MongeSurface(
        phi=lambda th: horner(th[:, 0], c0),
        grad=lambda th: horner(th, c1),
        hess=lambda th: horner(th[:, :, None], c2),
        chart_domain=(tuple(domain),), epsilon=epsilon, name=name)


def _atlas_8_4(epsilon: int) -> dict:
    """Example 8.4: psi0 takes the given epsilon, while psi_plus and
    psi_minus keep the orientations +1 and -1."""
    charts = {"psi0": make_polynomial_surface([0.0, 0.0, 1.0], (-2.0, 2.0),
                                              epsilon, "psi0")}
    for eps in (1, -1):
        charts[f"psi_{'plus' if eps == 1 else 'minus'}"] = MongeSurface(
            phi=lambda th, e=eps: -e * np.sqrt(th[:, 0]),
            grad=lambda th, e=eps: -e / (2 * np.sqrt(th)),
            hess=lambda th, e=eps: e / (4 * th[:, :, None] ** 1.5),
            chart_domain=((1.0, 16.0),), epsilon=eps, graph_axis=0,
            name=f"psi_eps({eps})")
    return charts


SURFACES = {
    "flat": lambda epsilon: MongeSurface(
        phi=lambda th: np.zeros(len(th)), grad=lambda th: np.zeros(th.shape),
        hess=lambda th: np.zeros((len(th), 1, 1)),
        chart_domain=((-8.0, 8.0),), epsilon=epsilon, name="flat"),
    "parabola": lambda epsilon: make_polynomial_surface(
        [0.0, 0.0, 1.0], (-2.0, 2.0), epsilon, "parabola"),
    "paraboloid": lambda epsilon: MongeSurface(
        phi=lambda th: th[:, 0] ** 2 + th[:, 1] ** 2, grad=lambda th: 2.0 * th,
        hess=lambda th: np.tile(2.0 * np.eye(2), (len(th), 1, 1)),
        chart_domain=((-2.0, 2.0), (-2.0, 2.0)), epsilon=epsilon, name="paraboloid"),
    "graph_example_8_4": _atlas_8_4,
}


def make_surface(name: str, epsilon: int = 1) -> object:
    """Named boundary fixture from `SURFACES`, built with the given epsilon;
    the atlas fixture returns a dict of charts."""
    if name not in SURFACES:
        raise ValueError(f"unknown surface fixture {name!r}")
    return SURFACES[name](epsilon)
