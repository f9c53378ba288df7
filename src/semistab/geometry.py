"""Hypersurface boundary toolkit for graph (Monge) charts in 2D and 3D.

Frames, fundamental forms and shape matrices; offset-surface Jacobians in
Fermi coordinates; signed distance by multi-start Newton projection; co-area
consistency checks; level-set densities of sub-Gaussian kernels; and the
boundary-blowup Lyapunov profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import _grad_hess

__all__ = [
    "MongeSurface",
    "BoundaryFrame",
    "BoundaryProfile",
    "make_surface",
    "make_polynomial_surface",
    "frame",
    "fundamental_forms",
    "weingarten_identity_check",
    "offset_jacobian",
    "signed_distance",
    "coarea_check",
    "level_set_density",
    "boundary_lyapunov",
]


@dataclass(frozen=True)
class MongeSurface:
    """Graph chart theta -> (theta, phi(theta)) up to an axis permutation.

    phi maps the (n-1)-dimensional chart domain to the graph coordinate
    `graph_axis` of ambient R^n.  Derivatives use the analytic callbacks
    when supplied, central differences at fd_step otherwise.  epsilon flips
    the normal orientation (and with it the signs of Omega and W).
    """

    phi: Callable
    chart_domain: tuple
    n: int = 2
    epsilon: int = 1
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    graph_axis: Optional[int] = None
    fd_step: float = 1e-5
    name: str = ""

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("only ambient dimensions 2 and 3 are supported")
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if len(self.chart_domain) != self.n - 1:
            raise ValueError("chart_domain must have n-1 intervals")
        if self.graph_axis is None:
            object.__setattr__(self, "graph_axis", self.n - 1)

    @property
    def chart_dim(self) -> int:
        return self.n - 1

    def in_chart(self, theta, margin: float = 0.0) -> bool:
        theta = np.atleast_1d(theta)
        return theta.shape == (self.chart_dim,) and all(
            lo + margin <= t <= hi - margin
            for t, (lo, hi) in zip(theta, self.chart_domain)
        )

    def _other_axes(self):
        return [i for i in range(self.n) if i != self.graph_axis]

    def embed(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.empty(self.n)
        out[self.graph_axis] = self.phi(theta)
        for k, ax in enumerate(self._other_axes()):
            out[ax] = theta[k]
        return out

    def gradient(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.grad is not None:
            return np.atleast_1d(np.asarray(self.grad(theta), dtype=float))
        return _grad_hess(self.phi, theta, self.fd_step)[0]

    def hessian(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.hess is not None:
            H = np.atleast_2d(np.asarray(self.hess(theta), dtype=float))
        else:
            H = _grad_hess(self.phi, theta, self.fd_step)[1]
        if np.abs(H - H.T).max() > 1e-8:
            raise ValueError("Hessian not symmetric at this chart point")
        return H


@dataclass(frozen=True)
class BoundaryFrame:
    T: np.ndarray                 # (n-1, n) tangent rows
    N: np.ndarray                 # unit normal
    g: np.ndarray                 # first fundamental form
    Omega: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None

    def __post_init__(self):
        if abs(np.linalg.norm(self.N) - 1.0) > 1e-10:
            raise ValueError("normal is not unit length")
        if np.abs(self.T @ self.N).max() > 1e-10:
            raise ValueError("tangent vectors are not orthogonal to the normal")
        if np.abs(self.g - self.g.T).max() > 1e-12 or np.linalg.eigvalsh(self.g).min() <= 0:
            raise ValueError("metric must be symmetric positive definite")
        if self.Omega is not None and self.W is not None:
            if np.abs(np.linalg.solve(self.g, self.Omega) - self.W).max() > 1e-10:
                raise ValueError("W != g^{-1} Omega")


def _frame_parts(surface: MongeSurface, theta):
    """Gradient, tangent rows, unit normal and metric from one gradient call.

    Metric is the rank-one update I + grad grad'; its determinant equals
    1 + |grad|^2 exactly.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not surface.in_chart(theta):
        raise ValueError(f"theta {theta} outside chart domain")
    grad = surface.gradient(theta)
    d, others = surface.chart_dim, surface._other_axes()
    T = np.zeros((d, surface.n))
    T[:, others] = np.eye(d)
    T[:, surface.graph_axis] = grad
    N = np.zeros(surface.n)
    N[others] = grad
    N[surface.graph_axis] = -1.0
    N = surface.epsilon * N / math.sqrt(1.0 + float(grad @ grad))
    return grad, T, N, np.eye(d) + np.outer(grad, grad)


def frame(surface: MongeSurface, theta) -> BoundaryFrame:
    """Tangent rows, unit normal and metric at a chart point."""
    return BoundaryFrame(*_frame_parts(surface, theta)[1:])


def fundamental_forms(surface: MongeSurface, theta) -> BoundaryFrame:
    """Frame with the second fundamental form and shape matrix filled in."""
    grad, T, N, g = _frame_parts(surface, theta)
    H = surface.hessian(theta)
    Omega = -surface.epsilon * H / math.sqrt(1.0 + float(grad @ grad))
    return BoundaryFrame(T, N, g, Omega, np.linalg.solve(g, Omega))


def gram_det_two_ways(surface: MongeSurface, theta):
    """det g by the Gram product and by the rank-one formula 1 + |grad|^2."""
    grad, T, _, _ = _frame_parts(surface, theta)
    return float(np.linalg.det(T @ T.T)), 1.0 + float(grad @ grad)


def weingarten_identity_check(surface: MongeSurface, theta,
                              fd_step: float = 1e-5) -> float:
    """Residual of dN/dtheta_i = -sum_k W_{k,i} dpsi/dtheta_k (central diffs)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ff = fundamental_forms(surface, theta)
    resid = 0.0
    for i in range(surface.chart_dim):
        e = np.zeros(surface.chart_dim)
        e[i] = fd_step
        dN = (frame(surface, theta + e).N - frame(surface, theta - e).N) / (2 * fd_step)
        recon = -sum(ff.W[k, i] * ff.T[k] for k in range(surface.chart_dim))
        resid = max(resid, float(np.linalg.norm(dN - recon)))
    return resid


def _focal_crossing(W: np.ndarray, u: float):
    """Smallest |u*| <= |u| where det(I - u* W) hits zero, or None.

    W is one shape matrix or a stack of them; the stack crosses where any
    of its members does.
    """
    eigs = np.linalg.eigvals(W).ravel()
    crossings = []
    for lam in eigs:
        if abs(lam.imag) > 1e-12 or lam.real == 0:
            continue
        u_star = 1.0 / lam.real
        if u != 0 and u_star * u > 0 and abs(u_star) <= abs(u):
            crossings.append(abs(u_star))
    return min(crossings) if crossings else None


def _offset_dets(W: np.ndarray, u: float):
    """Offset Jacobians |det(I - u W)| of one shape matrix or a stack."""
    return np.abs(np.linalg.det(np.eye(W.shape[-1]) - u * W))


def offset_jacobian(surface: MongeSurface, theta, u: float) -> float:
    """Volume distortion |det(I - u W)| of the normal offset map at depth u."""
    ff = fundamental_forms(surface, theta)
    cross = _focal_crossing(ff.W, u)
    if cross is not None:
        raise ValueError(
            f"offset depth |u| = {abs(u):g} crosses the focal distance "
            f"{cross:g} at this chart point"
        )
    return float(_offset_dets(ff.W, u))


@dataclass(frozen=True)
class SignedDistanceResult:
    d: float
    foot_theta: np.ndarray
    roundtrip_error: float


def signed_distance(surface: MongeSurface, x, tube_alpha: float,
                    n_starts: int = 9, max_iter: int = 60,
                    boundary_margin: float = 1e-6) -> SignedDistanceResult:
    """Signed normal distance and foot point by multi-start Newton.

    Minimizes |x - psi(theta)|^2 from a coarse lattice of chart starts,
    keeps the best interior minimizer, and signs the distance by the
    projection on the oriented normal.  Rejects when the minimizer sits on
    the chart edge, when |d| exceeds the tube radius, or when the Fermi
    round trip psi(foot) + d N(foot) fails to reproduce x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d, ax, others = surface.chart_dim, surface.graph_axis, surface._other_axes()
    axes = [np.linspace(lo, hi, max(2, round(n_starts ** (1 / d))))
            for lo, hi in surface.chart_domain]
    starts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    lo_b, hi_b = np.array(surface.chart_domain, dtype=float).T

    def newton(theta):
        # iterates stay in the chart box by clipping, so the chart
        # derivatives are read directly, without a validated frame
        delta = x - surface.embed(theta)
        f_cur = float(delta @ delta)
        for _ in range(max_iter):
            grad_phi = surface.gradient(theta)
            grad_f = -2.0 * (delta[others] + grad_phi * delta[ax])
            # d2/dtheta2 |x - psi|^2 = 2(g - (x - psi)_graph * hess phi)
            H = 2.0 * (np.eye(d) + np.outer(grad_phi, grad_phi)
                       - delta[ax] * surface.hessian(theta))
            lo_eig = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())
            if lo_eig < 1e-10:
                H = H + (1e-10 - lo_eig) * np.eye(d)
            step = np.linalg.solve(H, -grad_f)
            # backtracking keeps the iteration on a descent path even near
            # focal points where the raw Hessian is indefinite
            t_ls = 1.0
            while t_ls > 1e-8:
                new = np.clip(theta + t_ls * step, lo_b, hi_b)
                delta_new = x - surface.embed(new)
                f_new = float(delta_new @ delta_new)
                if f_new <= f_cur + 1e-12:
                    break
                t_ls *= 0.5
            else:
                break
            stalled = np.linalg.norm(new - theta) < 1e-14
            theta, delta, f_cur = new, delta_new, f_new
            if stalled:
                break
        return theta, f_cur

    # min keeps the first start among equal objective values
    foot, _ = min((newton(s) for s in starts), key=lambda r: r[1])
    if not surface.in_chart(foot, margin=boundary_margin):
        raise ValueError("projection foot lies on the chart boundary")
    fr = frame(surface, foot)
    dist = float((x - surface.embed(foot)) @ fr.N)
    if abs(dist) > tube_alpha:
        raise ValueError(
            f"point at |d| = {abs(dist):g} outside the {tube_alpha:g}-tube"
        )
    rt = float(np.linalg.norm(surface.embed(foot) + dist * fr.N - x))
    if rt > 1e-8:
        raise ValueError(f"Fermi round trip error {rt:.3e} exceeds 1e-8")
    return SignedDistanceResult(dist, foot, rt)


@dataclass(frozen=True)
class CoareaReport:
    tube_integral: float
    iterated_integral: float
    rel_gap: float
    alpha_used: float
    ok: bool


def _chart_forms(surface: MongeSurface, n_theta: int):
    """Midpoint nodes of the chart, n_theta per axis, each evaluated once.

    Returns the embedded points and unit normals (one row per node), the
    stacked shape matrices W and the area weights sqrt(det g) * cell volume.
    """
    steps = [(hi - lo) / n_theta for lo, hi in surface.chart_domain]
    axes = [lo + (np.arange(n_theta) + 0.5) * h
            for (lo, _), h in zip(surface.chart_domain, steps)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    nodes = nodes.reshape(-1, surface.chart_dim)
    forms = [fundamental_forms(surface, th) for th in nodes]
    points = np.array([surface.embed(th) for th in nodes])
    N = np.array([ff.N for ff in forms])
    W = np.array([ff.W for ff in forms])
    area = np.sqrt(np.linalg.det(np.array([ff.g for ff in forms]))) * math.prod(steps)
    return points, N, W, area


def coarea_check(surface: MongeSurface, f: Callable, alpha: float,
                 n_r: int = 32, n_theta: int = 48,
                 rel_tol: float = 1e-3) -> CoareaReport:
    """Two quadratures of the tube integral of f(distance-to-boundary).

    Route one: tensor midpoint rule over the Fermi chart (theta, u) with
    the |det(I - u W)| volume weight.  Route two: offset-slice surface
    areas integrated in the radial variable by per-cell two-point Gauss on
    a finer mesh.  Both radial rules run in s = sqrt(u), which absorbs the
    integrable blowup of profiles like u^(-1/2) at the boundary.  Shrinks
    alpha when a focal crossing is detected inside the tube.
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
    m = 2 * n_r
    hg = s_max / m
    xi = 0.5 / math.sqrt(3.0)
    route2 = 0.0
    for k in range(m):
        mid = (k + 0.5) * hg
        route2 += 0.5 * hg * (
            radial_integrand(mid - xi * hg) + radial_integrand(mid + xi * hg)
        )
    gap = abs(route1 - route2) / max(abs(route2), 1e-300)
    return CoareaReport(route1, route2, gap, a, bool(gap <= rel_tol))


@dataclass(frozen=True)
class LevelSetDensity:
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

    prev = None
    n_cur = n_theta
    for _ in range(6):
        points, N, W, area = _chart_forms(surface, n_cur)
        dy = points + r * N - mx
        q = c_t * np.exp(-np.sum(dy * dy, axis=1) / (2 * sigma_t**2))
        total = float((q * _offset_dets(W, r)) @ area)
        if prev is not None and abs(total - prev) <= 1e-5 * max(abs(total), 1e-6):
            break
        prev = total
        n_cur *= 2
    else:
        raise ArithmeticError("level-set quadrature did not converge")
    depths = (0.0, 0.5 * alpha, alpha)
    kappa = max(float(_offset_dets(W, rr).max()) for rr in depths)
    kappa_minus = max(float(_offset_dets(W, -rr).max()) for rr in depths)
    eps = 0.5
    n_amb = surface.n
    varpi = c_t * (2 * math.pi * sigma_t**2) ** (n_amb / 2)
    iota = (1 - eps) ** (-n_amb / 2) * math.exp(
        (1 / eps - 1) * alpha**2 / (2 * sigma_t**2)
    )
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

    def chi_bar(self, alpha: Optional[float] = None) -> float:
        a = self.alpha if alpha is None else alpha
        return a ** self.epsilon_exp / self.epsilon_exp


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
    coeffs = np.asarray(coeffs, dtype=float)
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    d2coef = np.polynomial.polynomial.polyder(coeffs, 2)
    return MongeSurface(
        phi=lambda th: float(np.polynomial.polynomial.polyval(th[0], coeffs)),
        grad=lambda th: np.array([np.polynomial.polynomial.polyval(th[0], dcoef)]),
        hess=lambda th: np.array([[np.polynomial.polynomial.polyval(th[0], d2coef)]]),
        chart_domain=(tuple(domain),),
        n=2,
        epsilon=epsilon,
        name=name,
    )


def make_surface(name: str, epsilon: int = 1) -> object:
    """Named boundary fixtures; the atlas fixture returns a dict of charts."""
    if name == "flat":
        return MongeSurface(
            phi=lambda th: 0.0,
            grad=lambda th: np.zeros(1),
            hess=lambda th: np.zeros((1, 1)),
            chart_domain=((-8.0, 8.0),),
            n=2,
            epsilon=epsilon,
            name="flat",
        )
    if name == "parabola":
        return make_polynomial_surface([0.0, 0.0, 1.0], (-2.0, 2.0),
                                       epsilon, "parabola")
    if name == "paraboloid":
        return MongeSurface(
            phi=lambda th: float(th[0] ** 2 + th[1] ** 2),
            grad=lambda th: 2.0 * np.asarray(th, dtype=float),
            hess=lambda th: 2.0 * np.eye(2),
            chart_domain=((-2.0, 2.0), (-2.0, 2.0)),
            n=3,
            epsilon=epsilon,
            name="paraboloid",
        )
    if name == "graph_example_8_4":
        charts = {"psi0": make_polynomial_surface([0.0, 0.0, 1.0], (-2.0, 2.0),
                                                  1, "psi0")}
        for eps in (1, -1):
            charts[f"psi_{'plus' if eps == 1 else 'minus'}"] = MongeSurface(
                phi=lambda th, e=eps: float(-e * math.sqrt(th[0])),
                grad=lambda th, e=eps: np.array([-e / (2 * math.sqrt(th[0]))]),
                hess=lambda th, e=eps: np.array([[e / (4 * th[0] ** 1.5)]]),
                chart_domain=((1.0, 16.0),),
                n=2,
                epsilon=eps,
                graph_axis=0,
                name=f"psi_eps({eps})",
            )
        return charts
    raise ValueError(f"unknown surface fixture {name!r}")
