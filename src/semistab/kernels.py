"""Closed-form solvable sub-Markov semigroups and their grid discretization.

Implemented models: the quadratic-potential oscillator kernel on the line
(Gaussian with contracting mean, so-called Mehler form), its restriction to
the half line with absorption at the origin, the absorbed heat kernel on the
unit interval, linear Gaussian diffusions, and the half-line linear diffusion
in a quadratic potential.  Each exposes a pointwise transition density and,
where available, a closed-form total-mass function used to validate the
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .core import FunctionVec, GridDomain, LyapunovSpec, _grad_hess

__all__ = [
    "DiscreteOperator",
    "HarmonicOscillator",
    "HalfHarmonicOscillator",
    "DirichletHeat",
    "GaussOU",
    "HalfHarmonicLinear",
    "mehler_kernel",
    "mehler_mass",
    "hermite_polynomial",
    "hermite_functions",
    "hermite_series_kernel",
    "dirichlet_heat",
    "dirichlet_mass",
    "gauss_ou_kernel",
    "half_harmonic_linear",
    "half_linear_fixed_point",
    "controllable",
    "doob_h_transform",
    "undo_h_transform",
    "discretize",
    "generator_apply",
    "domination_transfer",
    "MODELS",
]

_SUB_MARKOV_SLACK = 1e-9
# Grid entries per block of rows in `discretize` and the h-transforms: their
# temporaries stay near 512 KB each instead of growing with the n x n matrix.
_DENSITY_BLOCK = 1 << 16


def _row_blocks(n: int):
    """(lo, hi) bounds of consecutive blocks of rows of an n x n matrix,
    each of about _DENSITY_BLOCK entries."""
    step = max(1, _DENSITY_BLOCK // n)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


@dataclass(frozen=True)
class DiscreteOperator:
    """Kernel mass between grid cells: entry (i, j) = q_tau(x_i, x_j) w_j.

    `self_adjoint` declares w_i K_ij = w_j K_ji (w the cell weights), which a
    symmetric density q gives; `discretize` copies it from the model and
    nothing checks it.  `leading_eigentriple` then iterates one side only.
    """

    matrix: np.ndarray
    grid: GridDomain
    time_step: float
    is_markov: bool = False
    quad_tol: float = 1e-6
    self_adjoint: bool = False

    def __post_init__(self):
        K = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", K)
        n = self.grid.size
        if K.shape != (n, n):
            raise ValueError("operator matrix must be square of the grid size")
        if self.time_step <= 0:
            raise ValueError("time_step must be positive")
        if not K.min(initial=np.inf) >= 0:  # False at a NaN entry too, unlike K.min() < 0
            bad = ~np.isfinite(K)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(f"operator has {int(bad.sum())} non-finite entries; "
                                 f"the first, ({i}, {j}), is {float(K[i, j])!r}")
            raise ValueError("operator entries must be nonnegative")
        rows = K.sum(axis=1)
        if self.is_markov:
            if (np.abs(rows - 1.0) > self.quad_tol).any():
                raise ValueError(
                    f"Markov rows must sum to 1 within {self.quad_tol:g}; "
                    f"worst deviation {np.abs(rows - 1).max():.3e}"
                )
        elif (rows > 1.0 + _SUB_MARKOV_SLACK).any():
            raise ValueError(
                f"sub-Markov rows must sum to <= 1; worst {rows.max():.17g}"
            )

    def compose(self, other: "DiscreteOperator") -> "DiscreteOperator":
        if other.grid is not self.grid and not np.array_equal(
            other.grid.points, self.grid.points
        ):
            raise ValueError("composition needs a common grid")
        return DiscreteOperator(
            self.matrix @ other.matrix,
            self.grid,
            self.time_step + other.time_step,
            is_markov=self.is_markov and other.is_markov,
            quad_tol=max(self.quad_tol, other.quad_tol) * 2,
        )

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


# ---------------------------------------------------------------------------
# Oscillator kernel on the line (Brownian motion killed at rate x^2/2).
# ---------------------------------------------------------------------------

def mehler_mass(t: float, x) -> np.ndarray:
    """Total mass Q_t(1)(x) = exp(-x^2 tanh(t)/2)/sqrt(cosh t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-(x ** 2) * np.tanh(t) / 2.0) / math.sqrt(math.cosh(t))


class _GaussianRows(NamedTuple):
    """Density rows factor(x) exp(-(y - m(x))^2 / 2p) of the starts x.

    With `image`, the rows of a Gaussian killed at the origin: the mirror
    term exp(-(y + m)^2 / 2p) is subtracted as exp(-(y - m)^2 / 2p)
    expm1(-2ym/p), which does not cancel where y m is small, and the rows
    vanish at y <= 0.
    """

    factor: np.ndarray  # of x's shape
    mean: np.ndarray    # of x's shape
    var: float
    image: bool = False

    def rows(self, y, w=None, out=None):
        """The density at y (broadcast against x), times the weights w;
        written into `out` when given, with one temporary of out's size
        for the image term and none otherwise."""
        y = np.asarray(y, dtype=float)
        if out is None:
            out = np.empty(np.broadcast_shapes(y.shape, np.shape(self.mean)))
        np.subtract(y, self.mean, out=out)
        np.square(out, out=out)
        np.multiply(out, -0.5 / self.var, out=out)
        np.exp(out, out=out)
        factor = self.factor
        if self.image:
            mirror = np.multiply(y, self.mean, out=np.empty_like(out))
            np.multiply(mirror, -2.0 / self.var, out=mirror)
            out *= np.expm1(mirror, out=mirror)
            factor = -factor  # the bracket 1 - exp(-2ym/p) is -expm1
        np.multiply(out, factor, out=out)
        if w is not None:
            np.multiply(out, w, out=out)
        if self.image and not (y > 0).all():
            np.copyto(out, 0.0, where=~(y > 0))
        return out if out.ndim else out[()]


class _GaussianModel:
    """A model whose density is one `_GaussianRows` per start x, which its
    `_gaussian_rows(t, x)` gives.  `discretize` writes those rows in place
    unless a subclass replaces `density`."""

    def density(self, t, x, y):
        return self._gaussian_rows(t, x).rows(y)


def _mehler_rows(t: float, x) -> _GaussianRows:
    p = math.tanh(t)
    factor = mehler_mass(t, x) / math.sqrt(2 * math.pi * p)  # mehler_mass checks t > 0
    return _GaussianRows(factor, np.asarray(x, dtype=float) / math.cosh(t), p)


def mehler_kernel(t: float, x, y) -> np.ndarray:
    """Transition density q_t(x, y): contracting Gaussian times mass factor.

    Mean x/cosh(t), variance tanh(t); total y-integral is mehler_mass(t, x).
    """
    return _mehler_rows(t, x).rows(y)


def hermite_polynomial(n: int, x) -> np.ndarray:
    """Physicists' Hermite polynomial by the two-term recurrence."""
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2 * x
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * k * h0
    return h1


def hermite_functions(N: int, x) -> np.ndarray:
    """First N orthonormal Hermite functions, shape (N, len(x)).

    Normalized recurrence; stable for N up to a few hundred without
    overflow since the Gaussian weight is folded in from the start.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((N, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if N > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, N):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] \
            - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def hermite_series_kernel(t: float, x, y, N: int) -> np.ndarray:
    """Spectral form of the oscillator kernel truncated to N eigenstates."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 200:
        raise ValueError("N > 200 rejected (normalization-stable range)")
    if t <= 0:
        raise ValueError("t must be positive")
    lam = np.exp(-(np.arange(N) + 0.5) * t)
    return _series(lam, hermite_functions(N, x), hermite_functions(N, y))


def _series(lam, fx, fy):
    """sum_k lam_k fx[k, i] fy[k, j] by one (1 x N) @ (N x ny) product per x,
    squeezed; a row keeps its bits in any batch of two or more rows."""
    out = np.matmul((lam[:, None] * fx).T[:, None, :], fy)[:, 0, :]
    return out[0, 0] if out.size == 1 else np.squeeze(out)


# ---------------------------------------------------------------------------
# Absorbed heat kernel on the unit interval.
# ---------------------------------------------------------------------------

def dirichlet_heat(t: float, x, y, N: int) -> np.ndarray:
    """Sine eigenexpansion of the absorbed heat kernel on (0, 1).

    Raw truncated series; may dip microscopically negative.  Clamping is
    applied only when assembling operators.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any((x <= 0) | (x >= 1)) or np.any((y <= 0) | (y >= 1)):
        raise ValueError("x and y must lie in the open interval (0, 1)")
    _, lam, sx, sy = _sine_modes(t, N, x, y)
    return _series(lam, sx, sy)


def _sine_modes(t: float, N: int, *points):
    """Mode numbers n = 1..N, their decay factors exp(-(n pi)^2 t / 2), and
    the eigenfunctions sqrt(2) sin(n pi x) as an (N, len(x)) array for each
    array of points."""
    ns = np.arange(1, N + 1)
    lam = np.exp(-((ns * math.pi) ** 2) * t / 2.0)
    return (ns, lam, *(np.sqrt(2.0) * np.sin(np.outer(ns, x) * math.pi) for x in points))


def dirichlet_mass(t: float, x, N: int = 100) -> np.ndarray:
    """Survival probability: integral of the kernel over (0, 1)."""
    ns, lam, sx = _sine_modes(t, N, np.atleast_1d(np.asarray(x, dtype=float)))
    integ = np.sqrt(2.0) * (1 - np.cos(ns * math.pi)) / (ns * math.pi)
    out = (lam * integ) @ sx
    return out[0] if out.size == 1 else out


# ---------------------------------------------------------------------------
# Exact Riccati flows (Radon's lemma) and linear Gaussian diffusions.
# ---------------------------------------------------------------------------

def _scalar_flow(a0: float, a1: float, b: float, z0: float, t: float):
    """Exact flow of zdot = a0 + a1 z - b z^2 from z0 >= 0 (a0, b >= 0).

    z = Y / X with [X; Y]' = [[-a1/2, b], [a0, a1/2]] [X; Y] from [1; z0];
    the matrix squares to beta^2 I.  Returns (z(t), log X(t)).  No term of
    the denominator is negative, so nothing cancels or overflows at any
    finite t.
    """
    if not math.isfinite(t):
        raise ValueError(f"the horizon t must be finite, not {t!r}")
    al = 0.5 * a1
    beta = math.sqrt(al * al + a0 * b)
    if beta == 0.0:
        den = 1.0 + b * z0 * t
        return z0 / den, math.log(den)
    e = math.exp(-2.0 * beta * t)
    s = -math.expm1(-2.0 * beta * t) / beta  # (1 - e) / beta
    gap = a0 * b / (beta + al) if al > 0 else beta - al  # beta - al >= 0
    # X = e^{beta t} den / 2, Y = e^{beta t} num / 2
    den = gap / beta + e * (1.0 + al / beta) + b * z0 * s
    if den == 0.0:  # a0 = z0 = 0 and e underflowed: z stays 0, X = e^{-al t}
        return 0.0, -al * t
    num = z0 * (1.0 + e) + (a0 + al * z0) * s
    return num / den, beta * t - math.log(2.0) + math.log(den)


def _scalar_fixed_point(a0: float, a1: float, b: float) -> float:
    """Positive root of a0 + a1 z - b z^2 = 0 (a0 >= 0, b > 0), the limit
    of `_scalar_flow`."""
    al = 0.5 * a1
    root = math.sqrt(al * al + a0 * b)
    if al < 0:  # the sum al + root would cancel
        return a0 / (root - al)
    return (al + root) / b


class MatrixFlow(NamedTuple):
    """The Riccati flow from p0 over a horizon, and so the flow map
    q -> p + F q (I + G q)^{-1} F' of the start p0 + q."""

    p: np.ndarray    # Riccati solution Y X^{-1}
    F: np.ndarray    # X^{-T}, fundamental matrix of the drift A - p S
    G: np.ndarray    # int F' S F = X^{-1} U, U the top-right block of exp(tH)
    logdet: float    # log det X, so that int Tr(S p) = logdet + t Tr A

    @classmethod
    def start(cls, p0: np.ndarray) -> "MatrixFlow":
        n = p0.shape[0]
        return cls(p0, np.eye(n), np.zeros((n, n)), 0.0)


def _compose(f: MatrixFlow, g: MatrixFlow) -> MatrixFlow:
    """The flow map f followed by g (Lainiotis' doubling formulas)."""
    M = np.eye(len(f.p)) + g.G @ f.p
    Minv = np.linalg.inv(M)
    p = g.p + g.F @ f.p @ Minv @ g.F.T
    G = f.G + f.F.T @ Minv @ g.G @ f.F
    return MatrixFlow(0.5 * (p + p.T), g.F @ Minv.T @ f.F, 0.5 * (G + G.T),
                      f.logdet + g.logdet + float(np.linalg.slogdet(M)[1]))


def _matrix_flow(A: np.ndarray, R: np.ndarray, S: np.ndarray, t: float,
                 start: MatrixFlow) -> MatrixFlow:
    """Exact flow of pdot = A p + p A' + R - p S p continued from `start`.

    p = Y X^{-1} with [X; Y]' = H [X; Y], H = [[-A', S], [R, A]].  The unit
    map is one expm(hH) with h = t / ceil(t ||H||_1), so ||hH||_1 <= 1 keeps
    it free of overflow; binary powering applies it ceil(t ||H||_1) times in
    O(log t) compositions.
    """
    from scipy.linalg import expm

    if not math.isfinite(t):
        raise ValueError(f"the horizon t must be finite, not {t!r}")
    n = A.shape[0]
    H = np.block([[-A.T, S], [R, A]])
    steps = max(1, math.ceil(t * np.linalg.norm(H, 1)))
    E = expm((t / steps) * H)
    E11inv = np.linalg.inv(E[:n, :n])
    unit = MatrixFlow(E[n:, :n] @ E11inv, E11inv.T, E11inv @ E[:n, n:],
                      float(np.linalg.slogdet(E[:n, :n])[1]))
    flow = start
    while True:
        if steps & 1:
            flow = _compose(flow, unit)
        steps >>= 1
        if not steps:
            return flow
        unit = _compose(unit, unit)


def controllable(A: np.ndarray, B: np.ndarray) -> bool:
    """Kalman rank condition on [B, AB, ..., A^{n-1}B]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    return U @ np.diag(np.sqrt(w)) @ U.T


def gauss_ou_kernel(t: float, A, Sigma, x):
    """Mean exp(tA) x and covariance of the linear diffusion at time t.

    Both come from the matrix flow with S = 0 and R = Sigma Sigma'; the
    covariance is positive definite for t > 0 under the Kalman rank condition.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if A.shape[0] != A.shape[1] or Sigma.shape[0] != A.shape[0]:
        raise ValueError("inconsistent dimensions for A, Sigma")
    if x.shape[0] != A.shape[0]:
        raise ValueError("state dimension does not match A")
    R = Sigma @ Sigma.T
    zero = np.zeros_like(A)
    flow = _matrix_flow(A, R, zero, t, MatrixFlow.start(zero))
    mean, cov = flow.F @ x, flow.p  # F = exp(tA) when S = 0
    if controllable(A, _psd_sqrt(R)):
        lo = np.linalg.eigvalsh(cov).min()
        if lo <= 0:
            raise ArithmeticError(
                f"covariance not positive definite (min eig {lo:.3e})"
            )
    return mean, cov


def _half_line_rows(t: float, x, a: float, varsigma: float):
    """Gaussian rows of the half-line linear diffusion's density, and the
    unabsorbed mass factor exp(-(varsigma/2)(pbar_t + chi_t x^2)) of x."""
    if t <= 0 or varsigma <= 0:
        raise ValueError("t and varsigma must be positive")
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():
        raise ValueError("x must be positive")
    p, log_x = _scalar_flow(1.0, 2.0 * a, varsigma, 0.0, t)
    free = np.exp(-0.5 * (log_x + a * t + varsigma * p * x * x))
    rows = _GaussianRows(free / math.sqrt(2 * math.pi * p), x * math.exp(-log_x), p, True)
    return rows, free


def half_harmonic_linear(t: float, x, a: float, varsigma: float):
    """Mass and density of the half-line linear diffusion, killed at 0,
    in the quadratic potential varsigma x^2 / 2.

    At (a, varsigma) = (0, 1) this is the absorbed oscillator, whose density
    is the mean-reflected difference of Gaussians.  The unabsorbed
    mass factor is exp(-(varsigma/2)(pbar_t + chi_t x^2)); absorption at the
    origin contributes the reflected Gaussian bracket.  With p_t = Y_t / X_t
    the scalar flow from 0, chi_t = p_t and varsigma pbar_t = log X_t + a t.
    The start x may be an array: the mass has its shape, and the density of
    y, normalised to total mass 1, broadcasts x against y.  The kernel,
    mass times density, needs no erf: `HalfHarmonicLinear.density`.
    """
    from scipy.special import erf

    rows, free = _half_line_rows(t, x, a, varsigma)
    m, p = rows.mean, rows.var
    z = 0.5 * erf(m / math.sqrt(p) / math.sqrt(2.0))  # P(0 <= Z <= m / sqrt(p))
    mass = 2.0 * free * z
    return mass, _GaussianRows(0.5 / (math.sqrt(2 * math.pi * p) * z), m, p, True).rows


def half_linear_fixed_point(a: float, varsigma: float) -> float:
    """Positive root of 2ap + 1 - varsigma p^2 = 0."""
    return _scalar_fixed_point(1.0, 2.0 * a, varsigma)


# ---------------------------------------------------------------------------
# Model registry objects used by discretize and the CLI.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicOscillator(_GaussianModel):
    name: ClassVar[str] = "harmonic"
    open_grid: ClassVar[bool] = False
    is_markov: ClassVar[bool] = False
    self_adjoint: ClassVar[bool] = True
    exact_rho: ClassVar[float] = -0.5

    def _gaussian_rows(self, t, x):
        return _mehler_rows(t, x)

    def mass(self, t, x):
        return mehler_mass(t, x)

    def exact_h(self, x):
        return math.pi ** -0.25 * np.exp(-np.asarray(x) ** 2 / 2)

    def eigenvalue(self, n):
        return -(n - 0.5)


@dataclass(frozen=True)
class DirichletHeat:
    n_terms: int = 50
    name: ClassVar[str] = "dirichlet_heat"
    open_grid: ClassVar[bool] = True
    is_markov: ClassVar[bool] = False
    self_adjoint: ClassVar[bool] = True
    exact_rho: ClassVar[float] = -math.pi ** 2 / 2

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")

    def density(self, t, x, y):
        return dirichlet_heat(t, x, y, self.n_terms)

    def mass(self, t, x):
        return dirichlet_mass(t, x, self.n_terms)

    def exact_h(self, x):
        return math.sqrt(2.0) * np.sin(math.pi * np.asarray(x))

    def eigenvalue(self, n):
        return -((n * math.pi) ** 2) / 2

    def default_grid(self, n):
        return GridDomain.uniform_open(0.0, 1.0, n)


@dataclass(frozen=True)
class GaussOU(_GaussianModel):
    """Scalar linear diffusion dX = a X dt + sigma dB (Markov)."""

    a: float = -1.0
    sigma: float = 1.0
    name: ClassVar[str] = "gauss_ou"
    open_grid: ClassVar[bool] = False
    is_markov: ClassVar[bool] = True
    self_adjoint: ClassVar[bool] = False
    exact_rho: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def _gaussian_rows(self, t, x):
        mean = np.exp(self.a * t) * np.asarray(x, dtype=float)
        if self.a == 0:
            var = self.sigma ** 2 * t
        else:
            var = self.sigma ** 2 * (math.expm1(2 * self.a * t)) / (2 * self.a)
        return _GaussianRows(1.0 / math.sqrt(2 * math.pi * var), mean, var)

    def mass(self, t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def stationary_cov(self):
        if self.a >= 0:
            raise ValueError("stationary quantities need a stable drift (a < 0)")
        return self.sigma ** 2 / (-2 * self.a)

    def default_grid(self, n):
        # cover both the driving noise and the stationary law, 8 standard
        # deviations each way, so edge rows keep their Gaussian mass inside
        w = 8.0 * max(self.sigma, math.sqrt(self.stationary_cov()))
        return GridDomain.uniform_closed(-w, w, n)


@dataclass(frozen=True)
class HalfHarmonicLinear(_GaussianModel):
    a: float = 0.0
    varsigma: float = 1.0
    name: ClassVar[str] = "half_harmonic_linear"
    open_grid: ClassVar[bool] = True
    is_markov: ClassVar[bool] = False

    def __post_init__(self):
        if self.varsigma <= 0:
            raise ValueError("varsigma must be positive")

    @property
    def self_adjoint(self):
        # w-symmetric at a = 0, where there is no drift; any other a breaks
        # the symmetry (a w-asymmetry of about 1e-9 at a = 1e-9)
        return self.a == 0

    @property
    def beta(self):
        return self.varsigma * half_linear_fixed_point(self.a, self.varsigma)

    @property
    def exact_rho(self):
        # free quadratic-potential rate -beta/2 plus the killed h-process
        # rate -(beta - a) at the origin barrier
        return self.a - 1.5 * self.beta

    def _gaussian_rows(self, t, x):
        return _half_line_rows(t, x, self.a, self.varsigma)[0]

    def mass(self, t, x):
        return half_harmonic_linear(t, x, self.a, self.varsigma)[0]

    def default_grid(self, n):
        return GridDomain.uniform_open(0.0, 8.0, n)


@dataclass(frozen=True)
class HalfHarmonicOscillator(HalfHarmonicLinear):
    """The absorbed oscillator: `HalfHarmonicLinear` at (a, varsigma) = (0, 1)."""

    a: float = field(default=0.0, init=False)
    varsigma: float = field(default=1.0, init=False)
    name: ClassVar[str] = "half_harmonic"

    def exact_h(self, x):
        x = np.asarray(x)
        return 2 * math.pi ** -0.25 * x * np.exp(-x ** 2 / 2)

    def eigenvalue(self, n):
        return -((2 * n - 1) + 0.5)


MODELS = {m.name: m for m in (HarmonicOscillator, HalfHarmonicOscillator, DirichletHeat,
                               GaussOU, HalfHarmonicLinear)}


# ---------------------------------------------------------------------------
# Discretization and operator-level transforms.
# ---------------------------------------------------------------------------

def discretize(model, grid: GridDomain, t: float) -> DiscreteOperator:
    """Quadrature realization of the kernel on the grid.

    Entry (i, j) = density(t, x_i, x_j) * cell_weight(j).  The Gaussian
    models (harmonic, half_harmonic, half_harmonic_linear, gauss_ou) have
    their rows written in place by the one helper `_GaussianRows.rows`,
    which makes no negative or NaN entry from finite inputs.  Any other
    density, a series model's or a subclass's own `density`, is evaluated
    on blocks of rows in broadcast calls, x a column, so it must accept an
    array of x; its entries are clamped at zero (a truncated eigenseries
    may dip microscopically negative).  When a block fails, its rows are
    evaluated one at a time only to name the first failing row in the
    raised ArithmeticError.  A Markov model's rows must sum to 1 within
    1e-6; a zero row (underflow) is an ArithmeticError.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    pts, w = grid.points, grid.cell_weights
    n = grid.size
    K = np.empty((n, n))
    gaussian = type(model).density is _GaussianModel.density
    for lo, hi in _row_blocks(n):
        try:
            with np.errstate(all="ignore"):  # non-finite and zero rows are reported below
                if gaussian:
                    model._gaussian_rows(t, pts[lo:hi, None]).rows(pts, w, out=K[lo:hi])
                else:
                    K[lo:hi] = model.density(t, pts[lo:hi, None], pts) * w
        except Exception as exc:
            where = f"on grid rows {lo} to {hi - 1} broadcast together"
            for i in range(lo, hi):  # name the first row that fails alone
                try:
                    model.density(t, pts[i], pts)
                except Exception as row_exc:
                    exc, where = row_exc, f"at grid row {i} (x={float(pts[i])!r})"
                    break
            raise ArithmeticError(f"density evaluation failed {where}") from exc
    if not gaussian:
        np.clip(K, 0.0, None, out=K)
    live = K.any(axis=1)
    if not live.all():
        raise ArithmeticError(f"the kernel mass underflowed to zero in {n - live.sum()} of "
                              f"{n} grid rows, the first at x={float(pts[live.argmin()])!r}")
    try:
        return DiscreteOperator(K, grid, t, is_markov=model.is_markov,
                                quad_tol=1e-6, self_adjoint=model.self_adjoint)
    except ValueError as exc:  # rows off by more than a quadrature error
        raise ArithmeticError(f"{n}-point grid quadrature failed: {exc}") from exc


def _conjugated(lam: float, K: np.ndarray, h: np.ndarray, inverse: bool) -> np.ndarray:
    """lam K_ij h_j / h_i (h_i / h_j if inverse), one block of rows at a time."""
    P = lam * K
    for lo, hi in _row_blocks(len(h)):
        if inverse:
            P[lo:hi] *= h[lo:hi, None] / h[None, :]
        else:
            P[lo:hi] *= h[None, :] / h[lo:hi, None]
    return P


def doob_h_transform(Q: DiscreteOperator, h: FunctionVec,
                     rho: float) -> DiscreteOperator:
    """Ground-state conjugation P_ij = e^{-rho tau} Q_ij h_j / h_i.

    With the exact leading pair this is Markov up to discretization error;
    the conjugation is algebraically invertible entrywise.
    """
    if np.any(h.values <= 0):
        raise ValueError("h must be positive everywhere on the grid")
    P = _conjugated(math.exp(-rho * Q.time_step), Q.matrix, h.values, inverse=False)
    return DiscreteOperator(P, Q.grid, Q.time_step, is_markov=False,
                            quad_tol=Q.quad_tol)


def undo_h_transform(P: DiscreteOperator, h: FunctionVec,
                     rho: float) -> DiscreteOperator:
    """Entrywise inverse of `doob_h_transform`."""
    Q = _conjugated(math.exp(rho * P.time_step), P.matrix, h.values, inverse=True)
    return DiscreteOperator(Q, P.grid, P.time_step, is_markov=False,
                            quad_tol=P.quad_tol)


# ---------------------------------------------------------------------------
# Generators by finite differences.
# ---------------------------------------------------------------------------

class GeneratorValue(NamedTuple):
    lv: float       # L(V)(x)
    gamma: float    # Gamma_L(V, V)(x) = (grad V)' Sigma^2 grad V
    fd_error: float  # Richardson estimate of the finite-difference error


def _as_point_fun(V):
    if isinstance(V, LyapunovSpec):
        return V.at
    return lambda x: float(V(np.asarray(x, dtype=float)))


def generator_apply(drift, diffusion, V, x, fd_step: float = 1e-4) -> GeneratorValue:
    """Diffusion generator L(V) = b' grad V + Tr(Sigma^2 Hess V)/2 at x.

    Derivatives by central differences at fd_step, with a half-step
    Richardson pass; the returned values use the finer step and fd_error
    reports the difference between the two levels.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    f = _as_point_fun(V)
    b = np.atleast_1d(np.asarray(drift(x), dtype=float))
    sig = diffusion(x) if callable(diffusion) else diffusion
    sig = np.atleast_2d(np.asarray(sig, dtype=float))
    if sig.shape == (1, 1) and d > 1:
        sig = sig[0, 0] * np.eye(d)
    S2 = sig @ sig.T

    def lv_at(h):
        g, H = _grad_hess(f, x, h)
        return float(b @ g + 0.5 * np.trace(S2 @ H)), g

    coarse, _ = lv_at(fd_step)
    fine, g = lv_at(fd_step / 2)
    gamma = float(g @ S2 @ g)
    return GeneratorValue(fine, gamma, abs(fine - coarse))


# ---------------------------------------------------------------------------
# Domination transfer via Hoelder.
# ---------------------------------------------------------------------------

class DominationReport(NamedTuple):
    holder_max: float
    theta: FunctionVec          # transferred drift ratio Q(V^{1/p}) / V^{1/p}
    excluded: np.ndarray        # grid indices where Q(1) vanished
    p: float
    edge_decay_ok: bool


def domination_transfer(Q: DiscreteOperator, V: LyapunovSpec,
                        p: float) -> DominationReport:
    """Check Q(V^{1/p}) <= Q(V)^{1/p} Q(1)^{1-1/p} pointwise on the grid.

    The report also carries the transferred drift function
    theta = Q(V^{1/p}) / V^{1/p}, whose decay toward the grid edges is the
    surrogate vanishing-at-infinity statement.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    K = Q.matrix
    vals = V(Q.grid.points)
    Q1 = K.sum(axis=1)
    QV = K @ vals
    QVp = K @ (vals ** (1.0 / p))
    ok = Q1 > 0
    excluded = np.nonzero(~ok)[0]
    ratio = np.zeros_like(Q1)
    denom = (QV[ok] ** (1.0 / p)) * (Q1[ok] ** (1.0 - 1.0 / p))
    ratio[ok] = QVp[ok] / denom
    theta = FunctionVec(QVp / (vals ** (1.0 / p)), Q.grid)
    k = max(1, Q.grid.size // 20)
    interior_max = theta.values[k:-k].max() if Q.grid.size > 2 * k else theta.values.max()
    edge = max(theta.values[:k].max(), theta.values[-k:].max())
    return DominationReport(
        holder_max=float(ratio[ok].max()),
        theta=theta,
        excluded=excluded,
        p=p,
        edge_decay_ok=bool(edge <= interior_max),
    )
