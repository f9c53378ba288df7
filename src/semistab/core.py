"""Measures, functions, norms and the Boltzmann-Gibbs transform on grids.

State spaces are discretized as weighted quadrature grids.  Measures are
carried as atom masses sitting on the grid points (not densities), so total
variation and V-norms are exact finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "GridDomain",
    "MeasureVec",
    "FunctionVec",
    "LyapunovSpec",
    "tv_norm",
    "v_norm_measure",
    "v_operator_norm",
    "boltzmann_gibbs",
    "coupling_equivalence",
    "open_edge_divergence_ok",
]

_VOL_RTOL = 1e-12


class GridError(ValueError):
    pass


class DegenerateNormalizationError(ValueError):
    """mu(h) <= 0 in a Boltzmann-Gibbs reweighting."""


@dataclass(frozen=True)
class GridDomain:
    """Quadrature grid over a 1D interval.

    points : strictly increasing (n,) array.
    cell_weights : positive quadrature weight per point, summing to the
        interval length.
    bounds : ((a, b),).
    """

    points: np.ndarray
    cell_weights: np.ndarray
    bounds: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.cell_weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cell_weights", w)
        if w.shape != (len(pts),):
            raise GridError("cell_weights length must match points")
        if not (w > 0).all():
            raise GridError("all cell_weights must be positive")
        if pts.ndim != 1:
            raise GridError("points must be an (n,) array")
        if not (pts[1:] > pts[:-1]).all():
            raise GridError("1D points must be strictly increasing")
        vol = float(math.prod([b - a for a, b in self.bounds]))
        if abs(w.sum() - vol) > _VOL_RTOL * max(abs(vol), 1.0):
            raise GridError(
                f"cell_weights sum {w.sum():.17g} != domain volume {vol:.17g}"
            )

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def uniform_closed(cls, a: float, b: float, n: int) -> "GridDomain":
        """Uniform grid on [a, b] with trapezoid weights (endpoints included)."""
        if n < 2:
            raise GridError(f"a closed grid needs n >= 2 points, got {n}")
        if not a < b:
            raise GridError(f"a closed grid needs min < max, got [{a:g}, {b:g}]")
        h = (b - a) / (n - 1)
        if not 0 < h < np.inf:
            raise GridError(f"a closed grid on [{a:g}, {b:g}] with n = {n} has spacing {h:g}, "
                            "not a positive finite number")
        pts = np.linspace(a, b, n)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        if not ((pts[1:] > pts[:-1]).all() and (w > 0).all()):
            raise GridError(f"a closed grid on [{a!r}, {b!r}] with n = {n} has spacing {h!r}, "
                            "too fine for strictly increasing points with positive weights")
        return cls(pts, w, ((a, b),))

    @classmethod
    def uniform_open(cls, a: float, b: float, n: int) -> "GridDomain":
        """Midpoint grid on (a, b): cell centers, endpoints excluded."""
        if n < 1:
            raise GridError(f"an open grid needs n >= 1 points, got {n}")
        if not a < b:
            raise GridError(f"an open grid needs min < max, got ({a:g}, {b:g})")
        h = (b - a) / n
        if not 0 < h < np.inf:
            raise GridError(f"an open grid on ({a:g}, {b:g}) with n = {n} has spacing {h:g}, "
                            "not a positive finite number")
        pts = a + (np.arange(n) + 0.5) * h
        # the weights are h > 0; the points may still round together or onto an end
        if not ((pts[1:] > pts[:-1]).all() and a < pts[0] and pts[-1] < b):
            raise GridError(f"an open grid on ({a!r}, {b!r}) with n = {n} has spacing {h!r}, "
                            "too fine for strictly increasing points inside the interval")
        return cls(pts, np.full(n, h), ((a, b),))


@dataclass(frozen=True)
class MeasureVec:
    """Signed measure as atom masses on the grid points."""

    masses: np.ndarray
    grid: GridDomain

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.shape != (self.grid.size,):
            raise GridError("masses length must match grid size")
        if not np.all(np.isfinite(m)):
            raise GridError("measure masses must be finite")

    @classmethod
    def dirac(cls, grid: GridDomain, index: int) -> "MeasureVec":
        m = np.zeros(grid.size)
        m[index] = 1.0
        return cls(m, grid)

    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class FunctionVec:
    """Function given by its values on the grid points."""

    values: np.ndarray
    grid: GridDomain

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.size,):
            raise GridError("values length must match grid size")
        if not np.all(np.isfinite(v)):
            raise GridError("function values must be finite")


def _require_same_grid(g1: GridDomain, g2: GridDomain):
    if g1 is not g2 and (g1.size != g2.size or not np.array_equal(g1.points, g2.points)):
        raise GridError("operands live on different grids")


# ---------------------------------------------------------------------------
# Lyapunov families.
#
# A small closed mini-language instead of arbitrary callables, so configs
# stay reproducible.  Spellings accepted by `parse`:
#   "const:0.5"  "poly:4"  "exp:0.5"  "inv_plus_poly:2"  "boundary:0.5"
#   "product:[poly:2,boundary:0.5]"
# ---------------------------------------------------------------------------

class LyapunovSpec(NamedTuple):
    family: str
    params: dict

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c: float) -> "LyapunovSpec":
        if c <= 0:
            raise ValueError("const family needs c > 0")
        return cls("const", {"c": float(c)})

    @classmethod
    def poly(cls, k: float) -> "LyapunovSpec":
        """V(x) = 1 + |x|^k."""
        return cls("poly", {"k": float(k)})

    @classmethod
    def exp(cls, v: float) -> "LyapunovSpec":
        """V(x) = exp(v |x|)."""
        return cls("exp", {"v": float(v)})

    @classmethod
    def inv_plus_poly(cls, n: float) -> "LyapunovSpec":
        """V(x) = x^n + 1/x on the half line (singular at 0)."""
        return cls("inv_plus_poly", {"n": float(n)})

    @classmethod
    def boundary(cls, eps: float) -> "LyapunovSpec":
        """V(x) = d(x, {0, 1})^-(1-eps) on the unit interval."""
        if not 0 < eps < 1:
            raise ValueError("boundary family needs eps in (0,1)")
        return cls("boundary", {"eps": float(eps)})

    @classmethod
    def affine_rescale(cls, base: "LyapunovSpec", a: float, b: float) -> "LyapunovSpec":
        """V(x) = a + b * base(x)."""
        if a < 0 or b <= 0:
            raise ValueError("affine_rescale needs a >= 0 and b > 0")
        return cls("affine_rescale", {"base": base, "a": float(a), "b": float(b)})

    @classmethod
    def product(cls, factors: Sequence["LyapunovSpec"]) -> "LyapunovSpec":
        if not factors:
            raise ValueError("product family needs at least one factor")
        return cls("product", {"factors": tuple(factors)})

    @classmethod
    def table(cls, values, grid: "GridDomain") -> "LyapunovSpec":
        """Explicit values on a fixed grid (programmatic use, not in configs).

        Evaluation is only defined at the carrier grid's own points; chains
        on abstract state spaces use this family.
        """
        values = np.asarray(values, dtype=float)
        if (values <= 0).any():
            raise ValueError("table family needs positive values")
        return cls("table", {"values": values, "grid": grid})

    @classmethod
    def parse(cls, spelling: str) -> "LyapunovSpec":
        if not isinstance(spelling, str):
            raise ValueError(f"Lyapunov spelling must be a string, not {spelling!r}")
        spelling = spelling.strip()
        if spelling.startswith("product:"):
            inner = spelling[len("product:"):].strip()
            if not (inner.startswith("[") and inner.endswith("]")):
                raise ValueError(f"bad product spelling {spelling!r}")
            parts, depth, cur = [], 0, ""
            for ch in inner[1:-1]:
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                if ch == "," and depth == 0:
                    parts.append(cur)
                    cur = ""
                else:
                    cur += ch
            parts.append(cur)
            if not all(p.strip() for p in parts):
                raise ValueError(f"empty factor in product spelling {spelling!r}")
            return cls.product([cls.parse(p) for p in parts])
        try:
            name, arg = spelling.split(":", 1)
        except ValueError:
            raise ValueError(f"bad Lyapunov spelling {spelling!r}") from None
        name = name.strip()
        if name not in ("const", "poly", "exp", "inv_plus_poly", "boundary"):
            raise ValueError(f"unknown Lyapunov family {name!r}")
        try:
            value = float(arg)
        except ValueError:
            raise ValueError(f"bad Lyapunov spelling {spelling!r}: {arg.strip()!r} is not "
                             "a number") from None
        return getattr(cls, name)(value)

    # -- evaluation ---------------------------------------------------------
    @np.errstate(all="ignore")  # a non-finite or non-positive value is reported below
    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        pts = np.atleast_1d(x)
        fam = self.family
        if fam in ("const", "poly", "exp", "product"):
            r = np.linalg.norm(pts, axis=1) if pts.ndim == 2 else np.abs(pts)
        if fam == "const":
            out = np.full(r.shape, self.params["c"])
        elif fam == "poly":
            out = 1.0 + r ** self.params["k"]
        elif fam == "exp":
            out = np.exp(self.params["v"] * r)
        elif fam == "inv_plus_poly":
            if (pts <= 0).any():
                raise ValueError("inv_plus_poly is only defined for x > 0")
            out = pts ** self.params["n"] + 1.0 / pts
        elif fam == "boundary":
            d = np.minimum(pts, 1.0 - pts)
            if (d <= 0).any():
                raise ValueError("boundary family evaluated outside the open interval")
            out = d ** (-(1.0 - self.params["eps"]))
        elif fam == "table":
            tab_grid = self.params["grid"]
            tab = self.params["values"]
            # the first grid point >= x - 2e-12 is the one within 1e-12 of x, if any
            # (spacing > 3e-12); checked as allclose(rtol=0, atol=1e-12), NaN fails
            idx = np.searchsorted(tab_grid.points, pts - 2e-12)
            np.minimum(idx, tab_grid.size - 1, out=idx)
            if not (np.abs(tab_grid.points[idx] - pts) <= 1e-12).all():
                raise ValueError("table family evaluated off its carrier grid")
            out = tab[idx]
        elif fam == "affine_rescale":
            out = self.params["a"] + self.params["b"] * self.params["base"](pts)
        elif fam == "product":
            out = np.ones(r.shape)
            for f in self.params["factors"]:
                out = out * f(pts)
        else:
            raise ValueError(f"unknown family {fam!r}")
        if not (np.isfinite(out).all() and (out > 0).all()):
            raise ValueError(f"Lyapunov family {fam!r} produced non-finite or "
                             "non-positive values")
        return float(out[0]) if scalar else out

    def at(self, x) -> float:
        """Evaluate at a single point, scalar or d-dimensional."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self(x))
        if x.ndim == 1 and x.size > 1:
            return float(self(x[None, :])[0])
        return float(self(x.reshape(())))


def open_edge_divergence_ok(V: LyapunovSpec, grid: GridDomain) -> bool:
    """Surrogate check that V blows up toward the open ends of the grid.

    True iff the maximum of V over the outermost 5% of points on each side
    exceeds the median over the interior.  This is the finite-grid
    stand-in for membership of 1/V in the algebra of functions vanishing
    at infinity; no topology on the continuum is attempted.
    """
    vals = V(grid.points)
    n = grid.size
    k = max(1, int(np.ceil(0.05 * n)))  # edge points per side
    if n - 2 * k < 1:
        raise ValueError(f"the divergence check needs at least {2 * k + 1} grid points "
                         f"({k} per edge and one inside), got {n}")
    med = np.median(vals[k:n - k])
    lo, hi = vals[:k], vals[-k:]
    return bool(lo.max() > med and hi.max() > med)


# ---------------------------------------------------------------------------
# Norms and transforms.
# ---------------------------------------------------------------------------

def tv_norm(mu: MeasureVec) -> float:
    """Total variation norm |mu|(E)/2."""
    return float(np.abs(mu.masses).sum()) / 2.0


def v_norm_measure(mu: MeasureVec, V: LyapunovSpec) -> float:
    """Measure V-norm |mu|(V) = sum |m_i| V(x_i)."""
    return float(np.abs(mu.masses) @ V(mu.grid.points))


def v_operator_norm(Q, V: LyapunovSpec) -> float:
    """Operator V-norm of a nonnegative kernel matrix: max_i (QV)(x_i)/V(x_i).

    Accepts anything with `.matrix` and `.grid` attributes (a discretized
    kernel); rows index source points, columns target points.
    """
    K = np.asarray(Q.matrix)
    if np.any(K < 0):
        raise ValueError("operator V-norm requires nonnegative entries")
    vals = V(Q.grid.points)
    return float(np.max((K @ vals) / vals))


def boltzmann_gibbs(h: FunctionVec, mu: MeasureVec) -> MeasureVec:
    """Reweight mu by h and renormalize to a probability measure."""
    _require_same_grid(h.grid, mu.grid)
    support = mu.masses != 0
    if np.any(h.values[support] <= 0):
        raise ValueError("h must be positive on the support of mu")
    w = h.values * mu.masses
    z = w.sum()
    if z <= 0:
        raise DegenerateNormalizationError(f"mu(h) = {z:.17g} <= 0")
    out = w / z
    out = out / out.sum()  # exact unit mass as the final step
    return MeasureVec(out, mu.grid)


def coupling_equivalence(mu1: MeasureVec, mu2: MeasureVec, eps: float):
    """Overlap witness for the coupling characterization of the tv distance.

    Returns (True, nu) with nu the normalized componentwise minimum iff
    ||mu1 - mu2||_tv <= 1 - eps; then mu_i >= eps*nu holds entrywise.
    Returns (False, None) otherwise.
    """
    _require_same_grid(mu1.grid, mu2.grid)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    for mu in (mu1, mu2):
        if np.any(mu.masses < -1e-12) or abs(mu.total_mass() - 1.0) > 1e-9:
            raise ValueError("coupling_equivalence needs probability vectors")
    overlap = np.minimum(mu1.masses, mu2.masses)
    mass = float(overlap.sum())
    if mass < eps - 1e-12:
        return False, None
    return True, MeasureVec(overlap / mass, mu1.grid)


def _grad_hess(f, x, h):
    """Central-difference gradient and Hessian of scalar f at x, step h."""
    d = x.size
    g = np.zeros(d)
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
        H[i, i] = (f(x + e) - 2 * f(x) + f(x - e)) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return g, H
