"""Normalized semigroup flows, leading eigen-triples and spectral gaps.

The leading eigenvalue is extracted by power iteration, not from a dense
eigensolver: rho = log(lam)/tau, lam the one-step normalization of the
fixed-point measure (Collatz-Wielandt style), or for a self-adjoint
operator the Rayleigh quotient of the ground state in L2(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contraction import DecayCurve, _tail_rate
from .core import (
    FunctionVec,
    LyapunovSpec,
    MeasureVec,
    boltzmann_gibbs,
    tv_norm,
)
from .kernels import DiscreteOperator, discretize, doob_h_transform

__all__ = [
    "EigenTriple",
    "FlowExtinctionError",
    "normalized_flow",
    "leading_eigentriple",
    "GroundStateProduct",
    "ground_state_product",
    "finite_rank_gap",
    "SpectralDecayReport",
    "spectral_decay_check",
    "h_transform_commute",
]


class FlowExtinctionError(RuntimeError):
    """Total mass of the flow hit zero; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"flow mass reached zero at step {step}")
        self.step = step


@dataclass(frozen=True)
class EigenTriple:
    rho: float
    h: FunctionVec
    eta_inf: MeasureVec
    converged: bool
    residual_right: float
    residual_left: float
    iterations: int

    def __post_init__(self):
        if np.any(self.h.values <= 0):
            raise ValueError("ground state must be positive")
        m = self.eta_inf.masses
        if np.any(m < -1e-15) or abs(m.sum() - 1.0) > 1e-10:
            raise ValueError("eta_inf must be a probability vector")
        pairing = float(m @ self.h.values)
        if abs(pairing - 1.0) > 1e-10:
            raise ValueError(f"normalization eta_inf(h) = {pairing} != 1")


def normalized_flow(Q: DiscreteOperator, eta0: MeasureVec, n: int):
    """Normalized evolution of eta0 under Q with the per-step mass record.

    Returns (measures, masses): measures[k] is the probability vector after
    k steps, masses[k] the normalization eaten at step k.  The product of
    the masses reconstructs the unnormalized total mass eta0 Q^n(1).
    """
    if abs(eta0.total_mass() - 1.0) > 1e-9 or np.any(eta0.masses < -1e-12):
        raise ValueError("eta0 must be a probability vector")
    K = Q.matrix
    measures = [eta0]
    masses = []
    cur = eta0.masses
    for k in range(n):
        nxt = cur @ K
        mass = float(nxt.sum())
        if mass <= 0:
            raise FlowExtinctionError(k)
        cur = nxt / mass
        masses.append(mass)
        measures.append(MeasureVec(cur, Q.grid))
    return measures, masses


# Rounds of power iteration before leading_eigentriple gives up.
_ROUNDS = 1000


def _connected(K: np.ndarray, symmetric: bool = False) -> bool:
    """Whether state 0 reaches every state and back, by a breadth-first walk each
    way: the next frontier is where K (>= 0) summed over the last is positive.
    A symmetric support needs the forward walk only."""
    walks = (lambda front: front @ K, lambda front: K @ front)
    for step in walks[:1] if symmetric else walks:
        seen = np.zeros(len(K), dtype=bool)
        seen[0] = True
        front = seen
        while front.any():
            front = (step(front) > 0) & ~seen
            seen = seen | front
        if not seen.all():
            return False
    return True


def leading_eigentriple(Q: DiscreteOperator, tol: float = 1e-12) -> EigenTriple:
    """Leading (rho, h, eta_inf) by power iteration, at most _ROUNDS rounds.

    In general a left and a right vector are iterated together, and the
    eigenvalue is the left iterate's one-step mass.  A `Q.self_adjoint`
    operator (w_i K_ij = w_j K_ji, w the cell weights) iterates h alone: the
    eigenvalue is the Rayleigh quotient <h, K h>_w / <h, h>_w, which
    converges at the square of h's rate, and eta_inf is h w normalised.
    Its left residual costs one product eta @ K, made once the right
    residual is within tol, and the loop goes on while it is not; so an
    operator declared self-adjoint that is not ends with converged=False.

    Residuals: sup-norm eigen-relation defect for h, total-variation defect
    for the fixed-point measure.  On non-convergence the best iterate is
    returned with converged=False rather than raising.  A reducible K is a
    ValueError, a ground state underflowed to zero an ArithmeticError.
    """
    K = Q.matrix
    n = K.shape[0]
    if not _connected(K, Q.self_adjoint):
        raise ValueError("operator support graph is not strongly connected")
    step = _self_adjoint_rounds if Q.self_adjoint else _two_sided_rounds
    lam, h, eta, res_r, res_l, it = step(Q, tol)
    h = h / float(eta @ h)  # pairing normalization eta_inf(h) = 1
    if not (h > 0).all():
        raise ArithmeticError(f"the ground state underflowed to zero at {(h <= 0).sum()} of {n} "
                              f"grid points, the first at x={float(Q.grid.points[h.argmin()])!r}")
    rho = math.log(lam) / Q.time_step
    return EigenTriple(
        rho,
        FunctionVec(h, Q.grid),
        MeasureVec(np.maximum(eta, 0.0) / eta.sum(), Q.grid),
        bool(res_l <= tol and res_r <= tol),
        res_r,
        res_l,
        it,
    )


def _two_sided_rounds(Q: DiscreteOperator, tol: float) -> tuple:
    """(lam, h, eta, res_r, res_l, rounds) of the simultaneous left/right
    iteration, lam the left iterate's one-step mass."""
    K = Q.matrix
    n = K.shape[0]
    eta = np.full(n, 1.0 / n)
    h = np.ones(n)
    Kh = K @ h
    lam = 1.0
    res_r = res_l = math.inf
    it = 0
    for it in range(1, _ROUNDS + 1):
        eta_raw = eta @ K
        lam = float(eta_raw.sum())
        if lam <= 0:
            raise FlowExtinctionError(it)
        eta_new = eta_raw / lam
        h_new = Kh / Kh.max()
        Kh = K @ h_new  # the residual's product is the next iteration's K @ h
        res_l = 0.5 * np.abs(eta_new - eta).sum()
        res_r = float(np.abs(Kh - lam * h_new).max() / np.abs(h_new).max())
        eta, h = eta_new, h_new
        if res_l <= tol and res_r <= tol:
            break
    return lam, h, eta, res_r, res_l, it


def _self_adjoint_rounds(Q: DiscreteOperator, tol: float) -> tuple:
    """(lam, h, eta, res_r, res_l, rounds) of the right iteration alone,
    lam the Rayleigh quotient in L2(w) and eta = h w normalised.  The left
    residual is the total-variation change of eta under one normalised
    step, computed for the last h and for every h within tol on the right."""
    K = Q.matrix
    w = Q.grid.cell_weights
    Kh = K @ np.ones(K.shape[0])
    for it in range(1, _ROUNDS + 1):
        top = Kh.max()
        if top <= 0:
            raise FlowExtinctionError(it)
        h = Kh / top
        Kh = K @ h
        hw = h * w
        lam = float(hw @ Kh) / float(hw @ h)
        res_r = float(np.abs(Kh - lam * h).max() / np.abs(h).max())
        if res_r <= tol or it == _ROUNDS:
            eta = hw / hw.sum()
            eta_raw = eta @ K
            res_l = 0.5 * np.abs(eta_raw / eta_raw.sum() - eta).sum()
            if res_r <= tol and res_l <= tol:
                break
    return lam, h, eta, res_r, res_l, it


class GroundStateProduct(NamedTuple):
    partials: np.ndarray   # running partial products
    value: float           # last partial
    factors: np.ndarray


def ground_state_product(Q: DiscreteOperator, triple: EigenTriple,
                         x_index: int, N: int) -> GroundStateProduct:
    """Partial products of the mass-ratio series representation of h(x).

    Factor n is 1 + e^{-rho tau} (mass_n(delta_x) - mass_n(eta_inf)); the
    running product converges to h(x) in the eta_inf(h) = 1 normalization.
    A nonpositive factor aborts with the offending index (grid too coarse).
    """
    lam = math.exp(triple.rho * Q.time_step)
    _, masses_x = normalized_flow(Q, MeasureVec.dirac(Q.grid, x_index), N)
    _, masses_eta = normalized_flow(Q, triple.eta_inf, N)
    factors = 1.0 + (np.asarray(masses_x) - np.asarray(masses_eta)) / lam
    if np.any(factors <= 0):
        bad = int(np.nonzero(factors <= 0)[0][0])
        raise ArithmeticError(f"nonpositive product factor at n = {bad}")
    partials = np.cumprod(factors)
    return GroundStateProduct(partials, float(partials[-1]), factors)


def finite_rank_gap(Q: DiscreteOperator, mu: MeasureVec, H: FunctionVec,
                    T: int, V: LyapunovSpec) -> DecayCurve:
    """V-operator-norm distance to the rank-one ground-state projector.

    At each step t the normalized operator Q^t / mu Q^t(1) is compared with
    the rank-one map f -> Q^t(H) mu_t(f) / mu Q^t(1); the curve decays at
    the spectral gap, recovered by a tail-half exponential fit.
    """
    K = Q.matrix
    vals = V(Q.grid.points)
    Mt = np.eye(K.shape[0])
    out = np.empty(T)
    for t in range(1, T + 1):
        Mt = Mt @ K
        z = float(mu.masses @ Mt.sum(axis=1))
        if z <= 0:
            raise FlowExtinctionError(t)
        mu_t = (mu.masses @ Mt)
        mu_t = mu_t / mu_t.sum()
        G = Mt / z - np.outer((Mt @ H.values) / z, mu_t)
        out[t - 1] = np.max((np.abs(G) @ vals) / vals)
    times = np.arange(1, T + 1) * Q.time_step
    return DecayCurve(times, out, _tail_rate(times, out, 1e-250))


class SpectralDecayReport(NamedTuple):
    lhs: float
    rhs: float
    ok: bool
    decay_rate: float  # the second conjugate eigenvalue used in the bound


def spectral_decay_check(model, f: FunctionVec, t: float) -> SpectralDecayReport:
    """L2 distance to the ground-state projection against the gap bound,
    met within a slack of 1e-6.

    Valid for the self-adjoint models only; uses the model's exact leading
    pair and second eigenvalue.  The reference measure is the grid
    quadrature of the Lebesgue measure.
    """
    if not getattr(model, "self_adjoint", False):
        raise ValueError(f"model {model.name!r} is not self-adjoint")
    grid = f.grid
    w = grid.cell_weights
    K = discretize(model, grid, t).matrix
    h = model.exact_h(grid.points)
    h = h / math.sqrt(float(h @ (h * w)))  # nu(h^2) = 1 on the grid
    rho = model.exact_rho
    gap2 = model.eigenvalue(2) - model.eigenvalue(1)
    nu_hf = float(h @ (f.values * w))
    lhs_vec = math.exp(-rho * t) * (K @ f.values) - h * nu_hf
    lhs = math.sqrt(float(lhs_vec @ (lhs_vec * w)))
    var = float(f.values @ (f.values * w)) - nu_hf ** 2
    rhs = math.exp(gap2 * t) * math.sqrt(max(var, 0.0))
    return SpectralDecayReport(lhs, rhs, bool(lhs <= rhs + 1e-6), gap2)


def h_transform_commute(Q: DiscreteOperator, triple: EigenTriple,
                        eta: MeasureVec) -> dict:
    """Conjugation identity: reweighting the normalized flow by h equals
    pushing the reweighted start through the ground-state Markov kernel.

    Returns the tv distance between the two routes after 1, 2 and 5 steps.
    """
    P = doob_h_transform(Q, triple.h, triple.rho)
    flow, _ = normalized_flow(Q, eta, 5)
    rhs = boltzmann_gibbs(triple.h, eta).masses
    out = {}
    for n in range(1, 6):
        rhs = rhs @ P.matrix
        if n in (1, 2, 5):
            lhs = boltzmann_gibbs(triple.h, flow[n]).masses
            out[n] = tv_norm(MeasureVec(lhs - rhs, Q.grid))
    return out
