"""Scalar and matrix Riccati flows, coupled-oscillator quantities, and
birth-death moment majorants.

All deterministic flows are exact (Radon's lemma; `kernels._scalar_flow`,
`kernels._matrix_flow`) and their `dt` arguments do not affect results.
Birth-death moments are estimated by exact event-clock simulation, never
tau-leaping, so the drift inequalities are tested without discretization
bias.  Every chain, the logistic one included, runs through one event loop:
Gillespie's direct method on the birth and death rates of (paths, d) states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import (MatrixFlow, _matrix_flow, _psd_sqrt, _scalar_fixed_point,
                      _scalar_flow, controllable)

__all__ = [
    "ScalarRiccati",
    "MatrixRiccati",
    "LogisticBD",
    "MultivariateBD",
    "scalar_riccati",
    "matrix_riccati",
    "algebraic_residual",
    "CoupledOscillator",
    "coupled_oscillator_semigroup",
    "bd_generator_drift",
    "bd_riccati_majorant",
    "MomentBoundReport",
    "bd_moment_bound",
]


@dataclass(frozen=True)
class ScalarRiccati:
    a0: float
    a1: float
    b: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.a0, self.a1, self.b)):
            raise ValueError("a0, a1 and b must be finite")
        if self.a0 < 0:
            raise ValueError("a0 must be nonnegative")
        if self.b <= 0:
            raise ValueError("b must be positive")
        # beta^2 of `kernels._scalar_flow` and `_scalar_fixed_point`
        al = 0.5 * self.a1
        if not math.isfinite(al * al + self.a0 * self.b):
            raise ValueError("the discriminant (a1/2)^2 + a0 b overflows")

    @property
    def z_inf(self) -> float:
        return _scalar_fixed_point(self.a0, self.a1, self.b)

    def rhs(self, z):
        return self.a0 + self.a1 * z - self.b * z * z


def scalar_riccati(spec: ScalarRiccati, z0: float, t: float,
                   dt: float = 1e-3) -> float:
    """Exact flow of zdot = a0 + a1 z - b z^2 from z0 >= 0 at time t >= 0,
    monotone toward the positive fixed point; `dt` does not affect it."""
    if z0 < 0:
        raise ValueError("z0 must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _scalar_flow(spec.a0, spec.a1, spec.b, float(z0), t)[0]


@dataclass(frozen=True)
class MatrixRiccati:
    A: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "S", S)
        for name, M in (("R", R), ("S", S)):
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(M).min() < -1e-12:
                raise ValueError(f"{name} must be positive semi-definite")

    def rhs(self, p):
        return self.A @ p + p @ self.A.T + self.R - p @ self.S @ p


def matrix_riccati(spec: MatrixRiccati, t: float, dt: float = 1e-3) -> np.ndarray:
    """Exact flow of pdot = A p + p A' + R - p S p from 0; `dt` does not affect it."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = _matrix_flow(spec.A, spec.R, spec.S, t, MatrixFlow.start(np.zeros_like(spec.A))).p
    if not np.all(np.isfinite(p)) or np.linalg.eigvalsh(p).min() < -1e-8:
        raise ArithmeticError("matrix Riccati flow left the PSD cone")
    return p


def algebraic_residual(spec: MatrixRiccati, p: np.ndarray) -> float:
    """Norm of A p + p A' + R - p S p at a candidate fixed point."""
    return float(np.linalg.norm(spec.rhs(p)))


class CoupledOscillator(NamedTuple):
    m_t: np.ndarray
    p_t: np.ndarray
    log_mass: float          # log Q_t(1)(x)
    rho_hat: float           # tail average of -Tr(S p_s)/2 over [0.8t, t]


def coupled_oscillator_semigroup(A, Sigma, S, x, t: float,
                                 dt: float = 1e-3) -> CoupledOscillator:
    """Mean, covariance and mass of the quadratic-potential linear diffusion
    at time t > 0, from the exact matrix flow.

    -2 log Q_t(1)(x) = x' (int F' S F) x + int Tr(S p); the decay-rate
    estimate is the average of -Tr(S p_s)/2 over [0.8t, t], which converges
    to -Tr(p_inf S)/2.  `dt` does not affect the result.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    spec = MatrixRiccati(A, Sigma @ Sigma.T, S)  # checks R and S are PSD
    A, R, S = spec.A, spec.R, spec.S
    if not controllable(A, _psd_sqrt(R)):
        raise ValueError("(A, R^{1/2}) fails the controllability rank check")
    if not controllable(A.T, _psd_sqrt(S)):
        raise ValueError("(A', S^{1/2}) fails the controllability rank check")
    head = _matrix_flow(A, R, S, 0.8 * t, MatrixFlow.start(np.zeros_like(A)))
    end = _matrix_flow(A, R, S, 0.2 * t, head)
    trace_a = float(np.trace(A))
    log_mass = -0.5 * (float(x @ end.G @ x) + end.logdet + t * trace_a)
    rho_hat = -0.5 * ((end.logdet - head.logdet) / (0.2 * t) + trace_a)
    return CoupledOscillator(end.F @ x, end.p, log_mass, rho_hat)


# ---------------------------------------------------------------------------
# Birth-death processes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticBD:
    """Birth rate lam_b x + ups_b; death rate lam_d x + lam_l x(x-1) + ups_d.

    Lives on the positive integers; the death move from state 1 is blocked.
    """

    lam_b: float = 0.0
    ups_b: float = 0.0
    lam_d: float = 0.0
    lam_l: float = 1.0
    ups_d: float = 0.0

    def __post_init__(self):
        for name in ("lam_b", "ups_b", "lam_d", "ups_d"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.lam_l <= 0:
            raise ValueError("lam_l must be positive")

    def birth_rates(self, x):
        # x: (paths, 1)
        return self.lam_b * x + self.ups_b

    def death_rates(self, x):
        raw = self.lam_d * x + self.lam_l * x * (x - 1) + self.ups_d
        return np.where(x >= 2, raw, 0.0)


@dataclass(frozen=True)
class MultivariateBD:
    """Coordinatewise birth-death on N^n minus the origin.

    Birth in direction i at rate ups_i + x_i (lam_i + (C x)_i); death at
    rate sig_i + x_i (mu_i + (D x)_i), blocked when it would leave the
    state space.  Requires |ups| >= |sig| and D - C uniformly positive
    definite in the symmetric part.
    """

    lam: np.ndarray
    mu: np.ndarray
    ups: np.ndarray
    sig: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("lam", "mu", "ups", "sig"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if np.any(v < 0):
                raise ValueError(f"{name} must be nonnegative")
        for name in ("C", "D"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if self.ups.sum() < self.sig.sum():
            raise ValueError("need |ups| >= |sig|")
        B = self.D - self.C
        if np.linalg.eigvalsh(0.5 * (B + B.T)).min() <= 0:
            raise ValueError("D - C must be uniformly positive definite")

    @property
    def dim(self):
        return len(self.lam)

    def birth_rates(self, x):
        # x: (paths, d)
        r = self.ups[None, :] + x * (self.lam[None, :] + x @ self.C.T)
        if np.any(r < -1e-12):
            raise ValueError("negative birth rate encountered; rejecting spec")
        return np.clip(r, 0.0, None)

    def death_rates(self, x):
        r = self.sig[None, :] + x * (self.mu[None, :] + x @ self.D.T)
        if np.any(r < -1e-12):
            raise ValueError("negative death rate encountered; rejecting spec")
        blocked = (x - 1 < 0) | ((x.sum(axis=1, keepdims=True) - 1) == 0)
        return np.where(blocked, 0.0, np.clip(r, 0.0, None))


def bd_generator_drift(spec, x) -> float:
    """Exact generator drift of the natural Lyapunov coordinate at state x.

    V(x) = |x|, the coordinate sum (x itself for the logistic chain).
    Blocked boundary moves contribute nothing, exactly as in the jump
    dynamics.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(x < 0) or np.any(x % 1) or x.sum() < 1:
        raise ValueError("state must lie in N^n minus the origin")
    up = spec.birth_rates(x)
    dn = spec.death_rates(x)
    return float((up - dn).sum())


def bd_riccati_majorant(spec) -> ScalarRiccati:
    """Quadratic majorant of d/dt E[V(X_t)] including boundary allowances."""
    if isinstance(spec, LogisticBD):
        return ScalarRiccati(
            a0=spec.ups_b + spec.lam_d,
            a1=spec.lam_b + spec.lam_l - spec.lam_d,
            b=spec.lam_l,
        )
    d = spec.dim
    B = spec.D - spec.C
    bmin = float(np.linalg.eigvalsh(0.5 * (B + B.T)).min())
    a0 = float(spec.ups.sum() - spec.sig.sum())
    # unit-state corrections plus the blocked-death allowance at zero
    # coordinates (each blocked move removes a -sig_i term from the drift)
    a0_plus = a0 + float(
        np.sum(spec.sig.sum() + spec.mu + np.diag(spec.D))
    ) + float(spec.sig.sum())
    a1 = float(np.max(spec.lam - spec.mu))
    # |x|^2 >= ||x||^2 / d relates the coordinate-sum square to the
    # quadratic form lower bound b ||x||^2
    return ScalarRiccati(a0=a0_plus, a1=a1, b=bmin / d)


class MomentBoundReport(NamedTuple):
    checkpoints: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    majorant: np.ndarray
    ok: bool
    truncated: bool


def bd_moment_bound(spec, x0, T: float, n_paths: int, seed: int,
                    state_cap: int = 10 ** 6) -> MomentBoundReport:
    """Event-clock simulation of the jump process against the Riccati majorant.

    Runs n_paths independent chains from x0, records V at ten evenly spaced
    checkpoints, and checks mean V <= majorant + 3 standard errors, where
    the majorant is the scalar Riccati flow started at V(x0).  Hitting the
    state cap flags the report as truncated.
    """
    rng = np.random.default_rng([seed, 0x5D])
    checkpoints = np.linspace(T / 10, T, 10)
    x = np.tile(np.asarray(x0, dtype=np.int64), (n_paths, 1))  # (paths, d)
    d = x.shape[1]
    V0 = float(np.sum(x0))
    # every clock runs from 0 past T, so each path records every checkpoint;
    # an infinite clock marks a finished path
    t = np.zeros(n_paths)
    records = np.full((10, n_paths), np.nan)
    truncated = False
    while np.isfinite(t).any():
        xf = x.astype(float)
        up, dn = spec.birth_rates(xf), spec.death_rates(xf)
        total = up.sum(axis=1) + dn.sum(axis=1)
        moving = np.isfinite(t) & (total > 0)  # a path with no rate left parks
        t_new = np.full(n_paths, np.inf)
        t_new[moving] = t[moving] + rng.exponential(1.0, size=int(moving.sum())) / total[moving]
        newly = (t <= checkpoints[:, None]) & (t_new > checkpoints[:, None])
        records[newly] = np.broadcast_to(xf.sum(axis=1), records.shape)[newly]
        apply = moving & (t_new <= T)
        if apply.any():
            u = rng.uniform(size=n_paths)
            rows = np.flatnonzero(apply)
            # Gillespie's direct method: the move is the first rate column
            # whose running sum, added in column order, reaches u * total
            target = u[rows] * total[rows]
            running = np.zeros(len(rows))
            pick = np.zeros(len(rows), dtype=np.intp)
            for rate in np.concatenate([up[rows], dn[rows]], axis=1).T:
                running += rate
                pick += target > running
            x[rows, pick % d] += np.where(pick < d, 1, -1)
            if np.any(x >= state_cap):
                truncated = True
                np.minimum(x, state_cap, out=x)
        t = np.where(t_new > T, np.inf, t_new)
    means = records.mean(axis=1)
    stderrs = records.std(axis=1, ddof=1) / math.sqrt(n_paths)
    maj = bd_riccati_majorant(spec)
    majorant = np.array([scalar_riccati(maj, V0, cp) for cp in checkpoints])
    ok = bool(np.all(means <= majorant + 3 * stderrs))
    return MomentBoundReport(checkpoints, means, stderrs, majorant, ok, truncated)
