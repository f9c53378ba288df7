"""Particle Monte Carlo for sub-Markov semigroups with soft and hard killing.

Soft absorption accumulates exponential weights (trapezoid rule in time)
instead of Bernoulli killing.  Hard killing on intervals multiplies in the
exact Brownian-bridge crossing survival for each barrier, which removes the
sqrt(dt) discrete-monitoring bias; it is evaluated only on live rows near a
finite barrier, and log-weight increments below 7.83e-22 a step are dropped.
Hard domains are intervals only.

Each Feynman-Kac partition and each quasi-stationary resampling period is
one call of one particle propagator, `_propagate`.

Reproducibility: Feynman-Kac particles are processed in fixed partitions of
10^4, each with its own seeded substream, and reduced in partition order.
At every `threads` value the partitions run on one thread pool of
min(threads, usable cores) threads, joined before the estimator returns or
raises.  The quasi-stationary estimate is one seeded stream that cannot be
split, so it runs on the calling thread alone.  Results depend on the seed
alone, never on `threads`.

The seeded validation cases are data: one table row per case, each with a
closed-form oracle, run by one function per estimator.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "SDEModel",
    "AbsorptionSpec",
    "FKResult",
    "feynman_kac_estimate",
    "QSDResult",
    "qsd_particle_estimate",
    "ValidationReport",
    "mc_validate",
    "list_cases",
    "ExtinctionError",
]

_PARTITION = 10_000


class ExtinctionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SDEModel:
    drift: Callable
    diffusion: float

    def __post_init__(self):
        if np.ndim(self.diffusion) != 0:
            raise ValueError("only constant scalar diffusion is supported")


class AbsorptionSpec(NamedTuple):
    """Soft potential and/or hard interval.

    hard_interval is an (a, b) pair (either side may be infinite); the
    Brownian-bridge crossing correction applies to finite barriers of 1D
    models, on the live particles near one (increments below 7.83e-22 a
    step are dropped).
    """

    soft_potential: Optional[Callable] = None
    hard_interval: Optional[tuple] = None


def _bridge_log_survival(x_old, x_new, alive, interval, sigma, dt):
    """Log of the within-step non-crossing probability for interval barriers,
    as (rows, term): the live rows where some finite barrier c has
    arg = -2 (x_old - c)(x_new - c) / (sigma^2 dt) >= -48.6, and the exact
    term on them.  Every other row's term is below exp(-48.6) = 7.83e-22 in
    absolute value and is dropped."""
    denom = sigma * sigma * dt
    barriers = [c for c in interval if np.isfinite(c)]
    xo, xn = x_old[:, 0], x_new[:, 0]
    near = np.zeros(len(xo), dtype=bool)
    for c in barriers:
        near |= (xo - c) * (xn - c) <= 24.3 * denom
    rows = np.flatnonzero(near & alive)
    xo, xn = xo[rows], xn[rows]
    term = np.zeros(len(rows))
    # (x - c)(x' - c) is bitwise (c - x)(c - x'), so one form serves both barriers
    for c in barriers:
        # at -708 exp is 3.3e-308, far below half an ulp of the kept barrier's
        # term (>= 7.8e-22), and the clamp keeps exp off its slow path
        arg = np.maximum(-2.0 * (xo - c) * (xn - c) / denom, -708.0)
        term += np.log1p(-np.minimum(np.exp(arg), 1.0 - 1e-16))
    return rows, term


def _propagate(model, absorb, x, n_steps, dt, rng):
    """`n_steps` Euler steps x + b(x) dt + sigma sqrt(dt) xi of the rows of
    `x`, one normal array drawn a step, weighted and killed by `absorb`;
    returns the positions and the weights, zero on the dead rows.  A row
    that leaves the floats dies where it stood."""
    log_w = np.zeros(len(x))
    alive = np.ones(len(x), dtype=bool)
    u_old = None
    for _ in range(n_steps):
        noise = rng.standard_normal(x.shape)
        x_old = x
        drift = np.asarray(model.drift(x_old), dtype=float)
        x = x_old + drift * dt + model.diffusion * math.sqrt(dt) * noise
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            alive &= ~bad
            x[bad] = x_old[bad]
        if absorb.soft_potential is not None:
            if u_old is None:
                u_old = np.asarray(absorb.soft_potential(x_old), dtype=float)
            u_new = np.asarray(absorb.soft_potential(x), dtype=float)
            log_w -= 0.5 * dt * (u_old + u_new)
            u_old = u_new
        if absorb.hard_interval is not None:
            a, b = absorb.hard_interval
            alive &= (x[:, 0] > a) & (x[:, 0] < b)
            rows, term = _bridge_log_survival(x_old, x, alive, absorb.hard_interval,
                                              model.diffusion, dt)
            log_w[rows] += term
    return x, np.where(alive, np.exp(log_w), 0.0)


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FKResult(NamedTuple):
    q1_hat: float
    stderr: float
    qf_hat: dict
    qf_stderr: dict


def feynman_kac_estimate(model: SDEModel, absorb: AbsorptionSpec, x0, t: float,
                         n_particles: int, dt: float, seed: int,
                         observables: Optional[dict] = None,
                         threads: int = 1) -> FKResult:
    """Weighted-particle estimate of the killed semigroup mass and averages.

    Partition k of 10^4 particles draws from substream (seed, k); the
    partitions run in the caller's context on a pool of min(threads, usable
    cores) threads, and their sums are reduced in partition order, so the
    output is a deterministic function of the seed and the budgets.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles = {n_particles} must be at least 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if threads < 1:
        raise ValueError(f"threads = {threads} must be at least 1")
    observables = observables or {}
    n_steps = max(1, int(round(t / dt)))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sizes = [min(_PARTITION, n_particles - done)
             for done in range(0, n_particles, _PARTITION)]

    def partition(k):
        """Rows (sum w, sum w^2), then (sum f w, sum (f w)^2) per observable."""
        x, w = _propagate(model, absorb, np.tile(x0, (sizes[k], 1)), n_steps, dt,
                          np.random.default_rng([seed, k]))
        fws = [w] + [np.asarray(f(x), dtype=float) * w for f in observables.values()]
        return np.array([(fw.sum(), (fw * fw).sum()) for fw in fws])

    from concurrent.futures import ThreadPoolExecutor

    # map starts at most one thread per partition and cancels the queued ones when
    # one raises; the block joins every thread.  Each partition runs in a copy of
    # the caller's context, so the caller's np.errstate holds there too.
    ctx = contextvars.copy_context()
    with ThreadPoolExecutor(min(threads, _usable_cores())) as pool:
        sums, sumsq = sum(pool.map(lambda k: ctx.copy().run(partition, k),
                                   range(len(sizes)))).T
    n = float(n_particles)
    means = sums / n
    stderrs = np.sqrt(np.maximum(sumsq / n - means * means, 0.0) / n)
    return FKResult(float(means[0]), float(stderrs[0]),
                    dict(zip(observables, means[1:].tolist())),
                    dict(zip(observables, stderrs[1:].tolist())))


class QSDResult(NamedTuple):
    positions: np.ndarray
    rho_hat: float
    rho_stderr: float
    log_decrements: np.ndarray
    n_resamplings: int


def qsd_particle_estimate(model: SDEModel, absorb: AbsorptionSpec,
                          eta0_sampler: Callable, t: float, n_particles: int,
                          resample_period: float, dt: float, seed: int) -> QSDResult:
    """Interacting-particle estimate of the quasi-stationary law and rate.

    Multinomial resampling with full weight reset every resample_period; the
    decay-rate estimate averages the per-period log mass decrements after
    a burn-in of the first half of the periods, of which `t` must leave at
    least two.  Raises ExtinctionError if every particle dies within a
    period and ArithmeticError if the mass of a period is not finite.  Every draw comes from one seeded stream on
    the calling thread: the initial sample, one noise array per step and
    the uniforms of each resampling.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles = {n_particles} must be at least 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps_per_period = int(round(resample_period / dt))
    if steps_per_period < 1 or abs(steps_per_period * dt - resample_period) > 1e-9:
        raise ValueError("resample_period must be a positive multiple of dt")
    n_periods = int(round(t / resample_period))
    start = n_periods // 2  # burn-in
    if n_periods - start < 2:
        raise ValueError(
            f"t = {t} must leave at least 2 periods of resample_period = "
            f"{resample_period} after the burn-in half")
    rng = np.random.default_rng([seed, 0xA5])
    x = np.atleast_2d(np.asarray(eta0_sampler(rng, n_particles), dtype=float))
    if x.shape[0] != n_particles:
        x = x.T
    decrements = np.empty(n_periods)
    for k in range(n_periods):
        x, w = _propagate(model, absorb, x, steps_per_period, dt, rng)
        mass = float(w.mean())
        if not math.isfinite(mass):
            raise ArithmeticError(f"particle mass {mass} in period {k}")
        if mass <= 0:
            raise ExtinctionError(
                f"all particles absorbed in period {k}; increase the "
                f"population or shorten the resampling period"
            )
        decrements[k] = math.log(mass)
        # what Generator.choice(n, n, p=w / w.sum()) does; the uniforms are
        # searched in sorted order, which is faster, and scattered back
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        uniforms = rng.random(n_particles)
        order = uniforms.argsort()
        picks = np.empty(n_particles, dtype=np.intp)
        picks[order] = cdf.searchsorted(uniforms[order], side="right")
        x = x[picks]
    tail = decrements[start:]
    rho_hat = float(tail.mean()) / resample_period
    rho_se = float(tail.std(ddof=1)) / math.sqrt(len(tail)) / resample_period
    return QSDResult(x, rho_hat, rho_se, decrements, n_periods)

# ---------------------------------------------------------------------------
# Named validation cases.
# ---------------------------------------------------------------------------

class ValidationReport(NamedTuple):
    case: str
    estimate: float
    oracle: float
    stderr: float
    z: float
    ok: bool
    tol: float  # the largest |estimate - oracle| that passes


_BROWNIAN = SDEModel(drift=lambda x: np.zeros_like(x), diffusion=1.0)
_OU = SDEModel(drift=lambda x: -x, diffusion=1.0)
_HARMONIC = AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2)
_DIRICHLET = AbsorptionSpec(hard_interval=(0.0, 1.0))
# an observable draws no random numbers, so every Feynman-Kac case takes both
_MOMENTS = {"x2": lambda x: x[:, 0] ** 2, "x": lambda x: x[:, 0]}


def _mass(r):
    return r.q1_hat, r.stderr


def _second_moment(r):
    return r.qf_hat["x2"], r.qf_stderr["x2"]


def _variance(r):
    return r.qf_hat["x2"] - r.qf_hat["x"] ** 2, r.qf_stderr["x2"]


# name: (model, absorption, x0, t, full particle count, statistic, oracle),
# a statistic mapping an FKResult to (estimate, stderr); dt = 1e-3, |z| <= 3
_FK_CASES = {
    "harmonic_mass_t1": (_BROWNIAN, _HARMONIC, 0.0, 1.0, 100_000, _mass,
                         1.0 / math.sqrt(math.cosh(1.0))),
    "dirichlet_survival_t03": (_BROWNIAN, _DIRICHLET, 0.5, 0.3, 100_000, _mass,
                               0.28970892125637967),  # frozen sine-series value
    "ou_stationary_var": (_OU, AbsorptionSpec(), 0.0, 5.0, 100_000, _second_moment, 0.5),
    # h-transformed harmonic dynamics: plain OU, stationary variance 1/2
    "ou_qsd_variance": (_OU, AbsorptionSpec(), 0.3, 6.0, 50_000, _variance, 0.5),
}
# name: (absorption, initial sampler, t, resample period, full particle
# count, oracle decay rate, band); Brownian particles, dt = 1e-3
_QSD_CASES = {
    "qsd_harmonic_rho": (_HARMONIC, lambda rng, m: rng.normal(0.0, 1.0, size=(m, 1)),
                         14.0, 0.05, 20_000, -0.5, 0.02),
    "qsd_dirichlet_rho": (_DIRICHLET, lambda rng, m: rng.uniform(0.2, 0.8, size=(m, 1)),
                          3.0, 0.02, 20_000, -math.pi ** 2 / 2, 0.1),
}


def _particles(full, budget, case, least):
    """The particle count of `case` at a fraction `budget` of `full`; a
    Feynman-Kac case needs `least` = 2, for one particle has no stderr."""
    n = int(full * budget)
    if n < 1:
        raise ValueError(f"n_particles = {n} must be at least 1; budget = {budget} "
                         f"of case {case!r} must be at least {1 / full:g}")
    if n < least:
        raise ValueError(f"n_particles = {n} has no standard error; budget = {budget} "
                         f"of case {case!r} must be at least {least / full:g}")
    return n


def _fk_case(name, budget, seed, threads):
    model, absorb, x0, t, full, statistic, oracle = _FK_CASES[name]
    res = feynman_kac_estimate(model, absorb, x0, t, _particles(full, budget, name, 2),
                               1e-3, seed, observables=_MOMENTS, threads=threads)
    est, se = statistic(res)
    z = (est - oracle) / se
    return ValidationReport(name, est, oracle, se, z, abs(z) <= 3.0, 3.0 * se)


def _qsd_case(name, budget, seed):
    absorb, sampler, t, period, full, oracle, band = _QSD_CASES[name]
    res = qsd_particle_estimate(_BROWNIAN, absorb, sampler, t,
                                _particles(full, budget, name, 1), period, 1e-3, seed)
    z = (res.rho_hat - oracle) / max(res.rho_stderr, 1e-12)
    return ValidationReport(name, res.rho_hat, oracle, res.rho_stderr, z,
                            abs(res.rho_hat - oracle) <= band, band)


def list_cases():
    return sorted([*_FK_CASES, *_QSD_CASES])


def mc_validate(case_name: str, budget: float = 1.0,
                seed: int = 20240, threads: int = 1) -> ValidationReport:
    """Run a registered seeded validation case at a fraction of full budget.

    `threads` reaches only the Feynman-Kac cases, whose partitions may run
    on that many threads; the quasi-stationary cases run on the calling
    thread.  The report does not depend on `threads`.
    """
    if case_name not in list_cases():
        raise ValueError(
            f"unknown case {case_name!r}; available: {', '.join(list_cases())}"
        )
    if threads < 1:
        raise ValueError(f"threads = {threads} must be at least 1")
    if case_name in _FK_CASES:
        return _fk_case(case_name, budget, seed, threads)
    return _qsd_case(case_name, budget, seed)
