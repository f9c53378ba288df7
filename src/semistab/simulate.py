"""Particle Monte Carlo for sub-Markov semigroups with soft and hard killing.

Soft absorption accumulates exponential weights (trapezoid rule in time)
instead of Bernoulli killing.  Hard killing on intervals multiplies in the
exact Brownian-bridge crossing survival for each barrier, which removes the
sqrt(dt) discrete-monitoring bias; it is evaluated only on live rows near a
finite barrier, and log-weight increments below 7.83e-22 a step are dropped.
General indicator domains fall back to exit checks at grid times only.

Reproducibility: Feynman-Kac particles are processed in fixed partitions of
10^4, each with its own seeded substream, and reduced in partition order;
with threads >= 2 (capped by the host's cores) the partitions run on a
thread pool that is joined before the estimator returns or raises.  The
quasi-stationary estimate is one seeded stream that cannot be split, so it
runs on the calling thread alone.  Results depend on the seed alone, never
on `threads`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SDEModel",
    "AbsorptionSpec",
    "ParticleEnsemble",
    "sde_step",
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
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if np.ndim(self.diffusion) != 0:
            raise ValueError("only constant scalar diffusion is supported")


@dataclass(frozen=True)
class AbsorptionSpec:
    """Soft potential and/or hard domain.

    hard_interval is an (a, b) pair (either side may be infinite); the
    Brownian-bridge crossing correction applies to finite barriers of 1D
    models, on the live particles near one (increments below 7.83e-22 a
    step are dropped).  hard_indicator is a vectorized inside-test used
    when the domain is not an interval (grid-time checks only,
    O(sqrt(dt)) bias).
    """

    soft_potential: Optional[Callable] = None
    hard_interval: Optional[tuple] = None
    hard_indicator: Optional[Callable] = None

    def __post_init__(self):
        if self.hard_interval is not None and self.hard_indicator is not None:
            raise ValueError("give either an interval or an indicator, not both")


@dataclass
class ParticleEnsemble:
    positions: np.ndarray     # (n, dim)
    log_weights: np.ndarray   # (n,)
    alive: np.ndarray         # (n,) bool

    @property
    def n(self):
        return len(self.positions)

    def weights(self):
        w = np.where(self.alive, np.exp(self.log_weights), 0.0)
        return w


def _euler(model: SDEModel, ens: ParticleEnsemble, dt: float, noise) -> ParticleEnsemble:
    """x + b(x) dt + sigma sqrt(dt) noise into a new positions array."""
    x = ens.positions
    drift = np.asarray(model.drift(x), dtype=float)
    new = x + drift * dt + model.diffusion * math.sqrt(dt) * noise
    bad = ~np.isfinite(new).all(axis=1)
    if bad.any():
        ens.alive = ens.alive & ~bad
        new[bad] = x[bad]
    ens.positions = new
    return ens


def sde_step(model: SDEModel, ens: ParticleEnsemble, dt: float,
             rng: np.random.Generator) -> ParticleEnsemble:
    """One Euler step x + b(x) dt + sigma sqrt(dt) xi on the live particles."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _euler(model, ens, dt, rng.standard_normal(ens.positions.shape))


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
        term += np.log1p(-np.minimum(np.exp(-2.0 * (xo - c) * (xn - c) / denom),
                                     1.0 - 1e-16))
    return rows, term


def _step(model, absorb, ens, noise, dt, u_old):
    """One Euler step of `ens`, then the weighting and killing of `absorb`.

    `u_old` is the soft potential at the current positions, or None to
    evaluate it; the potential at the new positions is returned to serve
    as the next step's `u_old`.
    """
    x_old = ens.positions  # _euler writes a new array, so this one stays put
    _euler(model, ens, dt, noise)
    x_new = ens.positions
    u_new = None
    if absorb.soft_potential is not None:
        if u_old is None:
            u_old = np.asarray(absorb.soft_potential(x_old), dtype=float)
        u_new = np.asarray(absorb.soft_potential(x_new), dtype=float)
        ens.log_weights -= 0.5 * dt * (u_old + u_new)
    if absorb.hard_interval is not None:
        a, b = absorb.hard_interval
        ens.alive &= (x_new[:, 0] > a) & (x_new[:, 0] < b)
        rows, term = _bridge_log_survival(x_old, x_new, ens.alive, absorb.hard_interval,
                                          model.diffusion, dt)
        ens.log_weights[rows] += term
    elif absorb.hard_indicator is not None:
        ens.alive &= np.asarray(absorb.hard_indicator(x_new), dtype=bool)
    return u_new


def _workers(threads: int, tasks: int) -> int:
    """Threads worth starting for `tasks` independent tasks."""
    if threads < 1:
        raise ValueError(f"threads = {threads} must be at least 1")
    return min(threads, os.cpu_count() or 1, tasks)


@dataclass(frozen=True)
class FKResult:
    q1_hat: float
    stderr: float
    qf_hat: dict
    qf_stderr: dict
    n_particles: int
    all_dead: bool


def _fk_partition(model, absorb, x0, m, n_steps, dt, rng, observables):
    """[(sum w, sum w^2)] followed by (sum f w, sum (f w)^2) per observable,
    over one partition of m particles."""
    ens = ParticleEnsemble(np.tile(x0, (m, 1)), np.zeros(m), np.ones(m, dtype=bool))
    u = None
    for _ in range(n_steps):
        u = _step(model, absorb, ens, rng.standard_normal(ens.positions.shape), dt, u)
    w = ens.weights()
    sums = [(float(w.sum()), float((w * w).sum()))]
    for f in observables.values():
        fw = np.asarray(f(ens.positions), dtype=float) * w
        sums.append((float(fw.sum()), float((fw * fw).sum())))
    return sums


def feynman_kac_estimate(model: SDEModel, absorb: AbsorptionSpec, x0, t: float,
                         n_particles: int, dt: float, seed: int,
                         observables: Optional[dict] = None,
                         threads: int = 1) -> FKResult:
    """Weighted-particle estimate of the killed semigroup mass and averages.

    Partition k of 10^4 particles draws from substream (seed, k); the
    partitions run on up to `threads` threads and their sums are reduced in
    partition order, so the output is a deterministic function of the seed
    and the budgets.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles = {n_particles} must be at least 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    observables = observables or {}
    n_steps = max(1, int(round(t / dt)))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sizes = [min(_PARTITION, n_particles - done)
             for done in range(0, n_particles, _PARTITION)]
    workers = _workers(threads, len(sizes))

    def partition(k):
        return _fk_partition(model, absorb, x0, sizes[k], n_steps, dt,
                             np.random.default_rng([seed, k]), observables)

    if workers == 1:
        parts = map(partition, range(len(sizes)))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(partition, range(len(sizes))))
    totals = [[0.0, 0.0] for _ in range(1 + len(observables))]
    for part in parts:
        for tot, (s, s2) in zip(totals, part):
            tot[0] += s
            tot[1] += s2
    n = float(n_particles)
    (sums, sumsq), *obs_totals = totals
    q1 = sums / n
    var = max(sumsq / n - q1 * q1, 0.0)
    stderr = math.sqrt(var / n)
    qf = {}
    qf_se = {}
    for name, (s, s2) in zip(observables, obs_totals):
        mean = s / n
        v = max(s2 / n - mean * mean, 0.0)
        qf[name] = mean
        qf_se[name] = math.sqrt(v / n)
    return FKResult(q1, stderr, qf, qf_se, n_particles, all_dead=(sums == 0.0))


@dataclass(frozen=True)
class QSDResult:
    positions: np.ndarray
    rho_hat: float
    rho_stderr: float
    log_decrements: np.ndarray
    n_resamplings: int


def qsd_particle_estimate(model: SDEModel, absorb: AbsorptionSpec,
                          eta0_sampler: Callable, t: float, n_particles: int,
                          resample_period: float, dt: float, seed: int,
                          burn_in_fraction: float = 0.5) -> QSDResult:
    """Interacting-particle estimate of the quasi-stationary law and rate.

    Multinomial resampling with full weight reset every resample_period; the
    decay-rate estimate averages the per-period log mass decrements after
    burn-in, of which `t` must leave at least two.  Raises ExtinctionError
    if every particle dies within a period and ArithmeticError if the mass
    of a period is not finite.  Every draw comes from one seeded stream on
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
    start = int(burn_in_fraction * n_periods)
    if not 0 <= burn_in_fraction < 1 or n_periods - start < 2:
        raise ValueError(
            f"burn_in_fraction = {burn_in_fraction} must be in [0, 1) and t = {t} "
            f"must leave at least 2 periods of resample_period = {resample_period} "
            f"after it")
    rng = np.random.default_rng([seed, 0xA5])
    x = np.atleast_2d(np.asarray(eta0_sampler(rng, n_particles), dtype=float))
    if x.shape[0] != n_particles:
        x = x.T
    ens = ParticleEnsemble(x, np.zeros(n_particles),
                           np.ones(n_particles, dtype=bool))
    decrements = np.empty(n_periods)
    for k in range(n_periods):
        u = None
        for _ in range(steps_per_period):
            u = _step(model, absorb, ens, rng.standard_normal(x.shape), dt, u)
        w = ens.weights()
        mass = float(w.mean())
        if not math.isfinite(mass):
            raise ArithmeticError(f"particle mass {mass} in period {k}")
        if mass <= 0:
            raise ExtinctionError(
                f"all particles absorbed in period {k}; increase the "
                f"population or shorten the resampling period"
            )
        decrements[k] = math.log(mass)
        # what Generator.choice(n, n, p=w / w.sum()) does
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        ens.positions = ens.positions[cdf.searchsorted(rng.random(n_particles),
                                                       side="right")]
        ens.log_weights = np.zeros(n_particles)
        ens.alive = np.ones(n_particles, dtype=bool)
    tail = decrements[start:]
    rho_hat = float(tail.mean()) / resample_period
    rho_se = float(tail.std(ddof=1)) / math.sqrt(len(tail)) / resample_period
    return QSDResult(ens.positions, rho_hat, rho_se, decrements, n_periods)

# ---------------------------------------------------------------------------
# Named validation cases.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    case: str
    estimate: float
    oracle: float
    stderr: float
    z: float
    ok: bool
    band: Optional[float] = None


def _brownian():
    return SDEModel(drift=lambda x: np.zeros_like(x), diffusion=1.0)


def _ou():
    return SDEModel(drift=lambda x: -x, diffusion=1.0)


_DIRICHLET_SURV_T03 = 0.28970892125637967  # frozen sine-series value


def _particles(full, budget, case):
    """The particle count of `case` at a fraction `budget` of `full`."""
    n = int(full * budget)
    if n < 1:
        raise ValueError(f"n_particles = {n} must be at least 1; budget = {budget} "
                         f"of case {case!r} must be at least {1 / full:g}")
    return n


def _fk_particles(full, budget, case):
    """_particles for a Feynman-Kac case, whose z-score needs a nonzero
    stderr, which one particle never has."""
    n = _particles(full, budget, case)
    if n == 1:
        raise ValueError(f"n_particles = 1 has no standard error; budget = {budget} "
                         f"of case {case!r} must be at least {2 / full:g}")
    return n


def _case_harmonic_mass(budget, seed, threads):
    n = _fk_particles(100_000, budget, "harmonic_mass_t1")
    res = feynman_kac_estimate(
        _brownian(),
        AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        [0.0], t=1.0, n_particles=n, dt=1e-3, seed=seed,
        threads=threads,
    )
    oracle = 1.0 / math.sqrt(math.cosh(1.0))
    z = (res.q1_hat - oracle) / res.stderr
    return ValidationReport("harmonic_mass_t1", res.q1_hat, oracle,
                            res.stderr, z, abs(z) <= 3.0)


def _case_dirichlet_survival(budget, seed, threads):
    n = _fk_particles(100_000, budget, "dirichlet_survival_t03")
    res = feynman_kac_estimate(
        _brownian(),
        AbsorptionSpec(hard_interval=(0.0, 1.0)),
        [0.5], t=0.3, n_particles=n, dt=1e-3, seed=seed,
        threads=threads,
    )
    oracle = _DIRICHLET_SURV_T03
    z = (res.q1_hat - oracle) / res.stderr
    return ValidationReport("dirichlet_survival_t03", res.q1_hat, oracle,
                            res.stderr, z, abs(z) <= 3.0)


def _case_ou_stationary_var(budget, seed, threads):
    n = _fk_particles(100_000, budget, "ou_stationary_var")
    res = feynman_kac_estimate(
        _ou(), AbsorptionSpec(), [0.0], t=5.0, n_particles=n, dt=1e-3,
        seed=seed, observables={"x2": lambda x: x[:, 0] ** 2},
        threads=threads,
    )
    est = res.qf_hat["x2"]
    se = res.qf_stderr["x2"]
    z = (est - 0.5) / se
    return ValidationReport("ou_stationary_var", est, 0.5, se, z, abs(z) <= 3.0)


def _case_qsd_harmonic(budget, seed, threads):
    n = _particles(20_000, budget, "qsd_harmonic_rho")
    res = qsd_particle_estimate(
        _brownian(),
        AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        lambda rng, m: rng.normal(0.0, 1.0, size=(m, 1)),
        t=14.0, n_particles=n, resample_period=0.05, dt=1e-3, seed=seed,
    )
    band = 0.02
    z = (res.rho_hat + 0.5) / max(res.rho_stderr, 1e-12)
    return ValidationReport("qsd_harmonic_rho", res.rho_hat, -0.5,
                            res.rho_stderr, z,
                            abs(res.rho_hat + 0.5) <= band, band=band)


def _case_qsd_dirichlet(budget, seed, threads):
    n = _particles(20_000, budget, "qsd_dirichlet_rho")
    res = qsd_particle_estimate(
        _brownian(),
        AbsorptionSpec(hard_interval=(0.0, 1.0)),
        lambda rng, m: rng.uniform(0.2, 0.8, size=(m, 1)),
        t=3.0, n_particles=n, resample_period=0.02, dt=1e-3, seed=seed,
    )
    oracle = -math.pi ** 2 / 2
    band = 0.1
    z = (res.rho_hat - oracle) / max(res.rho_stderr, 1e-12)
    return ValidationReport("qsd_dirichlet_rho", res.rho_hat, oracle,
                            res.rho_stderr, z,
                            abs(res.rho_hat - oracle) <= band, band=band)


def _case_qsd_ou_var(budget, seed, threads):
    # h-transformed harmonic dynamics: plain OU, stationary variance 1/2
    n = _fk_particles(50_000, budget, "ou_qsd_variance")
    res = feynman_kac_estimate(
        _ou(), AbsorptionSpec(), [0.3], t=6.0, n_particles=n, dt=1e-3,
        seed=seed, observables={"x2": lambda x: x[:, 0] ** 2,
                                "x": lambda x: x[:, 0]},
        threads=threads,
    )
    var = res.qf_hat["x2"] - res.qf_hat["x"] ** 2
    se = res.qf_stderr["x2"]
    z = (var - 0.5) / se
    return ValidationReport("ou_qsd_variance", var, 0.5, se, z, abs(z) <= 3.0)


_CASES = {
    "harmonic_mass_t1": _case_harmonic_mass,
    "dirichlet_survival_t03": _case_dirichlet_survival,
    "ou_stationary_var": _case_ou_stationary_var,
    "qsd_harmonic_rho": _case_qsd_harmonic,
    "qsd_dirichlet_rho": _case_qsd_dirichlet,
    "ou_qsd_variance": _case_qsd_ou_var,
}


def list_cases():
    return sorted(_CASES)


def mc_validate(case_name: str, budget: float = 1.0,
                seed: int = 20240, threads: int = 1) -> ValidationReport:
    """Run a registered seeded validation case at a fraction of full budget.

    `threads` reaches only the Feynman-Kac cases, whose partitions may run
    on that many threads; the quasi-stationary cases run on the calling
    thread.  The report does not depend on `threads`.
    """
    if case_name not in _CASES:
        raise ValueError(
            f"unknown case {case_name!r}; available: {', '.join(list_cases())}"
        )
    if threads < 1:
        raise ValueError(f"threads = {threads} must be at least 1")
    return _CASES[case_name](budget, seed, threads)
