import math
import threading

import numpy as np
import pytest

from semistab import simulate
from semistab.simulate import (
    AbsorptionSpec,
    ExtinctionError,
    FKResult,
    ParticleEnsemble,
    SDEModel,
    feynman_kac_estimate,
    list_cases,
    mc_validate,
    qsd_particle_estimate,
    sde_step,
)

BM = SDEModel(drift=lambda x: np.zeros_like(x), diffusion=1.0)
OU = SDEModel(drift=lambda x: -x, diffusion=1.0)


def test_sde_step_zero_motion():
    model = SDEModel(drift=lambda x: np.zeros_like(x), diffusion=0.0)
    ens = ParticleEnsemble(np.zeros((100, 1)), np.zeros(100),
                           np.ones(100, dtype=bool))
    rng = np.random.default_rng(0)
    sde_step(model, ens, 0.01, rng)
    assert np.all(ens.positions == 0.0)


def test_sde_step_brownian_variance_grows():
    rng = np.random.default_rng(1)
    ens = ParticleEnsemble(np.zeros((20000, 1)), np.zeros(20000),
                           np.ones(20000, dtype=bool))
    for _ in range(100):
        sde_step(BM, ens, 0.01, rng)
    var = ens.positions.var()
    assert var == pytest.approx(1.0, rel=0.05)  # t = 1


def test_sde_step_kills_nonfinite():
    model = SDEModel(drift=lambda x: np.where(x > 0, np.inf, 0.0), diffusion=0.0)
    pos = np.array([[1.0], [-1.0]])
    ens = ParticleEnsemble(pos, np.zeros(2), np.ones(2, dtype=bool))
    sde_step(model, ens, 0.1, np.random.default_rng(0))
    assert not ens.alive[0]
    assert ens.alive[1]


def test_ou_stationary_variance():
    res = feynman_kac_estimate(
        OU, AbsorptionSpec(), [0.0], t=5.0, n_particles=20000, dt=1e-3,
        seed=5, observables={"x2": lambda x: x[:, 0] ** 2},
    )
    assert res.q1_hat == 1.0  # no killing: weights identically one
    z = (res.qf_hat["x2"] - 0.5) / res.qf_stderr["x2"]
    assert abs(z) <= 3


def test_fk_markov_mass_exactly_one():
    res = feynman_kac_estimate(BM, AbsorptionSpec(), [0.2], t=0.5,
                               n_particles=1000, dt=1e-2, seed=1)
    assert res.q1_hat == 1.0
    assert res.stderr == 0.0


def test_fk_harmonic_mass():
    res = feynman_kac_estimate(
        BM, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        [0.0], t=1.0, n_particles=20000, dt=1e-3, seed=2,
    )
    oracle = 1.0 / math.sqrt(math.cosh(1.0))
    assert abs(res.q1_hat - oracle) <= 3 * res.stderr


def test_fk_dirichlet_survival_bridge():
    oracle = 0.28970892125637967
    res = feynman_kac_estimate(
        BM, AbsorptionSpec(hard_interval=(0.0, 1.0)), [0.5], t=0.3,
        n_particles=20000, dt=1e-3, seed=3,
    )
    assert abs(res.q1_hat - oracle) <= 3 * res.stderr
    # grid-time-only checks (indicator route) keep the sqrt(dt) bias
    res_ind = feynman_kac_estimate(
        BM,
        AbsorptionSpec(hard_indicator=lambda x: (x[:, 0] > 0) & (x[:, 0] < 1)),
        [0.5], t=0.3, n_particles=20000, dt=1e-3, seed=3,
    )
    assert res_ind.q1_hat > oracle + 3 * res_ind.stderr


def test_fk_dt_halving_within_stderr():
    kwargs = dict(n_particles=20000, seed=4)
    a = feynman_kac_estimate(
        BM, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        [0.0], t=1.0, dt=1e-3, **kwargs,
    )
    b = feynman_kac_estimate(
        BM, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        [0.0], t=1.0, dt=5e-4, **kwargs,
    )
    assert abs(a.q1_hat - b.q1_hat) <= 2 * (a.stderr + b.stderr)


def test_weighted_mass_monotone_under_killing():
    absorb = AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2,
                            hard_interval=(-3.0, 3.0))
    masses = []
    for t in (0.2, 0.4, 0.8, 1.6):
        res = feynman_kac_estimate(BM, absorb, [0.0], t=t,
                                   n_particles=20000, dt=1e-3, seed=6)
        masses.append(res.q1_hat)
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_bit_reproducibility():
    def run(seed):
        return feynman_kac_estimate(
            BM, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
            [0.0], t=0.5, n_particles=15000, dt=1e-3, seed=seed,
        )

    a, b = run(9), run(9)
    assert a.q1_hat == b.q1_hat
    assert a.stderr == b.stderr
    c = run(10)
    assert c.q1_hat != a.q1_hat


def test_partition_invariance_of_the_stream():
    # estimates must not depend on whether the population splits into one
    # or several partitions ... they do differ across partition boundaries
    # only through which substream serves which particle, so equal budgets
    # with equal seeds agree exactly
    res1 = feynman_kac_estimate(BM, AbsorptionSpec(), [0.0], t=0.1,
                                n_particles=10000, dt=1e-2, seed=11,
                                observables={"x": lambda x: x[:, 0]})
    res2 = feynman_kac_estimate(BM, AbsorptionSpec(), [0.0], t=0.1,
                                n_particles=10000, dt=1e-2, seed=11,
                                observables={"x": lambda x: x[:, 0]})
    assert res1.qf_hat["x"] == res2.qf_hat["x"]


def test_qsd_harmonic_small_budget():
    res = qsd_particle_estimate(
        BM, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        lambda rng, m: rng.normal(0.0, 1.0, size=(m, 1)),
        t=8.0, n_particles=4000, resample_period=0.05, dt=1e-3, seed=12,
    )
    assert res.rho_hat == pytest.approx(-0.5, abs=0.05)
    # the quasi-stationary cloud has the ground-state variance 1
    var = res.positions.var()
    assert var == pytest.approx(1.0, abs=0.1)


def test_qsd_extinction_reported():
    # two particles in a fast-killing domain die within one period
    with pytest.raises(ExtinctionError):
        qsd_particle_estimate(
            BM, AbsorptionSpec(hard_interval=(0.0, 0.05)),
            lambda rng, m: rng.uniform(0.02, 0.03, size=(m, 1)),
            t=1.5, n_particles=2, resample_period=0.5, dt=1e-3, seed=13,
        )


def test_mc_validate_unknown_case():
    with pytest.raises(ValueError) as ei:
        mc_validate("nope")
    assert "harmonic_mass_t1" in str(ei.value)
    assert set(list_cases()) >= {
        "harmonic_mass_t1", "dirichlet_survival_t03", "ou_stationary_var",
    }


def test_mc_validate_small_budget_cases():
    for case in ("harmonic_mass_t1", "dirichlet_survival_t03"):
        rep = mc_validate(case, budget=0.2)
        assert rep.ok, (case, rep)


def test_absorption_spec_validation():
    with pytest.raises(ValueError):
        AbsorptionSpec(hard_interval=(0, 1), hard_indicator=lambda x: x[:, 0] > 0)
    with pytest.raises(ValueError):
        SDEModel(drift=lambda x: x, diffusion=np.eye(2))


def _bridge_reference(x_old, x_new, interval, sigma, dt):
    # the crossing term as first written, on the rows it is given
    total = np.zeros(len(x_old))
    a, b = interval
    denom = sigma * sigma * dt
    if np.isfinite(a):
        p = np.exp(-2.0 * (x_old[:, 0] - a) * (x_new[:, 0] - a) / denom)
        total += np.log1p(-np.clip(p, 0.0, 1.0 - 1e-16))
    if np.isfinite(b):
        p = np.exp(-2.0 * (b - x_old[:, 0]) * (b - x_new[:, 0]) / denom)
        total += np.log1p(-np.clip(p, 0.0, 1.0 - 1e-16))
    return total


def test_bridge_term_matches_the_direct_formula():
    rng = np.random.default_rng(0)
    x_old = rng.uniform(0.0, 1.0, (20000, 1))
    x_new = x_old + 0.05 * rng.standard_normal((20000, 1))
    dt = 1e-3
    arg = -2.0 * x_old[:, 0] * x_new[:, 0] / dt
    # exponents above 0 (crossings), in [-700, 0], in the recomputed window
    # [-745.2, -700) and below it, where exp underflows to 0
    assert (arg > 0).any() and ((arg <= 0) & (arg >= -700)).any()
    assert ((arg < -700) & (arg >= -745.2)).sum() > 10 and (arg < -745.2).any()
    for interval in ((0.0, 1.0), (0.0, np.inf), (-np.inf, 1.0), (-0.3, 0.7)):
        got = simulate._bridge_log_survival(x_old, x_new, interval, 1.0, dt)
        assert np.array_equal(got, _bridge_reference(x_old, x_new, interval, 1.0, dt))


def _reference_steps(model, absorb, x, logw, alive, rng, steps, dt):
    # one standard_normal call and two potential calls per step, and the
    # crossing term only on the live rows
    for _ in range(steps):
        x_old = x
        x = (x + np.asarray(model.drift(x), dtype=float) * dt
             + model.diffusion * math.sqrt(dt) * rng.standard_normal(x.shape))
        if absorb.soft_potential is not None:
            logw -= 0.5 * dt * (absorb.soft_potential(x_old) + absorb.soft_potential(x))
        if absorb.hard_interval is not None:
            a, b = absorb.hard_interval
            alive &= (x[:, 0] > a) & (x[:, 0] < b)
            logw[alive] += _bridge_reference(x_old[alive], x[alive], (a, b),
                                             model.diffusion, dt)
    return x, logw, alive


_MIXED = AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2,
                        hard_interval=(-1.0, 1.5))


def test_fk_reproduces_the_one_call_per_step_loop():
    # five partitions, their sums reduced in partition order
    n, t, dt, seed = 43000, 0.02, 1e-3, 3
    sums = np.zeros(4)
    for part, m in enumerate((10000,) * 4 + (3000,)):
        x, logw, alive = _reference_steps(
            OU, _MIXED, np.full((m, 1), 0.2), np.zeros(m), np.ones(m, dtype=bool),
            np.random.default_rng([seed, part]), round(t / dt), dt)
        w = np.where(alive, np.exp(logw), 0.0)
        fw = x[:, 0] * w
        sums += [float(w.sum()), float((w * w).sum()), float(fw.sum()),
                 float((fw * fw).sum())]
    q1, x_mean = sums[0] / n, sums[2] / n
    for threads in (1, 2):
        res = feynman_kac_estimate(OU, _MIXED, [0.2], t=t, n_particles=n, dt=dt,
                                   seed=seed, observables={"x": lambda x: x[:, 0]},
                                   threads=threads)
        assert res.q1_hat == q1
        assert res.stderr == math.sqrt((sums[1] / n - q1 * q1) / n)
        assert res.qf_hat["x"] == x_mean
        assert res.qf_stderr["x"] == math.sqrt((sums[3] / n - x_mean * x_mean) / n)


def test_qsd_reproduces_the_one_call_per_step_loop():
    n, period, dt, seed = 3000, 0.03, 1e-3, 4
    rng = np.random.default_rng([seed, 0xA5])
    x = rng.uniform(-0.5, 0.5, size=(n, 1))
    decrements = []
    for _ in range(5):
        x, logw, alive = _reference_steps(OU, _MIXED, x, np.zeros(n),
                                          np.ones(n, dtype=bool), rng, 30, dt)
        w = np.where(alive, np.exp(logw), 0.0)
        decrements.append(math.log(w.mean()))
        x = x[rng.choice(n, size=n, p=w / w.sum())]
    res = qsd_particle_estimate(
        OU, _MIXED, lambda rng, m: rng.uniform(-0.5, 0.5, size=(m, 1)),
        t=5 * period, n_particles=n, resample_period=period, dt=dt, seed=seed)
    assert np.array_equal(res.positions, x)
    assert np.array_equal(res.log_decrements, decrements)


def test_fk_threads_give_identical_results():
    runs = [feynman_kac_estimate(
        OU, AbsorptionSpec(soft_potential=lambda x: 0.5 * x[:, 0] ** 2),
        [0.3], t=0.1, n_particles=25000, dt=1e-3, seed=15,
        observables={"x": lambda x: x[:, 0], "x2": lambda x: x[:, 0] ** 2},
        threads=threads) for threads in (1, 2, 3)]
    for res in runs[1:]:
        assert res == runs[0]


def test_a_failing_drift_joins_every_thread():
    def drift(x):
        raise RuntimeError("drift failed")

    model = SDEModel(drift=drift, diffusion=1.0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="drift failed"):
        feynman_kac_estimate(model, AbsorptionSpec(), [0.0], t=0.1,
                             n_particles=20000, dt=1e-2, seed=1, threads=2)
    assert threading.active_count() == before


def test_threads_below_one_are_rejected():
    with pytest.raises(ValueError, match="threads = 0"):
        feynman_kac_estimate(BM, AbsorptionSpec(), [0.0], t=0.1,
                             n_particles=10, dt=1e-2, seed=1, threads=0)
    with pytest.raises(ValueError, match="threads = -1"):
        mc_validate("qsd_harmonic_rho", budget=0.01, threads=-1)


@pytest.mark.parametrize("dim", [1, 2])
def test_qsd_non_finite_mass_is_a_numerical_failure(dim):
    model = SDEModel(drift=lambda x: np.zeros_like(x), diffusion=1.0, dim=dim)
    with pytest.raises(ArithmeticError, match="period 0") as ei:
        qsd_particle_estimate(
            model, AbsorptionSpec(soft_potential=lambda x: np.full(len(x), np.nan)),
            lambda rng, m: rng.uniform(size=(m, dim)), t=0.2, n_particles=100,
            resample_period=0.05, dt=1e-2, seed=1)
    assert not isinstance(ei.value, ValueError)  # the CLI's config errors


@pytest.mark.parametrize("t", [0.01, 0.05])
def test_qsd_horizon_needs_two_periods_after_burn_in(t):
    with pytest.raises(ValueError, match=r"burn_in_fraction = 0\.5 .* t = 0\.0. .*"
                                         r"resample_period = 0\.05"):
        qsd_particle_estimate(BM, AbsorptionSpec(),
                              lambda rng, m: rng.uniform(size=(m, 1)), t=t,
                              n_particles=10, resample_period=0.05, dt=0.01,
                              seed=1)
