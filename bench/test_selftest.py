"""Self-tests of the benchmark's own arithmetic, counters and input generation."""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("op", 0.0, 10.0, None, "a"),
        Span("cli", 1.0, 9.0, 0, "a"),
        Span("kernels.discretize", 2.0, 4.0, 1, "a"),
        Span("spectral.eigentriple", 5.0, 8.0, 1, "a"),
        Span("kernels.linear_flow", 2.5, 3.0, 2, "a"),
        Span("op", 10.0, 11.0, None, "b"),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 3.0, 0.5, 1.0])
    m = layer_metrics(spans, Counter())
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["kernels.discretize_s"] == pytest.approx(1.5)
    assert m["ops.unattributed_s"] == pytest.approx(3.0)
    # self times of all layers add up to the root spans, never more
    assert sum(m[k] for k in tracing.TIME_METRICS) == pytest.approx(11.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("op", 0.0, 4.0, None, "a"),
             Span("cli", 1.0, 3.0, 0, "a"),
             Span("cli", 2.0, 5.0, 0, "a")]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture
def tracer():
    pytest.importorskip("semistab.cli")  # imports every module the tracer wraps
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_row_pairs_of_known_pair_scans(tracer):
    from semistab import contraction
    from semistab.core import GridDomain, LyapunovSpec
    from semistab.kernels import DiscreteOperator

    n = 6
    grid = GridDomain.uniform_closed(0.0, 1.0, n)
    P = DiscreteOperator(np.full((n, n), 1.0 / n), grid, 1.0, is_markov=True)
    V = LyapunovSpec.table(np.arange(1.0, n + 1), grid)
    contraction.v_dobrushin(P, V)
    assert tracer.counts["contraction.row_pairs"] == n * (n - 1) // 2
    contraction.local_minorization(P, V, 3.0)  # rows with V <= 3: three of them
    assert tracer.counts["contraction.row_pairs"] == 15 + 3
    assert tracer.counts["contraction.pair_bytes"] == 18 * 2 * n * 8
    assert [s.name for s in tracer.spans] == ["contraction.pair_scan"] * 2


def test_particle_steps_of_known_runs(tracer):
    from semistab import simulate

    bm = simulate.SDEModel(drift=lambda x: np.zeros_like(x), diffusion=1.0)
    simulate.feynman_kac_estimate(bm, simulate.AbsorptionSpec(), [0.0], t=0.01,
                                  n_particles=100, dt=1e-3, seed=1)
    assert tracer.counts["simulate.particle_steps"] == 100 * 10
    assert tracer.counts["simulate.partitions"] == 1
    simulate.qsd_particle_estimate(
        bm, simulate.AbsorptionSpec(hard_interval=(-5.0, 5.0)),
        lambda rng, m: rng.uniform(-1.0, 1.0, size=(m, 1)), t=0.2, n_particles=50,
        resample_period=0.05, dt=1e-3, seed=1)
    assert tracer.counts["simulate.particle_steps"] == 1000 + 50 * 50 * 4
    assert tracer.counts["simulate.resamplings"] == 4


def test_install_wraps_every_binding_and_uninstall_restores_it(tracer):
    from semistab import kernels, spectral

    original = kernels.discretize.__wrapped__
    assert spectral.discretize is kernels.discretize  # spectral imports it by name
    tracer.uninstall()
    assert kernels.discretize is original
    assert spectral.discretize is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_op_list(workload):
    ops = workloads.build_ops(workload, 7)
    assert ops == workloads.build_ops(workload, 7)
    by_id = {}
    for op in ops:  # an op listed twice carries one id, and an id one op
        assert by_id.setdefault(op["id"], op) == op
    assert ops != workloads.build_ops(workload, 8)


def test_failing_and_nondeterministic_ops_are_counted_and_the_run_goes_on(tmp_path):
    import run

    calls = Counter()

    def fake_op(ss, op, workdir):
        calls[op["id"]] += 1
        if op["id"] == "raises":
            raise ArithmeticError("boom")
        if op["id"] == "drifts":
            return str(calls["drifts"]).encode(), []
        return b"same", []

    ops = [{"id": name, "op": "fake"} for name in ("raises", "drifts", "steady")]
    r = run.Run(None, fake_op, ops, tmp_path)
    r.one_pass(0)
    r.one_pass(1)
    assert r.attempted == 6
    assert [(k, op) for k, op, _ in r.failures] == [(0, "raises"), (1, "raises"), (1, "drifts")]
    assert r.failed_ops == 3
    assert "differs from the first pass" in r.failures[-1][2]


def test_speed_adjusted_times_scale_by_the_pass_factor_and_exclude_the_probe(tmp_path):
    import run

    class FakeProbe:
        spent = 0.0

        def sample(self, n=1):
            time.sleep(0.01 * n)
            self.spent += 0.01 * n

        def after_op(self, seconds):
            self.sample(2)

        def factor(self):
            return 0.5

    ops = [{"id": name, "op": "fake"} for name in ("a", "b")]
    r = run.Run(None, lambda ss, op, workdir: (b"same", []), ops, tmp_path, FakeProbe())
    wall = r.one_pass(0)
    assert wall < 0.02  # the 40 ms of probe samples between ops are not pass time
    assert r.factors == [0.5]
    for op_id in ("a", "b"):
        assert r.op_adjusted[op_id] == [0.5 * t for t in r.op_seconds[op_id]]
