"""Span tracing of semistab's layers, done from outside the package.

`Tracer.install` replaces chosen public functions of the semistab modules
with wrappers that record a span (name, start, end, parent span, op id) and
bump counters computed from the call's arguments and result.  Spans stay in
memory until the run writes them out.  `core` gets no span: its value types
run in microseconds inside every other layer, and wrapping them would swamp
the trace.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: str | None


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for k, s in enumerate(spans):
        covered, hi = 0.0, s.start
        for c in sorted(children[k], key=lambda c: c.start):
            lo, end = max(c.start, hi), min(c.end, s.end)
            if end > lo:
                covered += end - lo
                hi = end
        out.append(s.end - s.start - covered)
    return out


# -- counters, computed from the call's bound arguments and its result -------

def _pairs(counts, m, n):
    """m rows scanned pairwise, each row of n float64 entries."""
    pairs = m * (m - 1) // 2
    counts["contraction.row_pairs"] += pairs
    counts["contraction.pair_bytes"] += pairs * 2 * n * 8


def _count_dobrushin(counts, a, result):
    n = a["P"].grid.size
    _pairs(counts, n, n)


def _count_minorization(counts, a, result):
    P = a["P"]
    _pairs(counts, int((a["V"](P.grid.points) <= a["r"]).sum()), P.grid.size)


def _count_nonexpansive(counts, a, result):
    P = a["P"]
    phiv = a["phi"](a["V"](P.grid.points))
    _pairs(counts, int((phiv <= a["r"]).sum()), P.grid.size)


def _count_flow_steps(counts, a, result):
    counts["riccati.flow_steps"] += max(1, math.ceil(a["t"] / a["dt"]))


def _count_eigentriple(counts, a, result):
    counts["spectral.calls"] += 1
    counts["spectral.iterations"] += result.iterations
    counts["spectral.converged"] += bool(result.converged)


def _count_fk(counts, a, result):
    from semistab import simulate

    n = a["n_particles"]
    counts["simulate.particle_steps"] += n * max(1, round(a["t"] / a["dt"]))
    counts["simulate.partitions"] += math.ceil(n / simulate._PARTITION)


def _count_qsd(counts, a, result):
    steps = round(a["resample_period"] / a["dt"]) * round(a["t"] / a["resample_period"])
    counts["simulate.particle_steps"] += a["n_particles"] * steps
    counts["simulate.resamplings"] += result.n_resamplings


def _count(name):
    def bump(counts, a, result):
        counts[name] += 1
    return bump


# (module, function, span name, counter or None)
TARGETS = [
    ("kernels", "discretize", "kernels.discretize",
     lambda c, a, r: c.update({"kernels.discretize_rows": a["grid"].size})),
    ("kernels", "half_harmonic_linear", "kernels.linear_flow", _count("kernels.linear_flow_calls")),
    ("kernels", "gauss_ou_kernel", "kernels.linear_flow", _count("kernels.linear_flow_calls")),
    ("kernels", "doob_h_transform", "kernels.h_transform", None),
    ("spectral", "leading_eigentriple", "spectral.eigentriple", _count_eigentriple),
    ("contraction", "v_dobrushin", "contraction.pair_scan", _count_dobrushin),
    ("contraction", "local_minorization", "contraction.pair_scan", _count_minorization),
    ("contraction", "nonexpansive_check", "contraction.pair_scan", _count_nonexpansive),
    ("contraction", "foster_lyapunov_verify", "contraction.verify", None),
    ("contraction", "geometric_decay_curve", "contraction.decay", None),
    ("contraction", "build_pvc_chain", "contraction.chain_build", None),
    ("subgeometric", "polynomial_rate_check", "subgeometric.rate_check", None),
    ("subgeometric", "ode_majorant", "subgeometric.majorant", None),
    ("subgeometric", "build_certified_chain", "subgeometric.chain_build", None),
    ("subgeometric", "build_subgeo_chain", "subgeometric.chain_build", None),
    ("riccati", "scalar_riccati", "riccati.flow", _count_flow_steps),
    ("riccati", "matrix_riccati", "riccati.flow", _count_flow_steps),
    ("riccati", "coupled_oscillator_semigroup", "riccati.flow", _count_flow_steps),
    ("riccati", "bd_moment_bound", "riccati.bd",
     lambda c, a, r: c.update({"riccati.bd_paths": a["n_paths"]})),
    ("geometry", "coarea_check", "geometry.coarea", _count("geometry.calls")),
    ("geometry", "level_set_density", "geometry.level_set", _count("geometry.calls")),
    ("geometry", "signed_distance", "geometry.signed_distance", _count("geometry.calls")),
    ("simulate", "feynman_kac_estimate", "simulate.fk", _count_fk),
    ("simulate", "qsd_particle_estimate", "simulate.qsd", _count_qsd),
    ("cli", "run_experiment", "cli", None),
]

OP_SPAN = "op"  # root span of one benchmark op; its self time is unattributed


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        s = Span(name, time.perf_counter(), math.nan,
                 self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result
        return traced

    def install(self):
        """Wrap every TARGETS function wherever a semistab module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "semistab" or k.startswith("semistab.")]
        for mod_name, fn_name, span_name, count in TARGETS:
            fn = getattr(sys.modules[f"semistab.{mod_name}"], fn_name)
            traced = self._wrapper(fn, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def dump(self):
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


# -- per-layer metrics of one traced pass -------------------------------------

def _time_metric(span_name):
    return "cli.self_s" if span_name == "cli" else f"{span_name}_s"


TIME_METRICS = sorted({_time_metric(t[2]) for t in TARGETS}) + ["ops.unattributed_s"]
COUNT_METRICS = [
    "kernels.discretize_rows", "kernels.linear_flow_calls", "spectral.iterations",
    "contraction.row_pairs", "contraction.pair_bytes", "riccati.flow_steps",
    "riccati.bd_paths", "geometry.calls", "simulate.particle_steps",
    "simulate.partitions", "simulate.resamplings", "cli.artifact_bytes",
]


def layer_metrics(spans, counts) -> dict:
    """Self time per layer span name, the counters, and the derived ratios.

    A ratio whose base is zero (no call of that layer in the pass) reads 0.
    """
    per_name = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        per_name["ops.unattributed_s" if s.name == OP_SPAN else _time_metric(s.name)] += t
    out = {m: per_name[m] for m in TIME_METRICS}
    out.update({m: float(counts[m]) for m in COUNT_METRICS})
    calls = counts["spectral.calls"]
    out["spectral.converged_ratio"] = counts["spectral.converged"] / calls if calls else 0.0
    busy = out["simulate.fk_s"] + out["simulate.qsd_s"]
    out["simulate.particle_steps_per_s"] = (
        counts["simulate.particle_steps"] / busy if busy > 0 else 0.0)
    return out
