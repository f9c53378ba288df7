"""semistab benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload large_grid --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory, never from an installed copy.  One client, with one
OpenBLAS thread, runs the workload's fixed op list in a closed loop, pass
after pass, until the next pass would overrun ``--seconds`` (at least two
passes; with ``--trace 1`` untraced and traced passes alternate).  Every op's
output is checked and its artifact hashed; an artifact that differs from the
first pass of the run counts as a failed op.  Set-up time is measured on
separate child processes that start, import semistab and build the inputs.
The end-to-end times are speed-adjusted with a reference computation timed
between ops (speed.py); the raw times are printed beside them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics).  The lines before it name every
metric with its unit and sample count, the environment, and each failing
op.  With ``--trace 1`` the spans are written to
``.bench_build/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from envinfo import environment
from speed import REFERENCE_S, SpeedProbe
from tracing import COUNT_METRICS, OP_SPAN, TIME_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 5
MIN_PASSES = 2  # even when one pass outlasts --seconds, so wall_s is a median of two
MODULES = ("cli", "contraction", "core", "geometry", "kernels", "riccati",
           "simulate", "spectral", "subgeometric")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_semistab():
    for name in MODULES:
        importlib.import_module(f"semistab.{name}")
    ss = sys.modules["semistab"]
    if Path(ss.__file__).resolve().parent != SRC / "semistab":
        raise SystemExit(f"bench: semistab imported from {ss.__file__}, not from {SRC}")
    return ss


def _setup_samples(workload, seed, probe):
    """Per fresh interpreter: seconds from spawn until its inputs are ready,
    the same speed-adjusted, and the part spent importing numpy, scipy and
    semistab."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    setup, adjusted, imports = [], [], []
    for _ in range(SETUP_PROBES):
        probe.sample(5)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        word, _, import_s = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
        probe.sample(5)
        setup.append(t1 - t0)
        adjusted.append((t1 - t0) * probe.factor())
        imports.append(float(import_s))
    return setup, adjusted, imports


class Run:
    """State of one measured run: op outcomes, artifact hashes, pass timings.

    With a `SpeedProbe`, each untraced pass samples the host speed between
    ops and its times are also kept speed-adjusted (see speed.py).
    """

    def __init__(self, ss, run_op, ops, workdir, probe=None):
        self.ss, self.run_op, self.ops, self.workdir = ss, run_op, ops, workdir
        self.probe = probe
        self.first_hash = {}
        self.attempted = 0
        self.failed_ops = 0      # op executions with at least one failure
        self.failures = []       # (pass index, op id, reason)
        self.walls = {False: [], True: []}
        self.op_seconds = {op["id"]: [] for op in ops}  # untraced latencies per op
        self.op_adjusted = {op["id"]: [] for op in ops}  # the same, speed-adjusted
        self.factors = []        # per untraced pass: speed factor
        self.layer = []          # per traced pass: layer metrics
        self.cpu = []            # per traced pass: process CPU seconds

    def _one(self, op, k):
        t0 = time.perf_counter()
        try:
            data, problems = self.run_op(self.ss, op, self.workdir)
        except Exception as exc:  # an op that raises is a failed op; keep going
            data = b""
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"raised {type(exc).__name__}: {exc} "
                        f"(at {Path(where.filename).name}:{where.lineno})"]
        dt = time.perf_counter() - t0
        digest = hashlib.sha256(data).hexdigest()
        if self.first_hash.setdefault(op["id"], digest) != digest:
            problems.append("artifact differs from the first pass of this run")
        self.attempted += 1
        self.failed_ops += bool(problems)
        for reason in problems:
            self.failures.append((k, op["id"], reason))
        return dt, len(data)

    def one_pass(self, k, tracer=None):
        probe = self.probe if tracer is None else None
        if probe is not None:
            probe.sample()
            spent = probe.spent
        latencies = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for op in self.ops:
            if tracer is None:
                latencies.append(self._one(op, k)[0])
                if probe is not None:
                    probe.after_op(latencies[-1])
                continue
            tracer.op = op["id"]
            with tracer.span(OP_SPAN):
                _, nbytes = self._one(op, k)
            if op["op"] == "cli":
                tracer.counts["cli.artifact_bytes"] += nbytes
        wall = time.perf_counter() - t0
        if probe is not None:
            wall -= probe.spent - spent
            factor = probe.factor()
            self.factors.append(factor)
        else:
            factor = math.nan
        for op, dt in zip(self.ops, latencies):
            self.op_seconds[op["id"]].append(dt)
            self.op_adjusted[op["id"]].append(dt * factor)
        self.walls[tracer is not None].append(wall)
        if tracer is not None:
            self.cpu.append(time.process_time() - c0)
            self.layer.append(layer_metrics(tracer.spans, tracer.counts))
        return wall


def _measure(run, seconds, tracer):
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall = run.one_pass(k, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        k += 1
        if k >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            return


def _line(name, value, unit, n):
    return f"  {name:34s} {value:14.6g} {unit:6s} (n={n})"


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "semistab" / "__init__.py").is_file():
        print(f"bench: no semistab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread, set before numpy loads; the set-up probes inherit it.
    # On a few shared cores a second OpenBLAS thread waits on other
    # tenants' load, and every timing swings with it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import workloads  # the first numpy import

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ss = _load_semistab()
    if args.setup_probe:
        import_s = time.perf_counter() - t0
        workloads.build_ops(args.workload, args.seed)
        print(f"ready {import_s!r}", flush=True)
        return 0

    probe = SpeedProbe()
    setup, setup_adjusted, import_s = _setup_samples(args.workload, args.seed, probe)
    ops = workloads.build_ops(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        run = Run(ss, workloads.run_op, ops, workdir, probe)
        _measure(run, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(f"workload {args.workload}: {len(ops)} ops per pass, "
          f"{len(run.walls[False])} untraced and {len(run.walls[True])} traced passes")
    print("env " + json.dumps(env, sort_keys=True))
    print("pass seconds: " + ", ".join(
        f"{w:.3f}{' (traced)' if traced else ''}"
        for traced in (False, True) for w in run.walls[traced]))
    walls = run.walls[False]
    samples = sum(len(v) for v in run.op_seconds.values())

    def op_p50(per_op):  # median over distinct ops of each op's median latency
        return 1e3 * statistics.median(statistics.median(v) for v in per_op.values())

    print(f"raw, not speed-adjusted: setup_s {statistics.median(setup):.6g}, "
          f"wall_s {statistics.median(walls):.6g}, "
          f"op_p50_ms {op_p50(run.op_seconds):.6g}; speed factors "
          f"{min(run.factors):.4f} to {max(run.factors):.4f} "
          f"(reference {REFERENCE_S * 1e3:g} ms)")
    e2e = {
        "setup_s": (statistics.median(setup_adjusted), "s", len(setup)),
        "wall_s": (statistics.median(w * f for w, f in zip(walls, run.factors)), "s",
                   len(walls)),
        "op_p50_ms": (op_p50(run.op_adjusted), "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "fail_ratio": (run.failed_ops / run.attempted, "ratio", run.attempted),
    }
    print("end-to-end (tracing off, speed-adjusted):")
    for name, (value, unit, n) in e2e.items():
        print(_line(name, value, unit, n))
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()
               if k != "fail_ratio"}

    if tracer is not None:
        traced_wall = statistics.median(run.walls[True])
        layer = {m: statistics.median(p[m] for p in run.layer) for m in run.layer[0]}
        layer["process.import_s"] = statistics.median(import_s)
        layer["process.cpu_s"] = statistics.median(run.cpu)
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls)
        cover = max(sum(p[m] for m in TIME_METRICS) / w
                    for p, w in zip(run.layer, run.walls[True]))
        units = {m: "count" for m in COUNT_METRICS}
        units.update({"contraction.pair_bytes": "bytes", "cli.artifact_bytes": "bytes",
                      "spectral.converged_ratio": "ratio",
                      "simulate.particle_steps_per_s": "1/s"})
        print(f"per layer (median of {len(run.layer)} traced passes; the self times "
              f"of one traced pass add up to at most {cover:.4f} of its wall time):")
        metrics = {}
        for m in sorted(layer):
            unit = units.get(m, "s")
            print(_line(m, layer[m], unit, len(run.layer)))
            metrics[m] = {"value": layer[m], "unit": unit}
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"env": env, "last_traced_pass": tracer.dump(), "layer": layer}))

    for k, op_id, reason in run.failures:
        print(f"FAIL pass {k} op {op_id}: {reason}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
