"""Config-driven experiment runner.

A single JSON document describes one experiment: which command to run, the
model and grid, the Lyapunov spelling, time parameters, and the output
artifact.  `_SCHEMA` declares each command's keys, types and defaults;
any other key, unknown name or mistyped value is rejected with its path
before the command starts.  Exit codes:
0 success, 1 usage or config error, 2 an asserted inequality failed or a
numerical failure (reported on one stderr line, without a traceback).

Artifacts are deterministic: floats are serialized in decimal scientific
notation with 17 significant digits and keys are emitted in sorted order,
so identical configs and seeds yield byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from . import contraction, geometry, kernels, riccati, simulate, spectral, subgeometric
from .core import GridDomain, LyapunovSpec, MeasureVec

__all__ = ["run_experiment", "main", "ConfigError"]


class ConfigError(ValueError):
    pass


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
          str: (str, "a string"), dict: (dict, "a JSON object")}


def _typed(kind, value, path: str):
    """`value` checked against a schema kind (see `_SCHEMA`)."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path} must be one of {', '.join(kind)}, not {value!r}")
        return value
    if kind not in _KINDS:
        return value if kind is None else kind(value, path)
    abc, what = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, abc)
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path} must be {what}, not {value!r}")
    return kind(value) if kind in (int, float) else value


def _numbers(value, path: str):
    """A number or a list of numbers."""
    if isinstance(value, list):
        return [_typed(float, v, f"{path}[{i}]") for i, v in enumerate(value)]
    return _typed(float, value, path)


def _at_least(kind, low):
    """A schema kind: a `kind` value no smaller than `low`."""
    def check(value, path: str):
        value = _typed(kind, value, path)
        if value < low:
            raise ConfigError(f"{path} must be >= {low}, not {value}")
        return value
    return check


def _case_names(value, path: str):
    """"all", or a nonempty list of distinct case names."""
    if isinstance(value, list):
        names = [_typed(tuple(simulate.list_cases()), v, f"{path}[{i}]")
                 for i, v in enumerate(value)]
        if not names:
            raise ConfigError(f"{path} must name at least one case")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"{path}[{i}] repeats case {name!r}")
        return names
    if value == "all":
        return value
    raise ConfigError(f'{path} must be "all" or a list of case names')


def _model(value, path: str):
    """A model section: `name` a key of `kernels.MODELS`, and `params` the
    model's constructor fields, each of the kind its annotation names
    (int or float), defaults filled in from the fields."""
    model = _resolve({"name": (tuple(kernels.MODELS),), "params": (dict, {})}, value, path)
    spec = {f.name: ({"int": int, "float": float}[f.type], f.default)
            for f in dataclasses.fields(kernels.MODELS[model["name"]]) if f.init}
    return {**model, "params": _resolve(spec, model["params"], f"{path}.params")}


def _resolve(spec: dict, given, path: str) -> dict:
    """`given` checked against a spec (see `_SCHEMA`), defaults filled in."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be a JSON object")
    for key in given:
        if key not in spec:
            raise ConfigError(f"unknown key {path}.{key}")
    resolved = {}
    for key, rule in spec.items():
        name = key if path == "config" else f"{path}.{key}"
        if isinstance(rule, dict):
            resolved[key] = _resolve(rule, given.get(key, {}), name)
        elif key in given:
            resolved[key] = _typed(rule[0], given[key], name)
        elif len(rule) == 2:
            resolved[key] = rule[1]
        else:
            raise ConfigError(f"{name} is required")
    return resolved


def _one_line(exc) -> str:
    """exc's message with control characters escaped: one printed line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))


def _fmt(x) -> str:
    """A finite float in decimal scientific notation, 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ArithmeticError(f"non-finite value {x!r} in artifact")
    return format(x, ".16e")


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  "{k}": {_render_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), indent)
    raise TypeError(f"unsupported artifact value {type(obj)}")


def _write_json(path: Path, payload: dict):
    path.write_text(_render_json(payload) + "\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _assertions_block(pairs):
    return [{"name": name, "lhs": float(lhs), "rhs": float(rhs), "pass": bool(ok)}
            for name, lhs, rhs, ok in pairs]


def _discretize(cfg):
    """Model, grid and discretized operator of a grid command."""
    model = kernels.MODELS[cfg["model"]["name"]](**cfg["model"]["params"])
    g = cfg["grid"]
    grid = (GridDomain.uniform_open if model.open_grid
            else GridDomain.uniform_closed)(g["min"], g["max"], g["n"])
    return model, grid, kernels.discretize(model, grid, cfg["time"]["tau"])


def _ground_state(cfg):
    """`_discretize`, then the leading eigen-triple, which needs every grid
    point reached.  A zero column is where the kernel underflowed, so it is
    a numerical failure, not a reducible operator's config error."""
    model, grid, op = _discretize(cfg)
    live = op.matrix.any(axis=0)
    if not live.all():
        raise ArithmeticError(
            f"the kernel mass underflowed to zero in {grid.size - live.sum()} of "
            f"{grid.size} grid columns, the first at x={float(grid.points[live.argmin()])!r}")
    return model, grid, op, spectral.leading_eigentriple(op, tol=1e-12)


# ---------------------------------------------------------------------------
# Command implementations.  Each takes the resolved config and returns
# (results dict, assertions list, curve rows or None, key summary scalar).
# ---------------------------------------------------------------------------

def _cmd_eigen(cfg):
    model, grid, op, triple = _ground_state(cfg)
    results = {
        "rho": triple.rho,
        "converged": triple.converged,
        "residual_right": triple.residual_right,
        "residual_left": triple.residual_left,
        "iterations": triple.iterations,
        "grid_n": grid.size,
        "tau": cfg["time"]["tau"],
    }
    assertions = [("power_iteration_converged", float(triple.converged), 1.0,
                   triple.converged)]
    exact = getattr(model, "exact_rho", None)
    if exact is not None:
        results["rho_exact"] = float(exact)
        results["rho_abs_error"] = abs(triple.rho - exact)
    return results, assertions, None, triple.rho


def _cmd_contract(cfg):
    V = LyapunovSpec.parse(cfg["lyapunov"])
    _, grid, op = _discretize(cfg)
    cert = contraction.foster_lyapunov_verify(op, V)
    results = {
        "ok": cert.ok,
        "theta_min": float(cert.theta.values.min()),
        "theta_max": float(cert.theta.values.max()),
    }
    assertions = []
    if cert.ok:
        vals = V(grid.points)
        worst = float((op.matrix @ vals - cert.epsilon * vals - cert.c).max())
        results.update(epsilon=cert.epsilon, c=cert.c, r=cert.r,
                       alpha_r=cert.alpha_r)
        assertions.append(("drift_inequality_P(V)<=eps_V+c", worst, 0.0,
                           worst <= 1e-10))
        assertions.append(("alpha_r_positive", cert.alpha_r, 0.0,
                           cert.alpha_r > 0))
    else:
        results["reason"] = cert.reason
        assertions.append(("drift_certificate_found", 0.0, 1.0, False))
    return results, assertions, None, results.get("epsilon", float("nan"))


def _cmd_decay(cfg):
    T = cfg["time"]["t_max"]
    _, grid, op, triple = _ground_state(cfg)
    P = kernels.doob_h_transform(op, triple.h, triple.rho)
    V = LyapunovSpec.parse(cfg["lyapunov"])
    i = int(np.argmin(np.abs(grid.points - cfg["extra"]["x1"])))
    j = int(np.argmin(np.abs(grid.points - cfg["extra"]["x2"])))
    curve = contraction.geometric_decay_curve(
        P, V, MeasureVec.dirac(grid, i), MeasureVec.dirac(grid, j), T
    )
    rows = list(zip(curve.times.tolist(), curve.values.tolist()))
    results = {"fitted_rate": curve.fitted_rate}
    return results, [], rows, curve.fitted_rate


def _cmd_rate(cfg):
    extra = cfg["extra"]
    if extra["chain"] == "certified":
        P, V, drift, c = subgeometric.build_certified_chain()
    else:
        P, V, drift, c = subgeometric.build_subgeo_chain()
    n = P.grid.size
    nu = np.zeros(n)
    # null starts from the top state, as the chains differ in size; the
    # artifact's inputs name the state used
    start = extra["start"] = n - 1 if extra["start"] is None else extra["start"]
    if not 1 <= start <= n - 1:
        raise ConfigError(f"extra.start must lie in [1, {n - 1}]")
    nu[start], nu[0] = 1.0, -1.0
    rep = subgeometric.polynomial_rate_check(
        P, V, drift, extra["rho"], MeasureVec(nu, P.grid), extra["t_max"])
    rows = list(zip(rep.times.tolist(), rep.values.tolist()))
    results = {"certified": rep.certified, "note": rep.note}
    assertions = []
    if rep.certified:
        assertions.append((
            "measured_curve_below_envelope",
            float(np.max(rep.values - rep.envelope)), 0.0,
            bool(rep.assertion_ok),
        ))
    return results, assertions, rows, float(rep.values[-1])


def _cmd_riccati(cfg):
    extra = cfg["extra"]
    if extra["kind"] == "scalar":
        spec = riccati.ScalarRiccati(extra["a0"], extra["a1"], extra["b"])
        z = riccati.scalar_riccati(spec, extra["z0"], extra["t"])
        gap = abs(z - spec.z_inf)
        results = {"z_final": z, "z_inf": spec.z_inf, "gap": gap}
        assertions = [("flow_reaches_fixed_point", gap, 1e-8, gap <= 1e-8)]
        return results, assertions, None, z
    if extra["kind"] == "matrix_tanh":
        spec = riccati.MatrixRiccati(np.zeros((1, 1)), np.ones((1, 1)),
                                     np.ones((1, 1)))
        p = riccati.matrix_riccati(spec, extra["t"])
        err = abs(p[0, 0] - math.tanh(extra["t"]))
        results = {"p_final": float(p[0, 0]), "tanh_t": math.tanh(extra["t"]),
                   "abs_error": err}
        assertions = [("matches_tanh", err, 1e-8, err <= 1e-8)]
        return results, assertions, None, float(p[0, 0])
    rng = np.random.default_rng(cfg["seed"])
    A = rng.normal(size=(2, 2))
    Sig = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    Cs = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    S = Cs @ Cs.T
    res = riccati.coupled_oscillator_semigroup(A, Sig, S,
                                               np.array([1.0, -1.0]), 30.0)
    spec = riccati.MatrixRiccati(A, Sig @ Sig.T, S)
    p_inf = riccati.matrix_riccati(spec, 60.0)
    target = -0.5 * float(np.trace(S @ p_inf))
    err = abs(res.rho_hat - target)
    results = {"rho_hat": res.rho_hat, "rho_algebraic": target,
               "abs_error": err,
               "algebraic_residual": riccati.algebraic_residual(spec, p_inf)}
    assertions = [("rho_matches_fixed_point", err, 1e-6, err <= 1e-6)]
    return results, assertions, None, res.rho_hat


def _cmd_geometry(cfg):
    extra = cfg["extra"]
    surf = geometry.make_surface(extra["surface"], epsilon=extra["epsilon"])
    theta = np.atleast_1d(extra["theta"])
    if isinstance(surf, dict):
        surf = surf["psi0"]
    if extra["op"] == "shape":
        ff = geometry.fundamental_forms(surf, theta)
        results = {"W": ff.W, "Omega": ff.Omega, "g": ff.g}
        key = float(ff.W.ravel()[0])
        return results, [], None, key
    if extra["op"] == "frame":
        fr = geometry.frame(surf, theta)
        return {"N": fr.N, "T": fr.T, "g": fr.g}, [], None, float(fr.g.ravel()[0])
    if extra["op"] == "offset":
        val = geometry.offset_jacobian(surf, theta, extra["u"])
        return {"offset_jacobian": val}, [], None, val
    r = geometry.weingarten_identity_check(surf, theta)
    return ({"residual": r}, [("weingarten_identity", r, 1e-5, r <= 1e-5)],
            None, r)


def _cmd_simulate(cfg):
    rep = simulate.mc_validate(cfg["extra"]["case"], budget=cfg["extra"]["budget"],
                               seed=cfg["seed"], threads=cfg["threads"])
    results = {"case": rep.case, "estimate": rep.estimate, "oracle": rep.oracle,
               "stderr": rep.stderr, "z": rep.z}
    return results, [], None, rep.estimate


def _cmd_validate(cfg):
    names = cfg["extra"]["cases"]
    names = simulate.list_cases() if names == "all" else names
    results = {}
    assertions = []
    for name in names:
        rep = simulate.mc_validate(name, budget=cfg["extra"]["budget"],
                                   seed=cfg["seed"], threads=cfg["threads"])
        results[name] = {"estimate": rep.estimate, "oracle": rep.oracle,
                         "stderr": rep.stderr, "z": rep.z, "pass": rep.ok}
        assertions.append((name, abs(rep.estimate - rep.oracle), rep.tol, rep.ok))
    n_pass = sum(1 for a in assertions if a[3])
    return results, assertions, None, float(n_pass)


# Every key each command reads.  A key maps to a nested spec (a section),
# to (kind,) if it is required or to (kind, default).  A kind is None
# (anything), a tuple of choices, a check function of (value, path), or int,
# float, str or dict: a number given as a bool or a string, a non-integer
# count and a non-finite float are rejected, and counts and numbers come
# back as int and float; `_at_least` adds a lower bound to int or float.
# A model, surface or case name is one of its registry's keys, and `_model`
# reads a model's parameters from its fields.
# Every command takes the keys of _COMMON; a `time` or `extra` section that
# it does not read must be empty.  Only the curve commands (`_CURVE`) may
# write CSV.
_COMMON = {"command": (None,), "seed": (int, 0), "threads": (_at_least(int, 1), 1),
           "output": {"path": (str, None), "format": (("json",), "json")},
           "time": {}, "extra": {}}
_CURVE = {"output": {"path": (str, None), "format": (("json", "csv"), "json")}}
_MONTE_CARLO = {**_COMMON, "seed": (int, 20240)}  # mc_validate's default seed
_GRID = {"model": (_model,), "grid": {"min": (float,), "max": (float,), "n": (int,)}}
_SCHEMA = {
    "eigen": {**_COMMON, **_GRID, "time": {"tau": (float, 0.5)}},
    "contract": {**_COMMON, **_GRID, "lyapunov": (None, "poly:2"),
                 "time": {"tau": (float, 1.0)}},
    "decay": {**_COMMON, **_GRID, **_CURVE, "lyapunov": (None, "poly:2"),
              "time": {"tau": (float, 1.0), "t_max": (_at_least(int, 0), 12)},
              "extra": {"x1": (float, -2.0), "x2": (float, 2.0)}},
    "rate": {**_COMMON, **_CURVE, "extra": {
        "chain": (("certified", "canonical"), "certified"),
        "rho": (_at_least(float, 0.0), 0.9), "t_max": (_at_least(int, 1), 200),
        "start": (int, None)}},
    "riccati": {**_COMMON, "extra": {
        "kind": (("scalar", "matrix_tanh", "coupled"), "scalar"),
        "a0": (float, 1.0), "a1": (float, 0.0), "b": (float, 1.0),
        "z0": (float, 0.0), "t": (float, 10.0)}},
    "geometry": {**_COMMON, "extra": {
        "op": (("shape", "frame", "offset", "weingarten_residual"), "shape"),
        "surface": (tuple(geometry.SURFACES), "parabola"), "theta": (_numbers, 0.0),
        "u": (float, 0.1), "epsilon": (int, 1)}},
    "simulate": {**_MONTE_CARLO, "extra": {
        "case": (tuple(simulate.list_cases()), "harmonic_mass_t1"), "budget": (float, 1.0)}},
    "validate": {**_MONTE_CARLO, "extra": {"cases": (_case_names, "all"),
                                           "budget": (float, 1.0)}},
}
_TOP_KEYS = set().union(*_SCHEMA.values())
_DISPATCH = {name: globals()[f"_cmd_{name}"] for name in _SCHEMA}


def run_experiment(config: dict, out_dir=None, seed=None, threads=None) -> int:
    """Resolve the config against its command's schema, run the command and
    write artifacts.  `seed` and `threads`, when given, override the
    config's values.

    Returns the process exit code (0 ok, 1 config error, an unwritable
    output path included, 2 assertion failure or numerical failure: an
    ArithmeticError, an allocation too large for memory, a flow or particle
    extinction or a non-finite artifact value).  Every nonzero exit prints
    exactly one stderr line.  The artifact's `inputs` is the resolved
    config without `output` and `threads`, which changes no result; with no
    wall-clock data in it, reruns with the same config and seed are
    byte-identical.
    """
    t0 = time.perf_counter()
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if config.get("command") not in tuple(_SCHEMA):
            raise ConfigError(f"config.command must be one of {sorted(_SCHEMA)}")
        for key, value in (("seed", seed), ("threads", threads)):
            if value is not None:
                config = {**config, key: value}
        cfg = _resolve(_SCHEMA[config["command"]], config, "config")
        results, assertions, rows, key = _DISPATCH[cfg["command"]](cfg)
        wrote = []
        out = cfg["output"]
        if out["path"] is not None:
            path = Path(out["path"])
            if out_dir is not None:
                path = Path(out_dir) / path.name
            path.parent.mkdir(parents=True, exist_ok=True)
            if out["format"] == "csv":
                _write_csv(path, ("t", "value"), rows)
            else:
                _write_json(path, {
                    "inputs": {k: v for k, v in cfg.items()
                               if k not in ("output", "threads")},
                    "results": results,
                    "assertions": _assertions_block(assertions),
                })
            wrote.append(str(path))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except (ArithmeticError, MemoryError, spectral.FlowExtinctionError,
            simulate.ExtinctionError) as exc:
        print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
        return 2

    failed = [a for a in assertions if not a[3]]
    wall = time.perf_counter() - t0
    status = "FAIL" if failed else "ok"
    key = "null" if key is None else format(key, ".6g")
    print(f"{cfg['command']}: key={key} assertions="
          f"{len(assertions) - len(failed)}/{len(assertions)} "
          f"{' '.join(wrote)} [{status}, {wall:.2f}s]")
    if failed:
        print(f"assertion failed: {', '.join(a[0] for a in failed)}",
              file=sys.stderr)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="numerical laboratory for stability of positive semigroups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to the JSON config")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--threads", type=int, default=None)
    sub.add_parser("list-models", help="list kernel models and surfaces")
    sub.add_parser("list-cases", help="list Monte Carlo validation cases")
    args = parser.parse_args(argv)
    if args.cmd == "list-models":
        for name in kernels.MODELS:
            print(name)
        for name in geometry.SURFACES:
            print(f"surface:{name}")
        return 0
    if args.cmd == "list-cases":
        for name in simulate.list_cases():
            print(name)
        return 0
    try:
        config = json.loads(Path(args.config).read_text(),
                            parse_constant=lambda c: _typed(float, float(c), c))
    except (OSError, ValueError) as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    return run_experiment(config, out_dir=args.out, seed=args.seed,
                          threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
