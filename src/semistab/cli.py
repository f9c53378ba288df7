"""Config-driven experiment runner.

A single JSON document describes one experiment: which command to run, the
model and grid, the Lyapunov spelling, time parameters, and the output
artifact.  Unknown keys are rejected with the offending path.  Exit codes:
0 success, 1 usage or config error, 2 an asserted inequality failed or a
numerical failure (reported on one stderr line, without a traceback).

Artifacts are deterministic: floats are serialized in decimal scientific
notation with 17 significant digits and keys are emitted in sorted order,
so identical configs and seeds yield byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import contraction, geometry, kernels, riccati, simulate, spectral, subgeometric
from .core import GridDomain, LyapunovSpec, MeasureVec

__all__ = ["run_experiment", "main", "ConfigError"]


class ConfigError(ValueError):
    pass


class AssertionFailed(RuntimeError):
    pass


_TOP_KEYS = {"command", "model", "grid", "lyapunov", "time", "output",
             "seed", "threads", "extra"}
_COMMANDS = {"eigen", "contract", "decay", "rate", "riccati", "geometry",
             "simulate", "validate"}

_OPEN_GRID_MODELS = {"dirichlet_heat", "half_harmonic", "half_harmonic_linear"}

# keys each command reads from the `time` section; other commands read none
_TIME_KEYS = {"eigen": {"tau"}, "contract": {"tau"}, "decay": {"tau", "t_max"}}


def _check_keys(section: dict, allowed: set, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    return section


def _extra(cfg: dict, *keys) -> dict:
    """The command's `extra` section, checked against its keys."""
    return _check_keys(cfg.get("extra", {}), set(keys), "extra")


def _one_line(exc) -> str:
    """exc's message with control characters escaped: one printed line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))


def _fmt(x) -> str:
    """A finite float in decimal scientific notation, 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise AssertionFailed(f"non-finite value {x!r} in artifact")
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


def _build_grid(cfg_grid: dict, model_name: str) -> GridDomain:
    _check_keys(cfg_grid, {"min", "max", "n"}, "grid")
    try:
        lo, hi, n = float(cfg_grid["min"]), float(cfg_grid["max"]), int(cfg_grid["n"])
    except KeyError as exc:
        raise ConfigError(f"grid.{exc.args[0]} is required") from None
    if model_name in _OPEN_GRID_MODELS:
        return GridDomain.uniform_open(lo, hi, n)
    return GridDomain.uniform_closed(lo, hi, n)


def _build_model(cfg_model: dict):
    _check_keys(cfg_model, {"name", "params"}, "model")
    if "name" not in cfg_model:
        raise ConfigError("model.name is required")
    try:
        return kernels.make_model(cfg_model["name"], **cfg_model.get("params", {}))
    except TypeError as exc:
        raise ConfigError(f"model.params: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _assertions_block(pairs):
    out = []
    for name, lhs, rhs, ok in pairs:
        out.append({"name": name, "lhs": float(lhs), "rhs": float(rhs),
                    "pass": bool(ok)})
    return out


def _discretize(cfg, tau_default: float):
    """Model, grid, time step and discretized operator of a grid command."""
    model = _build_model(cfg.get("model", {}))
    grid = _build_grid(cfg.get("grid", {}), model.name)
    tau = float(cfg.get("time", {}).get("tau", tau_default))
    return model, grid, tau, kernels.discretize(model, grid, tau)


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (results dict, assertions list,
# curve rows or None, key summary scalar).
# ---------------------------------------------------------------------------

def _cmd_eigen(cfg):
    model, grid, tau, op = _discretize(cfg, 0.5)
    triple = spectral.leading_eigentriple(op, tol=1e-12)
    results = {
        "rho": triple.rho,
        "converged": triple.converged,
        "residual_right": triple.residual_right,
        "residual_left": triple.residual_left,
        "iterations": triple.iterations,
        "grid_n": grid.size,
        "tau": tau,
    }
    assertions = [("power_iteration_converged", float(triple.converged), 1.0,
                   triple.converged)]
    exact = getattr(model, "exact_rho", None)
    if exact is not None:
        results["rho_exact"] = float(exact)
        results["rho_abs_error"] = abs(triple.rho - exact)
    return results, assertions, None, triple.rho


def _cmd_contract(cfg):
    V = LyapunovSpec.parse(cfg.get("lyapunov", "poly:2"))
    _, grid, _, op = _discretize(cfg, 1.0)
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
    T = int(cfg.get("time", {}).get("t_max", 12))
    _, grid, _, op = _discretize(cfg, 1.0)
    triple = spectral.leading_eigentriple(op, tol=1e-12)
    P = kernels.doob_h_transform(op, triple.h, triple.rho)
    V = LyapunovSpec.parse(cfg.get("lyapunov", "poly:2"))
    extra = _extra(cfg, "x1", "x2")
    x1 = float(extra.get("x1", -2.0))
    x2 = float(extra.get("x2", 2.0))
    i = int(np.argmin(np.abs(grid.points - x1)))
    j = int(np.argmin(np.abs(grid.points - x2)))
    curve = contraction.geometric_decay_curve(
        P, V, MeasureVec.dirac(grid, i), MeasureVec.dirac(grid, j), T
    )
    rows = list(zip(curve.times.tolist(), curve.values.tolist()))
    results = {"fitted_rate": curve.fitted_rate}
    return results, [], rows, curve.fitted_rate


def _cmd_rate(cfg):
    extra = _extra(cfg, "chain", "rho", "t_max", "start")
    chain_name = extra.get("chain", "certified")
    if chain_name == "certified":
        P, V, drift, c = subgeometric.build_certified_chain()
    elif chain_name == "canonical":
        P, V, drift, c = subgeometric.build_subgeo_chain()
    else:
        raise ConfigError(f"extra.chain must be certified or canonical")
    n = P.grid.size
    nu = np.zeros(n)
    start = int(extra.get("start", n - 1))
    if not 1 <= start <= n - 1:
        raise ConfigError(f"extra.start must lie in [1, {n - 1}]")
    nu[start], nu[0] = 1.0, -1.0
    rep = subgeometric.polynomial_rate_check(
        P, V, drift, float(extra.get("rho", 0.9)),
        MeasureVec(nu, P.grid), int(extra.get("t_max", 200)),
    )
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
    extra = _extra(cfg, "kind", "a0", "a1", "b", "z0", "t", "seed_spec")
    kind = extra.get("kind", "scalar")
    t = float(extra.get("t", 10.0))
    if kind == "scalar":
        spec = riccati.ScalarRiccati(float(extra.get("a0", 1.0)),
                                     float(extra.get("a1", 0.0)),
                                     float(extra.get("b", 1.0)))
        z = riccati.scalar_riccati(spec, float(extra.get("z0", 0.0)), t)
        gap = abs(z - spec.z_inf)
        results = {"z_final": z, "z_inf": spec.z_inf, "gap": gap}
        assertions = [("flow_reaches_fixed_point", gap, 1e-8, gap <= 1e-8)]
        return results, assertions, None, z
    if kind == "matrix_tanh":
        spec = riccati.MatrixRiccati(np.zeros((1, 1)), np.ones((1, 1)),
                                     np.ones((1, 1)))
        p = riccati.matrix_riccati(spec, t)
        err = abs(p[0, 0] - math.tanh(t))
        results = {"p_final": float(p[0, 0]), "tanh_t": math.tanh(t),
                   "abs_error": err}
        assertions = [("matches_tanh", err, 1e-8, err <= 1e-8)]
        return results, assertions, None, float(p[0, 0])
    if kind == "coupled":
        rng = np.random.default_rng(int(extra.get("seed_spec", 0)))
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
    raise ConfigError("extra.kind must be scalar, matrix_tanh or coupled")


def _cmd_geometry(cfg):
    extra = _extra(cfg, "op", "surface", "theta", "u", "epsilon")
    name = extra.get("surface", "parabola")
    eps = int(extra.get("epsilon", 1))
    surf = geometry.make_surface(name, epsilon=eps)
    op_name = extra.get("op", "shape")
    theta = np.atleast_1d(np.asarray(extra.get("theta", 0.0), dtype=float))
    if isinstance(surf, dict):
        surf = surf["psi0"]
    if op_name == "shape":
        ff = geometry.fundamental_forms(surf, theta)
        results = {"W": ff.W, "Omega": ff.Omega, "g": ff.g}
        key = float(ff.W.ravel()[0])
        return results, [], None, key
    if op_name == "frame":
        fr = geometry.frame(surf, theta)
        return {"N": fr.N, "T": fr.T, "g": fr.g}, [], None, float(fr.g.ravel()[0])
    if op_name == "offset":
        u = float(extra.get("u", 0.1))
        val = geometry.offset_jacobian(surf, theta, u)
        return {"offset_jacobian": val}, [], None, val
    if op_name == "weingarten_residual":
        r = geometry.weingarten_identity_check(surf, theta)
        return ({"residual": r}, [("weingarten_identity", r, 1e-5, r <= 1e-5)],
                None, r)
    raise ConfigError("extra.op must be shape, frame, offset or "
                      "weingarten_residual")


def _cmd_simulate(cfg):
    extra = _extra(cfg, "case", "budget")
    case = extra.get("case", "harmonic_mass_t1")
    rep = simulate.mc_validate(case, budget=float(extra.get("budget", 1.0)),
                               seed=int(cfg.get("seed", 0)))
    results = {"case": rep.case, "estimate": rep.estimate, "oracle": rep.oracle,
               "stderr": rep.stderr, "z": rep.z}
    return results, [], None, rep.estimate


def _cmd_validate(cfg):
    extra = _extra(cfg, "cases", "budget")
    names = extra.get("cases", "all")
    if names == "all":
        names = simulate.list_cases()
    elif not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError('extra.cases must be "all" or a list of case names')
    budget = float(extra.get("budget", 1.0))
    seed = int(cfg.get("seed", 0))
    results = {}
    assertions = []
    for name in names:
        rep = simulate.mc_validate(name, budget=budget, seed=seed)
        results[name] = {"estimate": rep.estimate, "oracle": rep.oracle,
                         "stderr": rep.stderr, "z": rep.z, "pass": rep.ok}
        tol = rep.band if rep.band is not None else 3.0 * rep.stderr
        assertions.append((name, abs(rep.estimate - rep.oracle), tol, rep.ok))
    n_pass = sum(1 for a in assertions if a[3])
    return results, assertions, None, float(n_pass)


_DISPATCH = {
    "eigen": _cmd_eigen,
    "contract": _cmd_contract,
    "decay": _cmd_decay,
    "rate": _cmd_rate,
    "riccati": _cmd_riccati,
    "geometry": _cmd_geometry,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def run_experiment(config: dict, out_dir=None, seed=None, threads=None) -> int:
    """Validate the config, run the command, write artifacts.

    Returns the process exit code (0 ok, 1 config error, an unwritable
    output path included, 2 assertion failure or numerical failure: an
    ArithmeticError, a flow or particle extinction or a non-finite artifact
    value).  Every nonzero exit prints exactly one stderr line.  The artifact
    embeds neither wall-clock data nor `threads`, which changes no result,
    so reruns with the same config and seed are byte-identical whatever
    the thread count.
    """
    t0 = time.perf_counter()
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(config, _TOP_KEYS, "config")
        command = config.get("command")
        if command not in _COMMANDS:
            raise ConfigError(
                f"config.command must be one of {sorted(_COMMANDS)}"
            )
        if seed is not None:
            config = {**config, "seed": int(seed)}
        _check_keys(config.get("time", {}), _TIME_KEYS.get(command, set()), "time")
        out_cfg = _check_keys(config.get("output", {}), {"path", "format"}, "output")
        path = out_cfg.get("path")
        if path is not None and not isinstance(path, str):
            raise ConfigError("output.path must be a string")
        fmt = out_cfg.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output.format must be json or csv, not {fmt!r}")
        results, assertions, rows, key = _DISPATCH[command](config)
        wrote = []
        if path is not None:
            path = Path(path)
            if out_dir is not None:
                path = Path(out_dir) / path.name
            if fmt == "csv" and rows is None:
                raise ConfigError("this command has no curve output")
            path.parent.mkdir(parents=True, exist_ok=True)
            if fmt == "csv":
                _write_csv(path, ("t", "value"), rows)
            else:
                _write_json(path, {
                    "inputs": {k: v for k, v in config.items()
                               if k not in ("output", "threads")},
                    "results": results,
                    "assertions": _assertions_block(assertions),
                })
            wrote.append(str(path))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except (ArithmeticError, AssertionFailed, spectral.FlowExtinctionError,
            simulate.ExtinctionError) as exc:
        print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
        return 2

    failed = [a for a in assertions if not a[3]]
    wall = time.perf_counter() - t0
    status = "FAIL" if failed else "ok"
    key = "null" if key is None else format(key, ".6g")
    print(f"{config['command']}: key={key} assertions="
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
        for name in ("harmonic", "half_harmonic", "dirichlet_heat",
                     "gauss_ou", "half_harmonic_linear"):
            print(name)
        for name in ("flat", "parabola", "paraboloid", "graph_example_8_4"):
            print(f"surface:{name}")
        return 0
    if args.cmd == "list-cases":
        for name in simulate.list_cases():
            print(name)
        return 0
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    return run_experiment(config, out_dir=args.out, seed=args.seed,
                          threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
