import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli
from semistab.cli import main, run_experiment


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_eigen_dirichlet(tmp_path, capsys):
    out = tmp_path / "eigen.json"
    cfg = {
        "command": "eigen",
        "model": {"name": "dirichlet_heat", "params": {"n_terms": 50}},
        "grid": {"min": 0.0, "max": 1.0, "n": 200},
        "time": {"tau": 0.5},
        "output": {"path": str(out), "format": "json"},
        "seed": 0,
    }
    assert run_experiment(cfg) == 0
    payload = json.loads(out.read_text())
    rho = float(payload["results"]["rho"])
    assert rho == pytest.approx(-math.pi**2 / 2, abs=1e-2)
    assert payload["assertions"][0]["pass"] is True
    assert "output" not in payload["inputs"]
    summary = capsys.readouterr().out
    assert "eigen" in summary


def test_geometry_shape_parabola(tmp_path):
    out = tmp_path / "shape.json"
    cfg = {
        "command": "geometry",
        "extra": {"op": "shape", "surface": "parabola", "theta": 0.0},
        "output": {"path": str(out), "format": "json"},
    }
    assert run_experiment(cfg) == 0
    payload = json.loads(out.read_text())
    W = payload["results"]["W"]
    assert float(W[0][0]) == pytest.approx(-2.0)


@pytest.mark.parametrize("op, key", [("shape", "W"), ("shape", "Omega"), ("frame", "N")])
def test_graph_example_8_4_takes_the_given_orientation(tmp_path, op, key):
    values = {}
    for eps in (1, -1):
        out = tmp_path / f"atlas_{eps}.json"
        cfg = {"command": "geometry",
               "extra": {"op": op, "surface": "graph_example_8_4", "theta": 0.7,
                         "epsilon": eps},
               "output": {"path": str(out)}}
        assert run_experiment(cfg) == 0
        payload = json.loads(out.read_text())
        assert payload["inputs"]["extra"]["epsilon"] == eps
        values[eps] = np.array(payload["results"][key])
    assert np.abs(values[1]).min() > 0
    np.testing.assert_array_equal(values[-1], -values[1])


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = {
        "command": "eigen",
        "model": {"name": "dirichlet_heat"},
        "grid": {"min": 0.0, "max": 1.0, "n": 50},
        "banana": 1,
    }
    assert run_experiment(cfg) == 1
    assert "config.banana" in capsys.readouterr().err
    cfg = {
        "command": "eigen",
        "model": {"name": "dirichlet_heat"},
        "grid": {"min": 0.0, "max": 1.0, "n": 50, "step": 0.1},
    }
    assert run_experiment(cfg) == 1
    assert "grid.step" in capsys.readouterr().err
    assert run_experiment({"command": "nope"}) == 1
    assert run_experiment({"command": "eigen",
                           "model": {"name": "unknown_model"},
                           "grid": {"min": 0, "max": 1, "n": 10}}) == 1


def test_validate_exit_code_and_artifact(tmp_path):
    out = tmp_path / "val.json"
    cfg = {
        "command": "validate",
        "extra": {"cases": ["harmonic_mass_t1"], "budget": 0.1},
        "output": {"path": str(out), "format": "json"},
        "seed": 3,
    }
    assert run_experiment(cfg) == 0
    payload = json.loads(out.read_text())
    case = payload["results"]["harmonic_mass_t1"]
    assert case["pass"] is True
    assert payload["assertions"][0]["name"] == "harmonic_mass_t1"


def test_riccati_commands(tmp_path):
    out = tmp_path / "r.json"
    cfg = {
        "command": "riccati",
        "extra": {"kind": "scalar", "a0": 1.0, "a1": 1.0, "b": 2.0,
                  "z0": 5.0, "t": 10.0},
        "output": {"path": str(out), "format": "json"},
    }
    assert run_experiment(cfg) == 0
    payload = json.loads(out.read_text())
    assert float(payload["results"]["z_inf"]) == pytest.approx(1.0)

    cfg["extra"] = {"kind": "matrix_tanh", "t": 1.0}
    assert run_experiment(cfg) == 0
    payload = json.loads(out.read_text())
    assert float(payload["results"]["p_final"]) == pytest.approx(
        math.tanh(1.0), abs=1e-8
    )


def test_decay_csv_artifact(tmp_path):
    out = tmp_path / "decay.csv"
    cfg = {
        "command": "decay",
        "model": {"name": "harmonic"},
        "grid": {"min": -8.0, "max": 8.0, "n": 200},
        "lyapunov": "poly:2",
        "time": {"tau": 1.0, "t_max": 10},
        "extra": {"x1": -2.0, "x2": 2.0},
        "output": {"path": str(out), "format": "csv"},
    }
    assert run_experiment(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 12  # header + t = 0..10
    for line in lines[1:]:
        for cell in line.split(","):
            assert math.isfinite(float(cell))


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = {
        "command": "simulate",
        "extra": {"case": "harmonic_mass_t1", "budget": 0.05},
        "seed": 11,
    }
    run_experiment({**base, "output": {"path": str(out1), "format": "json"}})
    run_experiment({**base, "output": {"path": str(out2), "format": "json"}})
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.json"
    run_experiment({**base, "seed": 12,
                    "output": {"path": str(out3), "format": "json"}})
    assert out1.read_bytes() != out3.read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = {
        "command": "simulate",
        "extra": {"case": "harmonic_mass_t1", "budget": 0.05},
        "seed": 11,
    }
    run_experiment({**base, "output": {"path": str(out1), "format": "json"}},
                   seed=12)
    run_experiment({**base, "seed": 12,
                    "output": {"path": str(out2), "format": "json"}})
    assert json.loads(out1.read_text())["results"]["estimate"] == \
        json.loads(out2.read_text())["results"]["estimate"]


def test_out_dir_flag(tmp_path):
    sub = tmp_path / "artifacts"
    cfg = {
        "command": "geometry",
        "extra": {"op": "offset", "surface": "paraboloid",
                  "theta": [0.0, 0.0], "u": 0.1},
        "output": {"path": "offset.json", "format": "json"},
    }
    assert run_experiment(cfg, out_dir=str(sub)) == 0
    payload = json.loads((sub / "offset.json").read_text())
    assert float(payload["results"]["offset_jacobian"]) == pytest.approx(1.44)


def test_main_subcommands(tmp_path, capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "dirichlet_heat" in out and "surface:parabola" in out
    # the model names come from the registry that the config schema reads
    assert out.split()[:len(cli.kernels.MODELS)] == list(cli.kernels.MODELS)
    assert main(["list-cases"]) == 0
    assert "harmonic_mass_t1" in capsys.readouterr().out
    cfg = write_config(tmp_path, {
        "command": "geometry",
        "extra": {"op": "shape", "surface": "parabola", "theta": 1.0},
        "output": {"path": str(tmp_path / "w.json"), "format": "json"},
    })
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_every_listed_surface_builds(capsys):
    assert main(["list-models"]) == 0
    names = [line.split(":", 1)[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("surface:")]
    assert names == list(cli.geometry.SURFACES)
    for name in names:
        assert cli.geometry.make_surface(name) is not None


def test_scientific_float_format(tmp_path):
    out = tmp_path / "fmt.json"
    cfg = {
        "command": "geometry",
        "extra": {"op": "shape", "surface": "parabola", "theta": 1.0},
        "output": {"path": str(out), "format": "json"},
    }
    run_experiment(cfg)
    text = out.read_text()
    # every float is decimal scientific with 17 significant digits
    assert "e-01" in text or "e+00" in text
    w_line = [l for l in text.splitlines() if "-1.7888543819998318e-01" in l]
    assert w_line  # -2 / 5^1.5 serialized at full precision


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize("kind", ["scalar", "matrix_tanh"])
def test_riccati_negative_horizon_is_a_config_error(capsys, kind):
    cfg = {"command": "riccati", "extra": {"kind": kind, "t": -1}}
    assert run_experiment(cfg) == 1
    assert "t must be nonnegative" in _one_line_error(capsys)


def test_output_and_time_checked_before_the_command_runs(tmp_path, capsys,
                                                         monkeypatch):
    import semistab.cli as cli

    def never(cfg):
        raise AssertionError("command ran before its config was checked")

    monkeypatch.setitem(cli._DISPATCH, "eigen", never)
    base = {"command": "eigen", "model": {"name": "dirichlet_heat"},
            "grid": {"min": 0.0, "max": 1.0, "n": 20}}
    bad = [
        ({"output": {"path": str(tmp_path / "e.json"), "fmt": "json"}}, "output.fmt"),
        ({"output": {"path": str(tmp_path / "e.json"), "format": "xml"}},
         "output.format"),
        # only the curve commands, decay and rate, write CSV
        ({"output": {"path": str(tmp_path / "e.csv"), "format": "csv"}},
         "output.format must be one of json, not 'csv'"),
        ({"time": {"tua": 0.5}}, "time.tua"),
        ({"time": {"tau": 0.5, "t_max": 3}}, "time.t_max"),
    ]
    for extra, message in bad:
        assert run_experiment({**base, **extra}) == 1
        assert message in _one_line_error(capsys)
    assert run_experiment({"command": "riccati", "time": {"tau": 1.0}}) == 1
    assert "time.tau" in _one_line_error(capsys)


def test_validate_cases_must_be_a_list(capsys):
    cfg = {"command": "validate", "extra": {"cases": "harmonic_mass_t1"}}
    assert run_experiment(cfg) == 1
    assert "extra.cases" in _one_line_error(capsys)


def test_importing_the_cli_loads_no_scipy_spatial_or_integrate():
    # only the pair scan and the integral inversion need them
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import semistab.cli; "
            "print(sorted({m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'scipy.integrate'))}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_riccati_matrix_tanh_at_a_huge_horizon_returns_at_once(tmp_path):
    out = tmp_path / "r.json"
    cfg = {"command": "riccati", "extra": {"kind": "matrix_tanh", "t": 1e300},
           "output": {"path": str(out), "format": "json"}}
    t0 = time.perf_counter()
    assert run_experiment(cfg) == 0
    assert time.perf_counter() - t0 < 1.0
    assert float(json.loads(out.read_text())["results"]["p_final"]) == pytest.approx(1.0)


def test_threads_do_not_change_artifact_bytes(tmp_path):
    paths = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.json"
        cfg = {"command": "geometry",
               "extra": {"op": "shape", "surface": "parabola", "theta": 0.5},
               "output": {"path": str(out), "format": "json"}, "threads": 2}
        assert run_experiment(cfg, threads=threads) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "threads" not in json.loads(paths[0].read_text())["inputs"]


# budgets that give every Feynman-Kac case two partitions of particles
_THREADED_BUDGETS = {"harmonic_mass_t1": 0.11, "dirichlet_survival_t03": 0.11,
                     "ou_stationary_var": 0.11, "ou_qsd_variance": 0.21,
                     "qsd_harmonic_rho": 0.05, "qsd_dirichlet_rho": 0.05}


@pytest.mark.parametrize("case", sorted(_THREADED_BUDGETS))
def test_simulate_artifacts_do_not_depend_on_threads(tmp_path, capsys, case):
    cfg = write_config(tmp_path, {
        "command": "simulate", "seed": 3,
        "extra": {"case": case, "budget": _THREADED_BUDGETS[case]},
        "output": {"path": "sim.json", "format": "json"}})
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 0
        artifacts.append((out / "sim.json").read_bytes())
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("command, extra", [
    ("simulate", {"case": "qsd_harmonic_rho", "budget": 0.05}),
    ("validate", {"cases": ["harmonic_mass_t1"], "budget": 0.05}),
])
def test_monte_carlo_seed_defaults_to_mc_validates(tmp_path, capsys, command, extra):
    artifacts = []
    for seed in ({}, {"seed": 20240}):
        out = tmp_path / f"{len(seed)}.json"
        assert run_experiment({"command": command, "extra": extra, **seed,
                               "output": {"path": str(out)}}) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]
    assert json.loads(artifacts[0])["inputs"]["seed"] == 20240


def test_threads_flag_is_checked_like_the_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "riccati", "threads": 2})
    assert main(["run", str(cfg), "--threads", "0"]) == 1
    assert _one_line_error(capsys).strip() == "config error: threads must be >= 1, not 0"
    assert run_experiment({"command": "riccati"}, threads=-1) == 1
    assert _one_line_error(capsys).strip() == "config error: threads must be >= 1, not -1"


@pytest.mark.parametrize("chain, start", [("certified", 499), ("canonical", 199)])
def test_rate_inputs_name_the_start_state_used(tmp_path, chain, start):
    out = tmp_path / "rate.json"
    cfg = {"command": "rate", "extra": {"chain": chain, "t_max": 3},
           "output": {"path": str(out)}}
    assert run_experiment(cfg) == 0
    assert json.loads(out.read_text())["inputs"]["extra"]["start"] == start


def test_grid_outside_the_domain_is_a_numerical_failure(capsys):
    cfg = {"command": "eigen", "model": {"name": "dirichlet_heat"},
           "grid": {"min": -1.0, "max": 1.0, "n": 50}, "time": {"tau": 0.5}}
    assert run_experiment(cfg) == 2
    err = _one_line_error(capsys)
    assert err.startswith("numerical failure: density evaluation failed at grid row 0")


def test_riccati_overflowing_coefficients_are_a_config_error(capsys):
    cfg = {"command": "riccati",
           "extra": {"kind": "scalar", "a0": 1e308, "b": 1e308}}
    assert run_experiment(cfg) == 1
    assert _one_line_error(capsys).startswith(
        "config error: the discriminant (a1/2)^2 + a0 b overflows")


def test_grid_too_coarse_for_the_kernel_is_a_numerical_failure(capsys):
    cfg = {"command": "eigen", "model": {"name": "harmonic"},
           "grid": {"min": -8.0, "max": 8.0, "n": 3}, "time": {"tau": 0.5}}
    assert run_experiment(cfg) == 2
    err = _one_line_error(capsys)
    assert err.startswith("numerical failure: 3-point grid quadrature failed: "
                          "sub-Markov rows must sum to <= 1")


_HARMONIC = {"model": {"name": "harmonic"},
             "grid": {"min": -8.0, "max": 8.0, "n": 50}}


# (label, config, exit code, start of the one line); the label and not the
# place in the list names a case's test id, so adding a case renames none
_CONFIG_CASES = [
    ("cfg0", {"command": "riccati", "extra": []}, 1,
     "config error: extra must be a JSON object"),
    ("cfg1", {"command": "eigen", **_HARMONIC, "time": []}, 1,
     "config error: time must be a JSON object"),
    ("cfg2", {"command": "riccati", "output": []}, 1,
     "config error: output must be a JSON object"),
    ("cfg3", {"command": "eigen", "model": "name"}, 1,
     "config error: model must be a JSON object"),
    ("cfg4", {"command": "contract", **_HARMONIC, "lyapunov": 5}, 1,
     "config error: Lyapunov spelling must be a string"),
    ("cfg5", {"command": "eigen", "model": {"name": "harmonic"},
              "grid": {"min": -8.0, "max": 8.0, "n": 0}}, 1,
     "config error: a closed grid needs n >= 2 points, got 0"),
    ("cfg6", {"command": "eigen", "model": {"name": "harmonic"},
              "grid": {"min": -8.0, "max": 8.0, "n": 1}}, 1,
     "config error: a closed grid needs n >= 2 points, got 1"),
    ("cfg7", {"command": "eigen", "model": {"name": "dirichlet_heat"},
              "grid": {"min": 0.0, "max": 1.0, "n": 0}}, 1,
     "config error: an open grid needs n >= 1 points, got 0"),
    ("cfg8", {"command": "rate", "extra": {"start": 10**9}}, 1,
     "config error: extra.start must lie in [1, 499]"),
    ("cfg9", {"command": "rate", "extra": {"start": -1}}, 1,
     "config error: extra.start must lie in [1, 499]"),
    ("cfg10", {"command": "simulate", "extra": {"budget": 0}}, 1,
     "config error: n_particles = 0 must be at least 1; budget = 0.0 of case "
     "'harmonic_mass_t1' must be at least 1e-05\n"),
    ("cfg11", {"command": "simulate", "extra": {"budget": -1}}, 1,
     "config error: n_particles = -100000 must be at least 1; budget = -1.0 of "
     "case 'harmonic_mass_t1' must be at least 1e-05\n"),
    ("cfg12", {"command": "simulate", "extra": {"budget": 1e-9}}, 1,
     "config error: n_particles = 0 must be at least 1; budget = 1e-09 of case "
     "'harmonic_mass_t1' must be at least 1e-05\n"),
    ("cfg13", {"command": "riccati", "output": {"path": 5}}, 1,
     "config error: output.path must be a string"),
    ("cfg14", {"command": "riccati", "output": {"path": ""}}, 1, "config error: "),
    ("cfg15", {"command": "geometry", "extra": {"theta": []}}, 1,
     "config error: theta [] outside chart domain"),
    ("cfg16", {"command": "riccati", "extra": {"kind": "scalar", "a0": 0.0, "a1": 1.0}}, 2,
     "assertion failed: flow_reaches_fixed_point"),
    ("cfg17", {"command": "decay", **_HARMONIC, "time": {"t_max": 0}}, 0,
     "decay: key=null assertions=0/0"),
    ("cfg18", {"command": "riccati",
               "extra": {"kind": "scalar", "a0": 1e4, "a1": -1e8, "b": 1e-4}}, 0,
     "riccati: key=0.0001 assertions=1/1"),
    ("cfg19", {"command": "geometry",
               "extra": {"surface": "graph_example_8_4", "epsilon": -1}}, 0,
     "geometry: key="),
    ("cfg20", {"command": "eigen", **_HARMONIC, "extra": {"banana": 1}}, 1,
     "config error: unknown key extra.banana"),
    ("cfg21", {"command": "eigen", **_HARMONIC, "lyapunov": "nonsense"}, 1,
     "config error: unknown key config.lyapunov"),
    ("cfg22", {"command": "riccati", "model": {"name": "harmonic"}}, 1,
     "config error: unknown key config.model"),
    ("cfg23", {"command": "riccati", "grid": {"min": -8.0, "max": 8.0, "n": 50}}, 1,
     "config error: unknown key config.grid"),
    ("cfg24", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": -8.0, "max": 8.0, "n": 50.9}}, 1,
     "config error: grid.n must be an integer, not 50.9"),
    ("cfg25", {"command": "riccati", "extra": {"a0": "2.0"}}, 1,
     "config error: extra.a0 must be a finite number, not '2.0'"),
    ("cfg26", {"command": "riccati", "extra": {"t": True}}, 1,
     "config error: extra.t must be a finite number, not True"),
    ("cfg27", {"command": "simulate", "seed": True}, 1,
     "config error: seed must be an integer, not True"),
    ("cfg28", {"command": "riccati", "threads": "many"}, 1,
     "config error: threads must be an integer, not 'many'"),
    ("cfg29", {"command": "geometry", "extra": {"theta": "1"}}, 1,
     "config error: extra.theta must be a finite number, not '1'"),
    ("cfg30", {"command": "decay", **_HARMONIC, "time": {"t_max": -1}}, 1,
     "config error: time.t_max must be >= 0, not -1"),
    ("cfg31", {"command": "riccati", "extra": {"t": float("nan")}}, 1,
     "config error: extra.t must be a finite number, not nan"),
    ("cfg32", {"command": "riccati", "extra": {"t": 10**400}}, 1,
     "config error: extra.t must be a finite number, not 1000"),
    ("cfg33", {"command": "rate", "extra": {"t_max": 0}}, 1,
     "config error: extra.t_max must be >= 1, not 0"),
    ("cfg34", {"command": "rate", "extra": {"t_max": -2}}, 1,
     "config error: extra.t_max must be >= 1, not -2"),
    ("cfg35", {"command": "rate", "extra": {"rho": -3}}, 1,
     "config error: extra.rho must be >= 0.0, not -3.0"),
    ("cfg36", {"command": "simulate", "threads": 0}, 1,
     "config error: threads must be >= 1, not 0"),
    ("cfg37", {"command": "simulate", "extra": {"case": "qsd_dirichlet_rho", "budget": 4e-5}},
     1, "config error: n_particles = 0 must be at least 1; budget = 4e-05 of case "
        "'qsd_dirichlet_rho' must be at least 5e-05\n"),
    ("cfg38", {"command": "validate", "extra": {"cases": ["ou_qsd_variance"], "budget": 0}},
     1, "config error: n_particles = 0 must be at least 1; budget = 0.0 of case "
        "'ou_qsd_variance' must be at least 2e-05\n"),
    # one particle gives a Feynman-Kac case a zero standard error
    ("cfg39", {"command": "validate", "extra": {"budget": 1e-5}}, 1,
     "config error: n_particles = 1 has no standard error; budget = 1e-05 of case "
     "'dirichlet_survival_t03' must be at least 2e-05\n"),
    ("cfg40", {"command": "simulate", "extra": {"case": "ou_stationary_var", "budget": 1e-5}},
     1, "config error: n_particles = 1 has no standard error; budget = 1e-05 of "
        "case 'ou_stationary_var' must be at least 2e-05\n"),
    ("cfg41", {"command": "simulate", "extra": {"case": "harmonic_mass_t1", "budget": 1e-5}},
     1, "config error: n_particles = 1 has no standard error; budget = 1e-05 of "
        "case 'harmonic_mass_t1' must be at least 2e-05\n"),
    ("cfg42", {"command": "validate", "extra": {"cases": ["ou_qsd_variance"], "budget": 2e-5}},
     1, "config error: n_particles = 1 has no standard error; budget = 2e-05 of "
        "case 'ou_qsd_variance' must be at least 4e-05\n"),
    # the norm weights 1 + rho phi1(V) overflow
    ("cfg43", {"command": "rate", "extra": {"rho": 1e308}}, 2,
     "numerical failure: norm weights are not finite"),
    # a model constant is not a parameter
    *[(label, {"command": "eigen", "model": {"name": "harmonic", "params": {key: value}},
               "grid": _HARMONIC["grid"]}, 1,
       f"config error: unknown key model.params.{key}")
      for label, key, value in [("cfg44", "exact_rho", 7.0), ("cfg45", "is_markov", True),
                                ("cfg46", "self_adjoint", False)]],
    # V overflows, or underflows to zero, on the grid
    *[(label, {"command": "contract", "model": {"name": "half_harmonic"},
               "grid": {"min": 0, "max": 6, "n": 40}, "lyapunov": spec}, 1,
       f"config error: Lyapunov family '{spec.split(':')[0]}' produced non-finite "
       "or non-positive values")
      for label, spec in [("cfg47", "exp:800"), ("cfg48", "poly:400"),
                          ("cfg49", "inv_plus_poly:400"), ("cfg50", "exp:-1e308")]],
    ("cfg51", {"command": "contract", "model": {"name": "gauss_ou", "params": {"sigma": 0}},
               "grid": {"min": -20, "max": 20, "n": 100}}, 1,
     "config error: sigma must be positive"),
    # the densities overflow inside the kernel and every row's mass is zero
    ("cfg52", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": -1e200, "max": 1e200, "n": 40}}, 2,
     "numerical failure: the kernel mass underflowed to zero in 40 of 40 grid rows"),
    ("cfg53", {"command": "geometry", "extra": {"op": "offset", "u": 1e308}}, 2,
     "numerical failure: offset Jacobian at depth u = 1e+308 is inf"),
    ("cfg54", {"command": "eigen", "model": {"name": "harmonic", "params": {"open_grid": True}},
               "grid": _HARMONIC["grid"]}, 1,
     "config error: unknown key model.params.open_grid"),
    # no row reaches the grid columns past x = 3.75, where the kernel underflowed
    ("cfg55", {"command": "eigen", "model": {"name": "half_harmonic_linear", "params": {"a": -50}},
               "grid": {"min": 0, "max": 5, "n": 20}}, 2,
     "numerical failure: the kernel mass underflowed to zero in 5 of 20 grid columns, "
     "the first at x=3.875"),
    # a zero-length interval is named, not reported as nonpositive weights
    ("cfg56", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": 2, "max": 2, "n": 50}}, 1,
     "config error: a closed grid needs min < max, got [2, 2]"),
    # a model parameter has the kind of its field, so a bad one never reaches the kernel
    *[(label, {"command": "contract", "model": {"name": name, "params": {key: value}},
               "grid": grid}, 1, f"config error: model.params.{key} must be {what}, not ")
      for label, name, key, value, what, grid in [
          ("cfg57", "gauss_ou", "a", "x", "a finite number", _HARMONIC["grid"]),
          ("cfg58", "gauss_ou", "a", None, "a finite number", _HARMONIC["grid"]),
          ("cfg59", "half_harmonic_linear", "varsigma", True, "a finite number",
           {"min": 0, "max": 5, "n": 20}),
          ("cfg60", "dirichlet_heat", "n_terms", 1.5, "an integer", {"min": 0, "max": 1, "n": 20}),
          ("cfg61", "dirichlet_heat", "n_terms", True, "an integer", {"min": 0, "max": 1, "n": 20})]],
    ("cfg62", {"command": "eigen", **_HARMONIC, "model": {"name": "nope"}}, 1,
     "config error: model.name must be one of harmonic, half_harmonic, dirichlet_heat, "
     "gauss_ou, half_harmonic_linear, not 'nope'"),
    ("cfg63", {"command": "geometry", "extra": {"surface": "nope"}}, 1,
     "config error: extra.surface must be one of flat, parabola, paraboloid, "
     "graph_example_8_4, not 'nope'"),
    ("cfg64", {"command": "simulate", "extra": {"case": "nope"}}, 1,
     "config error: extra.case must be one of dirichlet_survival_t03, harmonic_mass_t1, "),
    ("cfg65", {"command": "validate", "extra": {"cases": ["harmonic_mass_t1", 5]}}, 1,
     "config error: extra.cases[1] must be one of dirichlet_survival_t03, "),
    # the n x n kernel matrix (728 TiB) fails to allocate at once, touching no memory
    ("cfg66", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": -8.0, "max": 8.0, "n": 10**7}}, 2,
     "numerical failure: Unable to allocate 728. TiB"),
    # a validate case list names each case once, and at least one
    ("cfg67", {"command": "validate", "extra": {"cases": []}}, 1,
     "config error: extra.cases must name at least one case"),
    ("cfg68", {"command": "validate",
               "extra": {"cases": ["harmonic_mass_t1", "harmonic_mass_t1"], "budget": 0.05}},
     1, "config error: extra.cases[1] repeats case 'harmonic_mass_t1'"),
    # a grid spacing that overflows or underflows is named with its interval
    ("cfg69", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": -1e308, "max": 1e308, "n": 10}}, 1,
     "config error: a closed grid on [-1e+308, 1e+308] with n = 10 has spacing inf, "
     "not a positive finite number"),
    ("cfg70", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": 0, "max": 1e-322, "n": 50}}, 1,
     "config error: a closed grid on [0, 9.88131e-323] with n = 50 has spacing 0, "
     "not a positive finite number"),
    # theta = 8 is inside the flat chart [-8, 8], but its difference step is not
    ("cfg71", {"command": "geometry",
               "extra": {"op": "weingarten_residual", "surface": "flat", "theta": 8.0}}, 1,
     "config error: theta [8.] lies within 1e-05 of the chart edge, so the "
     "central-difference step leaves the chart domain"),
    # a grid whose points or weights round together is named with its interval
    ("cfg72", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": 0, "max": 1e-323, "n": 3}}, 1,
     "config error: a closed grid on [0.0, 1e-323] with n = 3 has spacing 5e-324, "
     "too fine for strictly increasing points with positive weights"),
    ("cfg73", {"command": "eigen", "model": {"name": "half_harmonic"},
               "grid": {"min": 0, "max": 1e-323, "n": 2}}, 1,
     "config error: an open grid on (0.0, 1e-323) with n = 2 has spacing 5e-324, "
     "too fine for strictly increasing points inside the interval"),
    ("cfg74", {"command": "eigen", "model": {"name": "harmonic"},
               "grid": {"min": 1, "max": 1.000000000000001, "n": 10}}, 1,
     "config error: a closed grid on [1.0, 1.000000000000001] with n = 10 has spacing "),
    # a product names its empty factor's spelling, and a family its parameter
    *[(label, {"command": "contract", **_HARMONIC, "lyapunov": spelling}, 1,
       f"config error: empty factor in product spelling {inner!r}")
      for label, spelling, inner in [
          ("cfg75", "product:[]", "product:[]"),
          ("cfg76", "product:[ ]", "product:[ ]"),
          ("cfg77", "product:[product:[]]", "product:[]"),
          ("cfg78", "product:[poly:2,]", "product:[poly:2,]"),
          ("cfg79", "product:[,poly:2]", "product:[,poly:2]")]],
    ("cfg80", {"command": "contract", **_HARMONIC, "lyapunov": "poly:"}, 1,
     "config error: bad Lyapunov spelling 'poly:': '' is not a number"),
]


@pytest.mark.parametrize("cfg, code, message", [
    pytest.param(cfg, code, message, id=f"{label}-{code}-{message}")
    for label, cfg, code, message in _CONFIG_CASES])
def test_configs_end_in_one_line(capsys, cfg, code, message):
    assert run_experiment(cfg) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    line = err if code else out
    assert err == "" or code
    assert len(line.strip().splitlines()) == 1
    assert line.startswith(message)


def test_non_finite_offset_jacobian_writes_no_artifact(tmp_path, capsys):
    out = tmp_path / "offset.json"
    cfg = {"command": "geometry", "extra": {"op": "offset", "u": 1e308},
           "output": {"path": str(out)}}
    assert run_experiment(cfg) == 2
    assert _one_line_error(capsys).startswith(
        "numerical failure: offset Jacobian at depth u = 1e+308 is inf")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"command": "simulate", "seed": Infinity}',
     "config error: Infinity must be a finite number, not inf"),
    ('{"command": "riccati", "extra": {"t": NaN}}',
     "config error: NaN must be a finite number, not nan"),
])
def test_non_finite_json_constants_are_config_errors(tmp_path, capsys, text,
                                                      message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 1
    assert _one_line_error(capsys).startswith(message)


def test_inputs_hold_the_resolved_config(tmp_path):
    out = tmp_path / "eigen.json"
    cfg = {"command": "eigen", **_HARMONIC, "threads": 2,
           "output": {"path": str(out)}}
    assert run_experiment(cfg) == 0
    assert json.loads(out.read_text())["inputs"] == {
        "command": "eigen", "extra": {}, "grid": _HARMONIC["grid"],
        "model": {"name": "harmonic", "params": {}}, "seed": 0,
        "time": {"tau": 0.5}}


def test_inputs_hold_the_model_defaults(tmp_path):
    out = tmp_path / "contract.json"
    cfg = {"command": "contract", "model": {"name": "gauss_ou", "params": {"sigma": 0.5}},
           "grid": {"min": -4.0, "max": 4.0, "n": 60}, "output": {"path": str(out)}}
    assert run_experiment(cfg) == 0
    assert json.loads(out.read_text())["inputs"]["model"] == {
        "name": "gauss_ou", "params": {"a": -1.0, "sigma": 0.5}}


def test_validate_checks_every_case_name_before_running_any(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.simulate, "mc_validate", lambda *a, **k: calls.append(a))
    cfg = {"command": "validate", "extra": {"cases": ["harmonic_mass_t1", "nope"]}}
    assert run_experiment(cfg) == 1
    assert _one_line_error(capsys).startswith(
        "config error: extra.cases[1] must be one of dirichlet_survival_t03, ")
    assert calls == []


def test_decay_without_a_fitted_rate_keeps_null(tmp_path):
    out = tmp_path / "decay.json"
    cfg = {"command": "decay", **_HARMONIC, "time": {"t_max": 0},
           "output": {"path": str(out), "format": "json"}}
    assert run_experiment(cfg) == 0
    assert '"fitted_rate": null' in out.read_text()


# one cheap valid config per command; the fuzzer replaces one top-level value
_BASE_CONFIGS = [
    {"command": "eigen", **_HARMONIC, "time": {"tau": 0.5}},
    {"command": "decay", **_HARMONIC, "lyapunov": "poly:2",
     "time": {"tau": 1.0, "t_max": 5}},
    {"command": "simulate", "seed": 1,
     "extra": {"case": "harmonic_mass_t1", "budget": 0.001}},
    {"command": "validate", "seed": 1,
     "extra": {"cases": ["harmonic_mass_t1"], "budget": 0.001}},
    {"command": "rate"},
    {"command": "riccati", "extra": {"kind": "scalar", "a0": 1.0, "a1": 1.0,
                                     "b": 2.0}},
    {"command": "riccati", "extra": {"kind": "matrix_tanh", "t": 1.0}},
    {"command": "geometry",
     "extra": {"op": "shape", "surface": "parabola", "theta": 0.5}},
    {"command": "riccati", "extra": {"kind": "coupled"}},
]


def _json_leaves(floats):
    return (st.none() | st.booleans() | st.integers(-3, 3) | floats
            | st.text(max_size=5))


# nested entries hold only small numbers, so no drawn value can set a large
# grid size, horizon or budget
_NESTED = _json_leaves(st.floats(-3.0, 3.0))
_JSON_VALUES = (_json_leaves(st.floats(allow_nan=False, allow_infinity=False))
                | st.lists(_NESTED, max_size=3)
                | st.dictionaries(st.text(max_size=5), _NESTED, max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(base=st.sampled_from(_BASE_CONFIGS),
       key=st.sampled_from(sorted(cli._TOP_KEYS)), value=_JSON_VALUES)
def test_config_fuzzer_exits_cleanly(base, key, value):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_experiment({**base, key: value}, out_dir=tmp)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1


def _schema_paths(spec, prefix=()):
    for key, rule in spec.items():
        if isinstance(rule, dict):
            yield from _schema_paths(rule, prefix + (key,))
        elif rule[0] is cli._model:  # a model section: its name and its params
            yield from (prefix + (key, sub) for sub in ("name", "params"))
        else:
            yield prefix + (key,)


# budgets stay at most 0.01 (a hundredth of the full particle count)
_BUDGETS = (st.none() | st.booleans() | st.integers(-3, 0)
            | st.floats(-3.0, 0.01) | st.text(max_size=5))


@pytest.mark.parametrize("base, path", [
    pytest.param(base, path, id=f"{i}-{base['command']}-{'.'.join(path)}")
    for i, base in enumerate(_BASE_CONFIGS)
    for path in _schema_paths(cli._SCHEMA[base["command"]])])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_schema_key_fuzzer_exits_cleanly(base, path, data):
    value = data.draw(_BUDGETS if path[-1] == "budget" else _NESTED)
    cfg = json.loads(json.dumps(base))
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_experiment(cfg, out_dir=tmp)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1


def test_nan_kernel_entries_exit_as_a_numerical_failure(capsys, monkeypatch):
    from semistab import kernels

    def nan_density(self, t, x, y):
        return np.where((x > 0) & (y > 0), np.nan, kernels.mehler_kernel(t, x, y))

    monkeypatch.setattr(kernels.HarmonicOscillator, "density", nan_density)
    cfg = {"command": "eigen", "model": {"name": "harmonic"},
           "grid": {"min": -4.0, "max": 4.0, "n": 15}}
    assert run_experiment(cfg) == 2
    assert "numerical failure: 15-point grid quadrature failed: operator has 49" \
        in _one_line_error(capsys)


@pytest.mark.parametrize("n", [161, 321])
def test_contract_scans_sub_level_sets_of_a_last_row_over(tmp_path, n):
    # the 0.8-quantile sub-level set holds 129 and 257 rows: one row past
    # the last full tile of the pair scan
    cfg = {"command": "contract", "model": {"name": "harmonic"},
           "grid": {"min": -4.0, "max": 4.0, "n": n}}
    assert run_experiment(cfg, out_dir=tmp_path) == 0


def test_contract_with_no_minorization_is_a_reported_failure(tmp_path, capsys):
    # the rows of {V <= r} do not overlap on this wide grid, so alpha(r) = 0
    out = tmp_path / "contract.json"
    cfg = {"command": "contract", "model": {"name": "gauss_ou"},
           "grid": {"min": -20, "max": 20, "n": 400}, "time": {"tau": 0.5},
           "output": {"path": str(out)}}
    assert run_experiment(cfg) == 2
    assert _one_line_error(capsys) == "assertion failed: drift_certificate_found\n"
    results = json.loads(out.read_text())["results"]
    assert results["ok"] is False
    assert results["reason"].startswith("alpha(r) = 0 at r = 257.323")


@pytest.mark.parametrize("command", ["eigen", "decay"])
@pytest.mark.parametrize("width, message", [
    (40, "the ground state underflowed to zero at 8 of 200 grid points"),
    (60, "the kernel mass underflowed to zero in "),
])
def test_underflow_on_a_wide_grid_is_a_numerical_failure(capsys, command, width,
                                                         message):
    cfg = {"command": command, "model": {"name": "harmonic"},
           "grid": {"min": -width, "max": width, "n": 200}}
    assert run_experiment(cfg) == 2
    assert _one_line_error(capsys).startswith(f"numerical failure: {message}")


def test_an_unreached_grid_column_fails_only_the_eigen_triple(capsys):
    # the columns past |x| = 27.5 underflowed to zero from every row; the rows keep
    # their mass, so the drift certificate needs none of those columns
    cfg = {"model": {"name": "gauss_ou"}, "grid": {"min": -30, "max": 30, "n": 200},
           "time": {"tau": 5}}
    assert run_experiment({**cfg, "command": "contract"}) == 0
    capsys.readouterr()
    for command in ("eigen", "decay"):
        assert run_experiment({**cfg, "command": command}) == 2
        assert _one_line_error(capsys) == (
            "numerical failure: the kernel mass underflowed to zero in 18 of 200 grid "
            "columns, the first at x=-30.0\n")


def test_riccati_coupled_draws_its_matrices_from_the_seed(tmp_path, capsys):
    out = tmp_path / "coupled.json"
    cfg = {"command": "riccati", "extra": {"kind": "coupled"},
           "output": {"path": str(out)}}
    rho = []
    for seed in (0, 3):
        assert run_experiment({**cfg, "seed": seed}) == 0
        art = json.loads(out.read_text())
        assert art["inputs"]["seed"] == seed
        assert [a["pass"] for a in art["assertions"]] == [True]
        rho.append(art["results"]["rho_hat"])
    assert rho[0] != rho[1]
    assert run_experiment({**cfg, "extra": {"kind": "coupled", "seed_spec": 0}}) == 1
    assert "unknown key extra.seed_spec" in _one_line_error(capsys)


def test_geometry_weingarten_residual(tmp_path):
    out = tmp_path / "w.json"
    cfg = {"command": "geometry", "output": {"path": str(out)},
           "extra": {"op": "weingarten_residual", "surface": "paraboloid",
                     "theta": [0.3, -0.4]}}
    assert run_experiment(cfg) == 0
    art = json.loads(out.read_text())
    assert [a["name"] for a in art["assertions"]] == ["weingarten_identity"]
    assert art["assertions"][0]["pass"] is True
    assert 0 <= art["results"]["residual"] <= 1e-5
