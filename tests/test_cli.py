"""Command-line surface: value parsing, config handling, deterministic
reports, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geomphase
from geomphase.cli import (
    build_kwargs,
    load_config,
    main,
    parse_value,
    render_csv,
)
from geomphase.errors import ConfigError, DegenerateMixingError
from geomphase.experiments import EXPERIMENTS

QUICK_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "quick.cfg")


@pytest.mark.parametrize("text,want", [
    ("3", 3),
    ("0.5", 0.5),
    ("-2e-3", -0.002),
    ("true", True),
    ("off", False),
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("0.25pi", 0.25 * math.pi),
    ("-0.5pi", -0.5 * math.pi),
    ("hello", "hello"),
])
def test_parse_scalar(text, want):
    assert parse_value(text) == want


def test_parse_list():
    assert parse_value("1, 2, 3") == (1, 2, 3)
    assert parse_value("0.25pi, 0.5pi") == (0.25 * math.pi, 0.5 * math.pi)
    assert parse_value("1,") == (1,)


def test_load_config_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))


def test_build_kwargs_sections(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[common]\nsteps = 128\n[spin]\ntheta = 0.25pi\n")
    config = load_config(str(cfg))
    kw = build_kwargs("spin", config, {})
    assert kw["steps"] == 128
    # scalar promoted to the sequence the experiment expects
    assert kw["theta"] == (0.25 * math.pi,)


def test_build_kwargs_rejects_unknown(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[spin]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        build_kwargs("spin", load_config(str(cfg)), {})


def test_build_kwargs_cli_override(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[spin]\nsteps = 128\n")
    kw = build_kwargs("spin", load_config(str(cfg)), {"steps": 64, "tol": None})
    assert kw["steps"] == 64
    assert "tol" not in kw


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("spin", "ring-static", "convergence"):
        assert name in out


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[spin]\nbogus = 1\n")
    assert main(["run", "spin", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("args,section", [
    (["--steps", "0"], ""),                  # a ValueError from the frame path
    ([], "[spin]\ntheta = abc\n"),          # not a number
    ([], "[spin]\nsteps = 1.5\n"),          # not an integer
])
def test_bad_value_exits_2(args, section, tmp_path, capsys):
    # a bad value is a bad invocation: exit 2 with one error line, not a
    # traceback and not the exit 1 of a run that did not converge
    cfg = tmp_path / "a.cfg"
    cfg.write_text(section)
    assert main(["run", "spin", "--config", str(cfg)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bad_value_types_refused_in_build_kwargs(tmp_path):
    cfg = tmp_path / "a.cfg"
    for body in ("theta = abc", "steps = 1.5", "steps = true", "theta = 0.1, x",
                 "omega_s = 1, 2"):
        cfg.write_text(f"[spin]\n{body}\n")
        with pytest.raises(ConfigError, match="type of its default"):
            build_kwargs("spin", load_config(str(cfg)), {})
    # an int stands for a float
    cfg.write_text("[spin]\nomega_s = 2\ntheta = 0, 1\n")
    assert build_kwargs("spin", load_config(str(cfg)), {})["theta"] == (0, 1)


@pytest.mark.parametrize("value", ["ture", "2", "0", "1.0"])
def test_boolean_option_refuses_a_non_boolean(value, tmp_path, capsys):
    # a misspelt boolean stays a truthy string and a number is truthy
    # too: either once switched on the long adiabatic runs
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[ring-rotating]\nadiabatic = {value}\n")
    with pytest.raises(ConfigError, match="type of its default"):
        build_kwargs("ring-rotating", load_config(str(cfg)), {})
    assert main(["run", "ring-rotating", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: adiabatic = ")
    cfg.write_text("[ring-rotating]\nadiabatic = off\n")
    assert build_kwargs("ring-rotating", load_config(str(cfg)), {}) == {"adiabatic": False}


@pytest.mark.parametrize("name,body", [
    ("ring-rotating", "eps = 0.5"),      # one eps beside the two default chi
    ("gauge-sweep", "modes = 0"),        # no Fourier mode for a random U(2) gauge
    ("convergence", "levels = 512"),     # no refinement to gain over
    ("ring-static", "eps = nan"),
    ("ring-rotating", "omega = nan"),
])
def test_refused_input_exits_2(name, body, tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[{name}]\n{body}\n")
    assert main(["run", name, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name,body,message", [
    # "C0 is not Hermitian: ... nan", exit 1
    ("ring-static", "cone = nan", "cone must be finite"),
    ("spin", "theta = nan", "theta must be finite"),
    ("spin", "omega_s = nan", "omega_s must be finite"),
    # "math domain error"
    ("spin", "theta = inf", "theta must be finite"),
    # "total weight must be 1, got 0.500000000000"
    ("direct-sum", "blocks = 0, 0", "blocks must not repeat"),
])
def test_refused_input_is_named(name, body, message, tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[{name}]\n{body}\n")
    assert main(["run", name, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def test_numerical_obstruction_still_exits_1(tmp_path):
    # a GeomPhaseError from a run is not a bad invocation: it propagates,
    # and the process exits 1
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[ring-static]\neps = 1.0\nchi = 0.5pi\n")
    with pytest.raises(DegenerateMixingError):
        main(["run", "ring-static", "--config", str(cfg)])
    src = str(Path(geomphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "geomphase", "run", "ring-static",
                          "--config", str(cfg)], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 1 and "DegenerateMixingError" in out.stderr


def test_run_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "spin", "--steps", "256", "--tol", "1e-3", "--output"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_command_quick(capsys):
    assert main(["check", "--config", QUICK_CFG]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[:2] for line in lines] == [[n, "ok"] for n in EXPERIMENTS]


def test_run_failure_exits_1(tmp_path):
    out = tmp_path / "a.json"
    code = main(["run", "spin", "--steps", "256", "--tol", "1e-30",
                 "--output", str(out)])
    assert code == 1
    d = json.loads(out.read_text())
    assert d["runs"][0]["converged"] is False


def test_run_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["run", "spin", "--steps", "256", "--tol", "1e-3",
                 "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "experiment,field,key,value"
    assert any(line.startswith("spin,deviation,") for line in lines[1:])
    assert any(line.startswith("spin,converged,") for line in lines[1:])


def test_run_parallel_two_experiments(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[common]\nsteps = 256\ntol = 1e-3\n[ring-static]\nn = 0\n")
    out = tmp_path / "a.json"
    code = main(["run", "spin", "ring-static", "--config", str(cfg),
                 "--output", str(out)])
    assert code == 0
    d = json.loads(out.read_text())
    assert [r["experiment"] for r in d["runs"]] == ["spin", "ring-static"]


def test_render_csv_sorted():
    runs = [{"experiment": "x", "converged": True,
             "deviations": {"b": 2.0, "a": 1.0}, "results": {}}]
    body = render_csv(runs)
    assert body.index("x,deviation,a") < body.index("x,deviation,b")


def test_python_dash_m_runs_the_cli():
    src = str(Path(geomphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "geomphase", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: geomphase")
