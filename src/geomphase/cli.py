"""Command line driver: run named experiments, optionally configured by
an INI file, and publish results as deterministic JSON or a flat CSV.

Config files use one section per experiment plus an optional [common]
section. Values are plain scalars, comma lists, or angles written with a
pi suffix ("0.25pi"). Unknown keys are refused instead of ignored.
"""

import argparse
import configparser
import csv
import inspect
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, GeomPhaseError
from .experiments import EXPERIMENTS


def _parse_scalar(text):
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low.endswith("pi"):
        head = low[:-2].strip()
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        try:
            return float(head) * math.pi
        except ValueError:
            pass
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            continue
    return t


def parse_value(text):
    if "," in text:
        return tuple(_parse_scalar(p) for p in text.split(",") if p.strip())
    return _parse_scalar(text)


def _coerce(key, default, value):
    # Config values arrive shapeless; sequence-valued parameters accept a
    # bare scalar as a one-element sequence. A boolean or a number must
    # have its default's type, or be an int where the default is a float.
    if isinstance(default, (tuple, list)):
        seq = value if isinstance(value, (tuple, list)) else (value,)
        return tuple(_coerce(key, default[0], v) for v in seq)
    allowed = {bool: (bool,), int: (int,), float: (int, float)}.get(type(default))
    if allowed and type(value) not in allowed:
        raise ConfigError(f"{key} = {value!r} is not of the type of its default {default!r}")
    return value


def load_config(path):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return {s: {k: parse_value(v) for k, v in cp.items(s)} for s in cp.sections()}


def build_kwargs(name, config, overrides):
    func = EXPERIMENTS[name]
    params = inspect.signature(func).parameters
    merged = {}
    for section in ("common", name):
        for key, val in config.get(section, {}).items():
            if key not in params:
                if section == "common":
                    continue
                raise ConfigError(
                    f"unknown key {key!r} in section [{name}]; valid keys: "
                    f"{', '.join(params)}"
                )
            merged[key] = val
    for key, val in overrides.items():
        if val is not None and key in params:
            merged[key] = val
    return {k: _coerce(k, params[k].default, v) for k, v in merged.items()}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}/{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (bool, int, float)) and not isinstance(obj, complex):
        rows.append((prefix, obj))


def render_json(runs, config_path):
    payload = {
        "meta": {"package": f"geomphase {__version__}", "config": config_path},
        "runs": _jsonify(runs),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(runs):
    buf = io.StringIO()
    out = csv.writer(buf)
    out.writerow(["experiment", "field", "key", "value"])
    for run in runs:
        name = run["experiment"]
        for field in ("deviations", "results"):
            rows = []
            _flatten("", _jsonify(run.get(field, {})), rows)
            for key, val in sorted(rows):
                out.writerow([name, field[:-1], key, val])
        out.writerow([name, "converged", "", run["converged"]])
    return buf.getvalue()


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_many(names, config, overrides):
    jobs = [(n, build_kwargs(n, config, overrides)) for n in names]
    return [EXPERIMENTS[n](**kw) for n, kw in jobs]


def _resolve_names(requested):
    if list(requested) == ["all"]:
        return list(EXPERIMENTS)
    for n in requested:
        if n not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {n!r}; choose from {', '.join(EXPERIMENTS)} or 'all'"
            )
    return list(requested)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geomphase",
        description="Geometric phases of conserved-operator eigenframes: "
                    "run the bundled experiments and check them against "
                    "their analytic references.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments and emit a report")
    p_run.add_argument("experiments", nargs="+",
                       help="experiment names, or 'all'")
    p_run.add_argument("--config", help="INI file with per-experiment sections")
    p_run.add_argument("--output", help="write the report here instead of stdout")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--steps", type=int, help="override the step count")
    p_run.add_argument("--tol", type=float, help="override the main tolerance")
    p_run.add_argument("--seed", type=int, help="override the sweep seed")

    sub.add_parser("list", help="list experiment names")

    p_check = sub.add_parser(
        "check", help="run every experiment and report pass/fail per name"
    )
    p_check.add_argument("--config", help="INI file with per-experiment sections")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, func in EXPERIMENTS.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14s} {doc}")
        return 0

    try:
        config = load_config(args.config) if args.config else {}
        if args.command == "run":
            names = _resolve_names(args.experiments)
            overrides = {"steps": args.steps, "tol": args.tol, "seed": args.seed}
            runs = _run_many(names, config, overrides)
            if args.format == "json":
                _emit(render_json(runs, args.config), args.output)
            else:
                _emit(render_csv(runs), args.output)
            return 0 if all(r["converged"] for r in runs) else 1

        runs = _run_many(list(EXPERIMENTS), config, {})
        failed = [r for r in runs if not r["converged"]]
        for r in runs:
            worst = 0.0
            rows = []
            _flatten("", _jsonify(r.get("deviations", {})), rows)
            numeric = [v for _k, v in rows if isinstance(v, (int, float))
                       and not isinstance(v, bool)]
            if numeric:
                worst = max(numeric)
            mark = "ok" if r["converged"] else "FAIL"
            print(f"{r['experiment']:14s} {mark:4s} worst deviation {worst:.3e}")
        return 0 if not failed else 1
    except ValueError as e:  # a bad value, unless a numerical obstruction
        if isinstance(e, GeomPhaseError) and not isinstance(e, ConfigError):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
