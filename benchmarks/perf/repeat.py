"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 benchmarks/perf/repeat.py --seeds 1-10 [--workloads NAME ...] [--trace 0|1]
                                [--seconds N] [--out FILE]

Run from the root of a source checkout. Seeds go round the workloads in
turn, so a slow spell of the machine falls on all of them. For every
metric of every workload it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. --out writes every run's figures
and the summary as JSON, the form the perf trajectory is kept in.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if out.returncode in (0, 1) and lines else None
    if result is None:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return env, result


def summarise(values, bound):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "min": min(values), "max": max(values)}


def main(argv=None):
    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="repeat benchmark runs over seeds")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {w: [] for w in args.workloads}
    env = None
    for seed in args.seeds:
        for w in args.workloads:
            env, result = run_once(spec, w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, **result})
            vals = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in vals.items()
                             if k in bounds and bounds[k] is not None),
                  file=sys.stderr, flush=True)

    summary = {}
    for w, rs in runs.items():
        metrics = rs[0]["metrics"]
        summary[w] = {
            name: {"unit": m["unit"],
                   **summarise([r["metrics"][name]["value"] for r in rs], bounds.get(name))}
            for name, m in metrics.items()
        }
        summary[w]["correct"] = all(r["correct"] for r in rs)
        if len(rs) > 1:
            print(f"\n{w} ({len(rs)} runs, all correct: {summary[w]['correct']})")
            for name, s in summary[w].items():
                if isinstance(s, dict) and (s["bound"] is not None or args.trace):
                    flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  WIDE"
                    print(f"  {name:36s} median {s['median']:<12.6g} spread {s['spread']:7.2%}"
                          + (f" bound {s['bound']:.0%}{flag}" if s["bound"] is not None else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"env": env, "seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
