"""Benchmark entry point: run one workload (or all) and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --record perfbench/baseline.json

Each workload runs in fresh child processes started from ``worker.py`` with
``src`` on ``PYTHONPATH``, so ``setup_s`` and ``peak_rss_mb`` belong to that
workload alone.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("recognize", "chamber", "quadrics", "cli")
SETUP_REPEATS = 3        # fresh processes whose set-up time gives the median
CHILD_BUDGET_S = 170.0   # one workload run must end well within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(root, argv, deadline):
    """Run ``worker.py`` with ``argv``; return its JSON report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the worker and any momang it started
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} ran out of time")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(sorted_values, pct):
    """Nearest rank: a job time that was measured, never an interpolation
    across the gap between two rungs of the ladder."""
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def measure(root, workload, seed, seconds, trace, workdir):
    """Run one workload in fresh processes and derive every metric."""
    deadline = time.monotonic() + CHILD_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--workdir", workdir]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(root, base + ["--mode", "setup"], deadline)["setup_s"])
    rep = run_child(root, base + ["--trace", str(int(trace))], deadline)
    setups.append(rep["setup_s"])

    # Every input ran once per round.  Its cost is the median of its costs
    # over the rounds, in reference units; its wall time, shown beside it,
    # is the best of those rounds.
    jobs = rep.get("untraced_jobs", len(rep["costs"]))
    inputs = len(rep["round"])
    rounds = jobs // inputs
    by_input = {name: statistics.median(rep["costs"][r * inputs + c] for r in range(rounds))
                for c, name in enumerate(rep["round"])}
    wall_ms = {name: min(rep["times_s"][r * inputs + c] for r in range(rounds)) * 1e3
               for c, name in enumerate(rep["round"])}
    costs = sorted(by_input.values())
    walls = sorted(wall_ms.values())
    failures = rep["failures"]
    attempted = len(rep["costs"])
    tail_pct = rep["tail_pct"]
    e2e = {
        "jobs_per_kref": inputs * 1e3 / sum(costs),
        "job_p50_ref": percentile(costs, 50),
        "job_tail_ref": percentile(costs, tail_pct),
        "peak_rss_mb": rep["peak_rss_mb"],
        "ok_ratio": 1.0 - len(failures) / attempted,
        "setup_s": statistics.median(setups),
    }
    layers = {}
    if trace:
        layers = dict(rep["layers"])
        build_ms = layers.get("zcomplex.build_chamber_complex.ms", 0.0)
        cells = layers.get("zcomplex.cells", 0)
        layers["zcomplex.build_chamber_complex.us_per_cell"] = (
            build_ms * 1e3 / cells if cells else 0.0)
        layers["cli.import_ms"] = rep["import_ms"]
        layers["cli.interp_ms"] = rep["interp_ms"]
        layers["bench.check_ms"] = rep["check_ms"]
        layers["trace_overhead"] = rep["trace_overhead"]
        layers["bench.ref_ms"] = rep["ref_ms"]
        layers["wall.jobs_per_s"] = inputs * 1e3 / sum(walls)
        layers["wall.job_p50_ms"] = percentile(walls, 50)
        layers["wall.job_tail_ms"] = percentile(walls, tail_pct)
    return {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "attempted": attempted, "failed": len(failures),
        "correct": all(f["known_defect"] for f in failures),
        "failures": failures, "round": rep["round"], "rounds": rounds,
        "cost_by_input": by_input, "best_ms_by_input": wall_ms, "ref_ms": rep["ref_ms"],
        "tail": {"pct": tail_pct, "inputs": inputs,
                 "beyond": sum(1 for c in costs if c > e2e["job_tail_ref"])},
        "setup_samples_s": setups, "end_to_end": e2e, "per_layer": layers,
    }


def select(spec_metrics, values):
    """The metrics ``BENCHMARK.json`` lists, with their units, in its order."""
    unknown = sorted(set(values) - {m["name"] for m in spec_metrics})
    if unknown:
        print(f"warning: measured but not listed in BENCHMARK.json: {unknown}",
              file=sys.stderr)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec_metrics}


def report(res, metrics):
    """Human-readable lines for one workload run."""
    tail = res["tail"]
    print(f"{res['workload']} seed={res['seed']} trace={int(res['trace'])}: "
          f"{res['attempted']} jobs: {res['rounds']} rounds of {len(res['round'])} inputs, "
          f"{res['failed']} failed; reference {res['ref_ms']:.3f} ms (median)")
    seen = Counter((f["case"], f["known_defect"], f["error"]) for f in res["failures"])
    for (case, defect, error), count in seen.items():
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"  failed {case} x{count} ({tag}): {error[:160]}")
    for name, m in metrics.items():
        if res["trace"] and not m["value"]:
            continue  # a layer this workload does not call
        note = ""
        if name == "job_tail_ref":
            note = (f"  (p{tail['pct']} of {tail['inputs']} inputs, "
                    f"{tail['beyond']} beyond)")
        if name == "setup_s":
            note = f"  (median of {len(res['setup_samples_s'])} fresh processes)"
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{note}")


def versions():
    import networkx
    import numpy
    import scipy
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return {"git_sha": git.stdout.strip() if git.returncode == 0 else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "nproc": os.cpu_count()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="with --workload all: write both runs of every workload here")
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "momang", "__init__.py")):
        print("error: run from the root of a momang checkout (src/momang is missing)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)

    try:
        if args.workload != "all":
            res = measure(root, args.workload, args.seed, args.seconds, args.trace, workdir)
            key = "per_layer" if args.trace else "end_to_end"
            metrics = select(spec[key], res[key])
            report(res, metrics)
            print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": metrics}))
            return 0
        results = {}
        for name in WORKLOAD_NAMES:
            runs = {}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                res = measure(root, name, args.seed, args.seconds, trace, workdir)
                res[key] = select(spec[key], res[key])
                report(res, res[key])
                runs[key] = res
            results[name] = runs
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(workdir)   # each worker removed its own directory in it
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({**versions(), "seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": all(r[k]["correct"] for r in results.values() for k in r),
                      "attempted": sum(r["end_to_end"]["attempted"] for r in results.values()),
                      "failed": sum(r["end_to_end"]["failed"] for r in results.values()),
                      "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
