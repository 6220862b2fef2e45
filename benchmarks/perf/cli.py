"""Command line: ``run``, ``compare``, and the single-run contract form.

* ``python -m benchmarks.perf run [--seed N] [--reps R] [--trace]`` runs
  every workload (each in its own child process, one after another) and
  writes one result file per seed to ``benchmarks/perf/results/``.
* ``python -m benchmarks.perf compare A/ B/`` compares two result sets.
* ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
  --trace 0|1`` runs one workload once and prints its result as one JSON
  object on the last line of standard output.

Children run with a fixed ``PYTHONHASHSEED``: string hashing decides
dict layouts, and with it how fast the simulator runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from . import load_benchmark
from .compare import compare_sets, format_value

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
RESULTS_DIR = os.path.join(PERF_DIR, "results")
#: A child that has not finished by then is killed.
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"


def workload_names() -> List[str]:
    return [w["name"] for w in load_benchmark()["workloads"]]


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool = False) -> Optional[Dict]:
    """Run one workload in a fresh interpreter and return its result, or
    None if the child failed (its stderr passes through)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(ROOT, "src"), ROOT]
                   + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, "-m", "benchmarks.perf", "child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def correct(result: Dict) -> bool:
    return all(result["checks"].values())


def print_result(result: Dict, out=sys.stdout) -> None:
    status = "ok" if correct(result) else "FAILED " + ", ".join(
        k for k, v in result["checks"].items() if not v)
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}: {status} "
          f"(attempted {result['attempted']}, failed {result['failed']})",
          file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {format_value(m['value']):>14s} {m['unit']}",
              file=out)


def contract_main(argv: List[str]) -> int:
    """``run.py --workload W --seed N --seconds S --trace 0|1``."""
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = run_child(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if result is None:
        return 1
    print_result(result, out=sys.stderr)
    print(json.dumps({"correct": correct(result),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct(result) else 1


def cmd_run(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    label = "traced" if args.trace else "untraced"
    seconds = load_benchmark()["run_seconds"]
    ok = True
    for seed in range(args.seed, args.seed + args.reps):
        doc = {"seed": seed, "seconds": seconds, "trace": args.trace,
               "workloads": {}}
        for name in workload_names():
            result = run_child(name, seed, seconds, args.trace)
            if result is None:
                return 1
            print_result(result)
            ok &= correct(result)
            doc["workloads"][name] = result
        path = os.path.join(args.out, f"{label}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"wrote {path}")
        if args.trace:
            table = layer_table(doc)
            print(table)
            with open(os.path.join(args.out, "layers.txt"), "w") as fh:
                fh.write(table + "\n")
    return 0 if ok else 1


def layer_table(doc: Dict) -> str:
    """The per-layer metrics of one traced run, one column per workload."""
    names = list(doc["workloads"])
    first = doc["workloads"][names[0]]["metrics"]
    lines = [f"per-layer table (seed {doc['seed']}, "
             f"{doc['seconds']} s per workload)",
             f"{'metric':30s} {'unit':>10s} "
             + " ".join(f"{n:>15s}" for n in names)]
    for metric, m in first.items():
        cells = " ".join(
            f"{format_value(doc['workloads'][n]['metrics'][metric]['value']):>15s}"
            for n in names)
        lines.append(f"{metric:30s} {m['unit']:>10s} {cells}")
    return "\n".join(lines)


def cmd_child(args) -> int:
    from .harness import run_workload
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          quick=args.quick)
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run every workload, write a result file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1,
                   help="seeds seed..seed+reps-1, one result file each")
    p.add_argument("--trace", action="store_true",
                   help="report the per-layer table instead")
    p.add_argument("--out", default=RESULTS_DIR)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="compare two result directories")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=lambda a: compare_sets(a.base, a.new))

    p = sub.add_parser("child", help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_child)

    args = parser.parse_args(argv)
    return args.fn(args)
