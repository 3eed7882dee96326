"""Benchmark of whole ``multishift`` CLI runs, end to end and per layer.

    python3 perfbench/run.py --workload language --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, both modes

A run writes the workload's spec files (one per item) from the recorded
set, times set-up in fresh processes, then runs repetitions of the
workload, each in a fresh process, until ``--seconds`` are used.  Every
item's exit code and exact output fields are checked against the
reference on every repetition.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds one traced repetition and reports per-layer
self times and call counts.  Every time is scaled by the speed probe
that the child runs next to it (see child.probe and README.md).  The
seed sets the order of the items.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from outputs import mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("language", "symbolic", "measures")
COMMANDS = ("enumerate", "genfun", "perron", "measure", "escape", "verify")
END_TO_END_COMMANDS = ("perron", "verify")
SETUP_RUNS = 9
# child.probe() on the reference host when it runs at full speed; a time
# t measured while the probe took p is reported as t * PROBE_REF_S / p
PROBE_REF_S = 0.0023
MIN_REPS = 3
MAX_MEASURE_S = 120  # a whole run must end well within 180 s
CHILD_TIMEOUT = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(mode: str, job: Path) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "child.py"), mode, str(job)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise BenchError(f"child {mode} failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout)


def write_jobs(items: list[dict], work: Path) -> dict[str, Path]:
    work.mkdir(parents=True, exist_ok=True)
    specs, job_items = [], []
    for k, item in enumerate(items):
        path = work / f"spec{k:02d}.json"
        path.write_text(json.dumps(item["spec"]))
        specs.append(str(path))
        job_items.append({"id": item["id"], "command": item["command"],
                          "argv": [item["command"], "--spec", str(path)] + item["args"]})
    src = str(ROOT / "src")
    jobs = {"setup": {"src": src, "specs": specs},
            "rep": {"src": src, "trace": False, "items": job_items},
            "traced": {"src": src, "trace": True, "items": job_items}}
    paths = {}
    for name, job in jobs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(job))
    return paths


def measure(items: list[dict], work: Path, seconds: float, trace: bool) -> dict:
    jobs = write_jobs(items, work)
    run_child("setup", jobs["setup"])  # compiles bytecode; not timed
    setup = [run_child("setup", jobs["setup"]) for _ in range(SETUP_RUNS)]

    reps = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if reps:
            per_rep = elapsed / len(reps)
            end = elapsed + per_rep + (1.5 * per_rep if trace else 0.0)  # with the traced one
            if end > seconds and len(reps) >= MIN_REPS or end > MAX_MEASURE_S:
                break
        reps.append(run_child("rep", jobs["rep"]))
    traced = run_child("rep", jobs["traced"]) if trace else None
    return {"setup": setup, "reps": reps, "traced": traced}


def check(items: list[dict], runs: list[dict]) -> tuple[int, list[str]]:
    """Compare every item of every run with its reference."""
    ref = {item["id"]: item["reference"] for item in items}
    attempted, problems = 0, []
    for run in runs:
        for res in run["items"]:
            attempted += 1
            why = mismatch(res, ref[res["id"]])
            if why:
                problems.append(f"{res['id']}: {why}")
    return attempted, problems


def scaled(res: dict, key: str) -> float:
    """A timing scaled to the reference host speed (see child.probe)."""
    return res[key] * PROBE_REF_S / res["probe_s"]


def summarize(items: list[dict], m: dict, trace: bool) -> tuple[dict, dict]:
    """Per-item latencies and the reported metrics (name -> (value, unit)).

    An item's latency is the median over repetitions of its scaled time.
    """
    per_item = {item["id"]: statistics.median(scaled(r, "seconds") for run in m["reps"]
                                              for r in run["items"] if r["id"] == item["id"])
                for item in items}
    command_s = {c: sum(per_item[i["id"]] for i in items if i["command"] == c)
                 for c in COMMANDS}
    wall = sum(per_item.values())
    if not trace:
        metrics = {"setup_s": (statistics.median(scaled(s, "setup_s") for s in m["setup"]), "s"),
                   "wall_s": (wall, "s")}
        for c in END_TO_END_COMMANDS:
            metrics[f"{c}_s"] = (command_s[c], "s")
        metrics["peak_rss_mib"] = (statistics.median(r["maxrss_kib"] for r in m["reps"]) / 1024,
                                   "MiB")
        return per_item, metrics
    traced = m["traced"]
    factor = statistics.median(PROBE_REF_S / r["probe_s"] for r in traced["items"])
    metrics = {}
    for name, (self_s, calls) in traced["trace"].items():
        metrics[f"{name}.self_s"] = (self_s * factor, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    metrics["trace_overhead_s"] = (sum(scaled(r, "seconds") for r in traced["items"]) - wall, "s")
    for c in COMMANDS:
        if c not in END_TO_END_COMMANDS:
            metrics[f"{c}_s"] = (command_s[c], "s")
    refused = sum(r["exit"] != 0 for run in m["reps"] for r in run["items"])
    metrics["failed_frac"] = (refused / sum(len(run["items"]) for run in m["reps"]), "ratio")
    return per_item, metrics


def layer_shares(metrics: dict) -> dict[str, float]:
    """Each module's share of the traced self time."""
    by_module: dict[str, float] = {}
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s"):
            mod = name.split(".")[0]
            by_module[mod] = by_module.get(mod, 0.0) + value
    total = sum(by_module.values()) or 1.0
    return {mod: v / total for mod, v in by_module.items()}


def run_workload(bench: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = list(bench["workloads"][workload])
    random.Random(seed).shuffle(items)
    work = HERE / ".work" / f"{workload}-{seed}-{'t' if trace else 'e'}-{os.getpid()}"
    try:
        m = measure(items, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = m["reps"] + ([m["traced"]] if trace else [])
    attempted, problems = check(items, runs)
    per_item, metrics = summarize(items, m, trace)

    print(f"== {workload}: {len(items)} items, {len(m['reps'])} repetitions, "
          f"{'traced' if trace else 'untraced'}, seed {seed}")
    for item in items:
        d = item["descriptors"]
        print(f"  {per_item[item['id']]:8.3f} s  exit {item['reference']['exit']}  "
              f"{item['id']:<34} blocks {d['blocks']:>2} order {d['system_order']} "
              f"deg {d['den_degree']:>2} exact {d['root_exact']}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if trace:
        shares = ", ".join(f"{mod} {share:.0%}" for mod, share in layer_shares(metrics).items())
        print(f"  self-time shares: {shares}")
    return {"correct": not problems, "attempted": attempted, "failed": len(problems),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description="multishift CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", default="seed1",
                    help="recorded item set under perfbench/sets (seed2 is held out)")
    args = ap.parse_args()

    if not (ROOT / "src" / "multishift" / "__init__.py").is_file():
        print(f"no multishift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    set_path = HERE / "sets" / f"{args.set}.json"
    if not set_path.is_file():
        print(f"no recorded item set {set_path}", file=sys.stderr)
        return 2
    bench = json.loads(set_path.read_text())
    try:
        if args.workload != "all":
            result = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {w: {mode: run_workload(bench, w, args.seed, args.seconds, mode == "per_layer")
                          for mode in ("end_to_end", "per_layer")} for w in WORKLOADS}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
