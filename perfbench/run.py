"""Benchmark of the exact solvers in kneser_tverberg, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload absence --seed 0 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all            # absence, certify, coloring
  python3 perfbench/run.py --workload certify --trace 1

With --trace 0 it prints the end-to-end metrics wall_s, cpu_s, setup_s,
peak_rss_mb and failed_frac, the times corrected for the host's speed by
probe.py; with --trace 1 the per-layer metrics of a traced run. The last line of standard output is one JSON object. Each
workload runs serially in fresh interpreters started from here, because
set-up time and peak memory belong to a process; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("absence", "certify", "coloring")
# Fresh interpreters per run whose set-up time is taken, the timed one
# included; their median is setup_s.
SETUP_SAMPLES = 9
# Every child of one workload, and so a one-workload run, ends well inside
# three minutes.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(mode: str, workload: str, seed: int, deadline: float, **extra) -> tuple[dict, float]:
    """Run child.py in a fresh interpreter; return its result and set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    spawned_at = monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} passed the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"{mode} run of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    overhead, speed = result["setup_probe"]
    return result, (result["first_call_at"] - spawned_at - overhead) * speed


def timed(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = [spawn("setup", workload, seed, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    result, setup = spawn("time", workload, seed, deadline, seconds=seconds)
    setups.append(setup)
    raw_walls, raw_cpus, walls, cpus = zip(*result["passes"])
    failed = len(result["failures"])
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print(f"{workload} (seed {seed}): {len(walls)} passes; times at the probe's reference speed")
    print(f"  wall_s       {values['wall_s']:9.4f} s   median of {len(walls)} passes:"
          f" {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"               {statistics.median(raw_walls):9.4f} s   raw wall clock:"
          f" {' '.join(f'{w:.3f}' for w in raw_walls)}")
    print(f"  cpu_s        {values['cpu_s']:9.4f} s   median of {len(cpus)} passes"
          f" (raw {statistics.median(raw_cpus):.4f} s)")
    print(f"  setup_s      {values['setup_s']:9.4f} s   median of {len(setups)} fresh interpreters")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:9.4f} MB")
    print(f"  failed_frac  {failed / result['attempted']:9.4f}     "
          f"{failed} of {result['attempted']} instances")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    return {"attempted": result["attempted"], "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def traced(workload: str, seed: int, deadline: float) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    result, _ = spawn("trace", workload, seed, deadline, spans=spans)
    metrics = result["metrics"]
    failed = len(result["failures"])
    print(f"{workload} (seed {seed}), traced: {metrics['trace.spans']} spans in {spans.relative_to(ROOT)}")
    print(f"  overhead {metrics['trace.overhead_frac']:+.3f} of the untraced pass;"
          f" failed {failed} of {result['attempted']} instances")
    total = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    for name, value in sorted(((k, v) for k, v in metrics.items() if k.endswith("self_s")),
                              key=lambda kv: -kv[1]):
        if value > 0:
            print(f"  {name:48s} {value:9.4f} s  {value / total:6.1%}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    return {"attempted": result["attempted"], "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kneser_tverberg" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = monotonic() + DEADLINE_S
            if args.trace:
                results[name] = traced(name, args.seed, deadline)
            else:
                results[name] = timed(name, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({"correct": summary["failed"] == 0, **summary}))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
