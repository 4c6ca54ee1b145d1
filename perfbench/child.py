"""One fresh interpreter's share of a benchmark run; started by run.py.

Modes:
  setup  import the package, build the instance list, report the moment
         the first timed call would start, and exit;
  time   the same set-up, then untraced passes over the workload until
         the next pass would overrun --seconds; reports each pass's wall
         and CPU time, raw and corrected by the host-speed probe, the
         failures and the peak resident memory;
  trace  the same set-up, then an untraced and a traced pass, twice;
         reports the per-layer metrics, fails an instance if a count
         differs between the traced passes, and writes the spans to
         --spans.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from probe import Probe


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def main() -> None:
    # Set-up is probed too, finer, because it lasts a fraction of a second.
    with Probe(interval=0.005) as setup_probe:
        parser = argparse.ArgumentParser()
        parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=0.0)
        parser.add_argument("--spans", default="")
        args = parser.parse_args()

        import workloads

        instances = workloads.build(args.workload, args.seed)
        table = workloads.answer_table()
        first_call_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {
        "first_call_at": first_call_at,
        "setup_probe": [setup_probe.overhead, setup_probe.speed()],
        "attempted": 0,
        "failures": [],
    }

    def one_pass() -> float:
        t0 = time.perf_counter()
        out["failures"] += workloads.run_pass(instances, table)
        out["attempted"] += len(instances)
        return time.perf_counter() - t0

    if args.mode == "time":
        # One [wall, cpu, corrected wall, corrected cpu] per pass.
        passes = []
        t_start = time.perf_counter()
        while True:
            with Probe() as probe:
                c0 = cpu_seconds()
                wall = one_pass()
                cpu = cpu_seconds() - c0
            passes.append([wall, cpu, probe.corrected(wall), probe.corrected(cpu)])
            if time.perf_counter() - t_start + wall > args.seconds:
                break
        out["passes"] = passes
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif args.mode == "trace":
        import tracing

        # Untraced and traced passes alternate, twice, so that neither side
        # gets all the passes that run while the process warms up.
        untraced, traced, runs = [], [], []
        for i in range(2):
            untraced.append(one_pass())
            tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-traced{i}")
            with tracer.installed():
                traced.append(one_pass())
            runs.append((tracer, tracing.layer_metrics(tracer.spans)))
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        (_, first), (_, second) = runs
        for name, value in first.items():
            if units[name] != "s" and second[name] != value:
                out["failures"].append(f"{name} differs between traced passes: {value} != {second[name]}")
        # Times are averaged over the two traced passes; counts are equal.
        out["metrics"] = {
            name: (value + second[name]) / 2 if units[name] == "s" else value
            for name, value in first.items()
        }
        out["metrics"]["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1
        if args.spans:
            with open(args.spans, "w") as fh:
                for tracer, _ in runs:
                    tracer.write(fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
