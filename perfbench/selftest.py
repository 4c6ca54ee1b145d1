"""Tests of the benchmark itself, on smoke-sized workloads.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kneser_tverberg as kt  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _counts(metrics: dict) -> dict:
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    return {k: v for k, v in metrics.items() if units[k] != "s"}


def _traced_smoke(workload: str, seed: int) -> tuple[list[Span], list[str]]:
    instances = workloads.build(workload, seed, smoke=True)
    tracer = tracing.Tracer(f"{workload}-{seed}")
    with tracer.installed():
        failures = workloads.run_pass(instances, workloads.answer_table(smoke=True))
    return tracer.spans, failures


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("a", 0.0, 10.0, -1, "r"),
        Span("b", 1.0, 3.0, 0, "r"),
        Span("c", 2.0, 5.0, 0, "r"),  # overlaps b: together they cover 1..5
        Span("d", 7.0, 8.0, 0, "r"),
        Span("e", 7.5, 7.75, 3, "r"),
        Span("f", 9.5, 12.0, 0, "r"),  # runs past its parent: only 9.5..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 0.75, 0.25, 2.5])


def test_derived_counts_on_synthetic_spans():
    spans = [
        Span("experiments.verify_x", 0.0, 10.0, -1, "r"),
        Span("geometry.tverberg_search", 1.0, 9.0, 0, "r", {"absences": True}),
        Span("geometry.conv_intersect", 1.0, 2.0, 1, "r", {"witnesses": False}),
        Span("geometry.conv_intersect", 2.0, 4.0, 1, "r", {"witnesses": False}),
        Span("linalg.feasible_nonneg", 2.5, 3.5, 3, "r", {"cells": 12, "infeasible": True}),
        Span("geometry.avg_stable_placement", 9.0, 10.0, 0, "r"),
        Span("geometry.strong_general_position_report", 9.0, 9.5, 5, "r", {"tuples_checked": 7}),
        Span("geometry.strong_general_position_report", 9.5, 10.0, 5, "r", {"tuples_checked": 5}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["geometry.conv_intersect.calls"] == 2
    assert m["geometry.conv_intersect.bbox_rejects"] == 1
    assert m["geometry.conv_intersect.witnesses"] == 0
    assert m["geometry.tverberg_search.tuples_examined"] == 2
    assert m["geometry.tverberg_search.absences"] == 1
    assert m["geometry.tverberg_search.certificates"] == 0
    assert m["geometry.avg_stable_placement.sgp_attempts"] == 2
    assert m["geometry.avg_stable_placement.total_s"] == pytest.approx(1.0)
    assert m["geometry.strong_general_position_report.tuples_checked"] == 12
    assert m["linalg.feasible_nonneg.cells"] == 12
    assert m["linalg.feasible_nonneg.infeasible"] == 1
    assert m["experiments.self_s"] == pytest.approx(1.0)
    assert m["linalg.rank.calls"] == 0
    assert m["trace.spans"] == len(spans)


def test_probe_correction_on_synthetic_samples():
    p = probe.Probe()
    p.samples = [probe.REFERENCE_S, 2 * probe.REFERENCE_S]  # full speed, then half
    p.overhead = 1.0
    assert p.speed() == pytest.approx(0.75)
    assert p.corrected(11.0) == pytest.approx(7.5)


def test_probe_samples_a_busy_interval_and_restores_the_signal():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with probe.Probe(interval=0.005) as p:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(p.samples) >= 10
    assert 0 < p.overhead < 0.2
    assert 0 < p.corrected(0.2) < 0.2 / min(p.samples) * probe.REFERENCE_S


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workloads_pass_their_answer_table(workload):
    instances = workloads.build(workload, 3, smoke=True)
    assert workloads.run_pass(instances, workloads.answer_table(smoke=True)) == []


def test_a_wrong_expectation_or_a_crash_counts_as_failed():
    instances = workloads.build("coloring", 0, smoke=True)
    table = workloads.answer_table(smoke=True)
    table["kneser-2-7"] = {**table["kneser-2-7"], "chi": 6}
    table["kneser3-2-6"] = {**table["kneser3-2-6"], "chi": 3}
    failures = workloads.run_pass(instances, table)
    assert [f.split(":")[0] for f in failures] == ["kneser-2-7", "kneser3-2-6"]

    def boom():
        raise ArithmeticError("solver gave up")

    crashing = [workloads.Instance("kneser-2-7", boom, instances[0].check)]
    assert workloads.run_pass(crashing, workloads.answer_table(smoke=True)) == [
        "kneser-2-7: raised ArithmeticError: solver gave up"
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    original = kt.linalg.rank, kt.geometry.rank, kt.SimplicialComplex.face_masks
    first, failures = _traced_smoke(workload, 5)
    second, _ = _traced_smoke(workload, 5)
    assert failures == []
    assert _counts(tracing.layer_metrics(first)) == _counts(tracing.layer_metrics(second))
    assert (kt.linalg.rank, kt.geometry.rank, kt.SimplicialComplex.face_masks) == original
    names = {s.name.split(".")[0] for s in first}
    if workload == "coloring":
        assert not names & {"linalg", "geometry"}
    else:
        assert {"linalg", "geometry", "experiments"} <= names


def test_rank_has_the_largest_self_time_on_absence():
    spans, _ = _traced_smoke("absence", 0)
    m = tracing.layer_metrics(spans)
    self_times = {k: v for k, v in m.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "linalg.rank.self_s"


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()
    import run

    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "coloring", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
