"""Acceptance battery: one test per numbered criterion.

Criteria 1-13 read their reports by name from the session's one
`kntv verify all` run (tests/conftest.py) and check budgets against
their live runtime_s; #14 reruns three families at `--jobs 8` against
it. Each test prints a single PASS/FAIL line with its time and budget.
All comparisons are exact; there are no tolerances anywhere.
"""

import json
import time

import pytest

from kneser_tverberg.cli import main
from kneser_tverberg.experiments import (
    AVG_STABLE_INSTANCES,
    GALE_INSTANCES,
    KNESER_INSTANCES,
    SCHRIJVER_INSTANCES,
    STABLE_FACE_INSTANCES,
    TVERBERG_INSTANCES,
)


def _conclude(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" / budget {budget:.0f}s" if budget else "")
    suffix = f"  {detail}" if detail else ""
    print(f"criterion {num:02d}: {status} ({timing}){suffix}")
    assert ok, f"criterion {num}: {detail or 'value check failed'}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s exceeded {budget}s"


KNESER_NAMES = [f"kneser-{k}-{n}" for k, n in KNESER_INSTANCES]
TVERBERG_NAMES = [f"tverberg-random-{r}-{d}" for r, d in TVERBERG_INSTANCES]
AVG_STABLE_NAMES = [f"avg-stable-{r}-{k}-{n}" for r, k, n in AVG_STABLE_INSTANCES]


def _named(run, *names):
    """The run's reports with these experiment names, in this order; fails naming any missing."""
    by_name = {rep["experiment"]: rep for rep in run[1]}
    missing = [name for name in names if name not in by_name]
    assert not missing, f"kntv verify all has no report named {', '.join(missing)}"
    return [by_name[name] for name in names]


def _runtime(reps):
    return sum(rep["runtime_s"] for rep in reps)


def _without_runtime(rep):
    return {k: v for k, v in rep.items() if k != "runtime_s"}


def test_criterion_01_kneser_chromatic_numbers(verify_all_run):
    reps = _named(verify_all_run, *KNESER_NAMES)
    chis = [rep["computed"]["chi"] for rep in reps]
    ok = chis == [3, 4, 5, 3] and all(rep["verdict"] == "match" for rep in reps)
    _conclude(1, ok, _runtime(reps), 10, f"chi={chis}")


def test_criterion_02_schrijver_with_criticality(verify_all_run):
    reps = _named(verify_all_run, *(f"schrijver-{k}-{n}" for k, n, _ in SCHRIJVER_INSTANCES))
    chis = [rep["computed"]["chi"] for rep in reps]
    critical = reps[0]["computed"].get("vertex_critical")
    ok = (
        chis == [3, 4, 3]
        and critical is True
        and reps[0]["computed"]["vertices"] == 5
        and all(rep["verdict"] == "match" for rep in reps)
    )
    _conclude(2, ok, _runtime(reps), 30, f"chi={chis} critical={critical}")


def test_criterion_03_forbidden_family_roundtrip(verify_all_run):
    (rep,) = _named(verify_all_run, "roundtrip")
    ok = rep["verdict"] == "match" and rep["computed"]["agreements"] == 200
    _conclude(3, ok, rep["runtime_s"], 10, f"agreements={rep['computed']['agreements']}/200")


def test_criterion_04_dismantling_preserves_chi(verify_all_run):
    (rep,) = _named(verify_all_run, "dismantle")
    ok = rep["verdict"] == "match" and rep["computed"]["agreements"] == 100
    _conclude(4, ok, rep["runtime_s"], 60, f"agreements={rep['computed']['agreements']}/100")


def test_criterion_05_constraint_property_exhaustive(verify_all_run):
    reps = _named(
        verify_all_run,
        *(f"constraint-kneser-{k}-{n}" for k, n in KNESER_INSTANCES),
        *(f"constraint-schrijver-{k}-{n}" for k, n, _ in SCHRIJVER_INSTANCES),
    )
    ok = all(rep["verdict"] == "match" and rep["computed"]["property_holds"] for rep in reps)
    _conclude(5, ok, _runtime(reps), 60, f"instances={len(reps)}")


def test_criterion_06_width_comparison_example(verify_all_run):
    (rep,) = _named(verify_all_run, "pipeline-kriz-line")
    got = {k: rep["computed"][k] for k in ("width", "kriz", "floor_formula", "chi")}
    ok = rep["verdict"] == "match" and got == {
        "width": 3,
        "kriz": "3/2",
        "floor_formula": 1,
        "chi": 2,
    }
    _conclude(6, ok, rep["runtime_s"], 5, str(got))


def test_criterion_07_cyclic_shift_tight_floor(verify_all_run):
    (rep,) = _named(verify_all_run, "pipeline-cyclic-shift-cone")
    got = {
        k: rep["computed"][k]
        for k in ("floor_formula", "chi", "kriz_ceiling", "greedy_colors", "greedy_proper")
    }
    ok = rep["verdict"] == "match" and got == {
        "floor_formula": 4,
        "chi": 4,
        "kriz_ceiling": 2,
        "greedy_colors": 4,
        "greedy_proper": True,
    }
    _conclude(7, ok, rep["runtime_s"], 5, str(got))


def test_criterion_08_gale_facets_vs_oracle(verify_all_run):
    reps = _named(verify_all_run, *(f"gale-{n}-{d}" for n, d in GALE_INSTANCES))
    ok = all(rep["verdict"] == "match" for rep in reps)
    _conclude(8, ok, _runtime(reps), 60, f"instances={[(n, d) for n, d in GALE_INSTANCES]}")


def test_criterion_09_cyclic_missing_faces_are_stable(verify_all_run):
    reps = _named(verify_all_run, *(f"stable-faces-{n}-{d}" for n, d in STABLE_FACE_INSTANCES))
    ok = all(rep["verdict"] == "match" for rep in reps)
    _conclude(9, ok, _runtime(reps), 30, f"instances={[(n, d) for n, d in STABLE_FACE_INSTANCES]}")


def test_criterion_10_random_partition_certificates(verify_all_run):
    reps = _named(verify_all_run, *TVERBERG_NAMES)
    total = sum(rep["computed"]["certificates"] for rep in reps)
    ok = total == 100 and all(rep["verdict"] == "match" for rep in reps)
    _conclude(10, ok, _runtime(reps), 120, f"certificates={total}/100")


def test_criterion_11_intertwined_pairs_exhaustive(verify_all_run):
    reps = _named(verify_all_run, *(f"intertwined-d{d}" for d in range(1, 5)))
    pairs = sum(rep["computed"]["pairs"] for rep in reps)
    ok = all(rep["verdict"] == "match" for rep in reps)
    _conclude(11, ok, _runtime(reps), 120, f"pairs={pairs} over d=1..4")


@pytest.mark.parametrize("n,chi", [(10, 4), (11, 5)])
def test_criterion_12_average_stability_ceiling(verify_all_run, n, chi):
    (rep,) = _named(verify_all_run, f"avg-stable-2-4-{n}")
    ok = (
        rep["verdict"] == "match"
        and rep["computed"]["absence_verified"] is True
        and rep["computed"]["chi"] == chi
    )
    _conclude(
        12,
        ok,
        rep["runtime_s"],
        300,
        f"n={n} chi={rep['computed']['chi']} absence={rep['computed']['absence_verified']}",
    )


def test_criterion_13_nonprimepower_edgeless(verify_all_run):
    (rep,) = _named(verify_all_run, "nonprimepower-6-2")
    ok = (
        rep["verdict"] == "match"
        and rep["computed"]["N"] == 70
        and rep["computed"]["needed_labels"] == 72
        and rep["computed"]["edges"] == 0
        and rep["computed"]["chi"] == 1
        and rep["computed"]["floor_formula"] == 2
        and rep["computed"]["bound_applicable"] is False
    )
    _conclude(13, ok, rep["runtime_s"], 5, "chi=1 below formula=2, zero hyperedges")


def test_criterion_14_determinism_across_workers(verify_all_run, capsys):
    t0 = time.perf_counter()
    stream = []
    for family in ("kneser", "tverberg-random", "avg-stable"):
        assert main(["verify", family, "--jobs", "8"]) == 0
        stream += map(json.loads, capsys.readouterr().out.splitlines())
    elapsed = time.perf_counter() - t0
    serial = _named(verify_all_run, *KNESER_NAMES, *TVERBERG_NAMES, *AVG_STABLE_NAMES)
    ok = list(map(_without_runtime, stream)) == list(map(_without_runtime, serial))
    _conclude(14, ok, elapsed, None, f"reports={len(stream)} identical at jobs=1,8")
