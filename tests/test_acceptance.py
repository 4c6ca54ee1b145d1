"""Acceptance battery: one test per numbered criterion.

Each test recomputes its criterion from scratch, prints a single
PASS/FAIL line with the measured wall time, and enforces the stated
budget. All comparisons are exact; there are no tolerances anywhere.
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
    verify_avg_stable,
    verify_constraint,
    verify_dismantle,
    verify_gale,
    verify_intertwined,
    verify_kneser,
    verify_nonprimepower,
    verify_pipeline,
    verify_roundtrip,
    verify_schrijver,
    verify_stable_faces,
    verify_tverberg_random,
)


def _conclude(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" / budget {budget:.0f}s" if budget else "")
    suffix = f"  {detail}" if detail else ""
    print(f"criterion {num:02d}: {status} ({timing}){suffix}")
    assert ok, f"criterion {num}: {detail or 'value check failed'}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s exceeded {budget}s"


@pytest.fixture(scope="module")
def kneser_reports():
    t0 = time.perf_counter()
    reps = [verify_kneser(k, n) for k, n in KNESER_INSTANCES]
    return reps, time.perf_counter() - t0


@pytest.fixture(scope="module")
def schrijver_reports():
    t0 = time.perf_counter()
    reps = [verify_schrijver(k, n, crit) for k, n, crit in SCHRIJVER_INSTANCES]
    return reps, time.perf_counter() - t0


def test_criterion_01_kneser_chromatic_numbers(kneser_reports):
    reps, elapsed = kneser_reports
    chis = [rep.computed["chi"] for rep in reps]
    ok = chis == [3, 4, 5, 3] and all(rep.verdict == "match" for rep in reps)
    _conclude(1, ok, elapsed, 10, f"chi={chis}")


def test_criterion_02_schrijver_with_criticality(schrijver_reports):
    reps, elapsed = schrijver_reports
    chis = [rep.computed["chi"] for rep in reps]
    critical = reps[0].computed.get("vertex_critical")
    ok = (
        chis == [3, 4, 3]
        and critical is True
        and reps[0].computed["vertices"] == 5
        and all(rep.verdict == "match" for rep in reps)
    )
    _conclude(2, ok, elapsed, 30, f"chi={chis} critical={critical}")


def test_criterion_03_forbidden_family_roundtrip():
    rep = verify_roundtrip(count=200, max_ground=8, seed=0)
    ok = rep.verdict == "match" and rep.computed["agreements"] == 200
    _conclude(3, ok, rep.runtime_s, 10, f"agreements={rep.computed['agreements']}/200")


def test_criterion_04_dismantling_preserves_chi():
    rep = verify_dismantle(count=100, max_ground=7, seed=0)
    ok = rep.verdict == "match" and rep.computed["agreements"] == 100
    _conclude(4, ok, rep.runtime_s, 60, f"agreements={rep.computed['agreements']}/100")


def test_criterion_05_constraint_property_exhaustive():
    t0 = time.perf_counter()
    reps = verify_constraint(64)
    elapsed = time.perf_counter() - t0
    ok = len(reps) == 7 and all(
        rep.verdict == "match" and rep.computed["property_holds"] for rep in reps
    )
    _conclude(5, ok, elapsed, 60, f"instances={len(reps)}")


def test_criterion_06_width_comparison_example():
    rep = verify_pipeline("kriz-line")
    got = {k: rep.computed[k] for k in ("width", "kriz", "floor_formula", "chi")}
    ok = rep.verdict == "match" and got == {
        "width": 3,
        "kriz": "3/2",
        "floor_formula": 1,
        "chi": 2,
    }
    _conclude(6, ok, rep.runtime_s, 5, str(got))


def test_criterion_07_cyclic_shift_tight_floor():
    rep = verify_pipeline("cyclic-shift-cone")
    got = {
        k: rep.computed[k]
        for k in ("floor_formula", "chi", "kriz_ceiling", "greedy_colors", "greedy_proper")
    }
    ok = rep.verdict == "match" and got == {
        "floor_formula": 4,
        "chi": 4,
        "kriz_ceiling": 2,
        "greedy_colors": 4,
        "greedy_proper": True,
    }
    _conclude(7, ok, rep.runtime_s, 5, str(got))


def test_criterion_08_gale_facets_vs_oracle():
    t0 = time.perf_counter()
    reps = [verify_gale(n, d) for n, d in GALE_INSTANCES]
    elapsed = time.perf_counter() - t0
    ok = len(reps) == 6 and all(rep.verdict == "match" for rep in reps)
    _conclude(8, ok, elapsed, 60, f"instances={[(n, d) for n, d in GALE_INSTANCES]}")


def test_criterion_09_cyclic_missing_faces_are_stable():
    t0 = time.perf_counter()
    reps = [verify_stable_faces(n, d) for n, d in STABLE_FACE_INSTANCES]
    elapsed = time.perf_counter() - t0
    ok = len(reps) == 4 and all(rep.verdict == "match" for rep in reps)
    _conclude(9, ok, elapsed, 30, f"instances={[(n, d) for n, d in STABLE_FACE_INSTANCES]}")


def test_criterion_10_random_partition_certificates():
    t0 = time.perf_counter()
    reps = [verify_tverberg_random(r, d) for r, d in TVERBERG_INSTANCES]
    elapsed = time.perf_counter() - t0
    total = sum(rep.computed["certificates"] for rep in reps)
    ok = total == 100 and all(rep.verdict == "match" for rep in reps)
    _conclude(10, ok, elapsed, 120, f"certificates={total}/100")


def test_criterion_11_intertwined_pairs_exhaustive():
    t0 = time.perf_counter()
    reps = verify_intertwined()
    elapsed = time.perf_counter() - t0
    pairs = sum(rep.computed["pairs"] for rep in reps)
    ok = len(reps) == 4 and all(rep.verdict == "match" for rep in reps)
    _conclude(11, ok, elapsed, 120, f"pairs={pairs} over d=1..4")


@pytest.mark.parametrize("n,chi", [(10, 4), (11, 5)])
def test_criterion_12_average_stability_ceiling(n, chi):
    rep = verify_avg_stable(2, 4, n)
    ok = (
        rep.verdict == "match"
        and rep.computed["absence_verified"] is True
        and rep.computed["chi"] == chi
    )
    _conclude(
        12,
        ok,
        rep.runtime_s,
        300,
        f"n={n} chi={rep.computed['chi']} absence={rep.computed['absence_verified']}",
    )


def test_criterion_13_nonprimepower_edgeless():
    rep = verify_nonprimepower(6, 2)
    ok = (
        rep.verdict == "match"
        and rep.computed["N"] == 70
        and rep.computed["needed_labels"] == 72
        and rep.computed["edges"] == 0
        and rep.computed["chi"] == 1
        and rep.computed["floor_formula"] == 2
        and rep.computed["bound_applicable"] is False
    )
    _conclude(13, ok, rep.runtime_s, 5, "chi=1 below formula=2, zero hyperedges")


def test_criterion_14_determinism_across_workers(capsys):
    t0 = time.perf_counter()
    streams = []
    for jobs in ("1", "8"):
        stream = []
        for family in ("kneser", "tverberg-random", "avg-stable"):
            assert main(["verify", family, "--jobs", jobs]) == 0
            for line in capsys.readouterr().out.splitlines():
                rep = json.loads(line)
                del rep["runtime_s"]
                stream.append(rep)
        streams.append(stream)
    elapsed = time.perf_counter() - t0
    ok = streams[0] == streams[1] and len(streams[0]) == len(
        KNESER_INSTANCES + TVERBERG_INSTANCES + AVG_STABLE_INSTANCES
    )
    _conclude(14, ok, elapsed, None, f"reports={len(streams[0])} identical at jobs=1,8")
