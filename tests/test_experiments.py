from fractions import Fraction

import pytest

from kneser_tverberg.experiments import (
    ALL_EXPERIMENTS,
    ExperimentReport,
    experiment_tasks,
    run_tasks,
    spherical_instance,
    verify_gale,
    verify_kneser,
    verify_kriz_example,
    verify_nonprimepower,
    verify_pipeline,
    verify_roundtrip,
    verify_spherical,
    verify_stable_faces,
    verify_tverberg_random,
)
from kneser_tverberg.geometry import DEFAULT_SGP_ATTEMPTS, PointConfiguration


def test_report_json_shape():
    rep = ExperimentReport(
        name="demo",
        parameters={"n": 5},
        claimed={"chi": 3},
        computed={"chi": 3, "nodes": 17},
        verdict="match",
        runtime_s=0.12345,
        provenance="hand computation",
    )
    data = rep.to_json_dict()
    assert list(data) == [
        "experiment",
        "parameters",
        "claimed",
        "provenance",
        "computed",
        "verdict",
        "runtime_s",
    ]
    assert data["runtime_s"] == 0.123
    assert "notes" not in data
    assert "runtime_s" not in rep.to_json_dict(include_runtime=False)


def test_report_notes_included_when_present():
    rep = ExperimentReport("demo", {}, {}, {}, "match", 0.0, notes=("capped",))
    assert rep.to_json_dict()["notes"] == ["capped"]


def test_kneser_experiment_matches():
    rep = verify_kneser(2, 5)
    assert rep.verdict == "match"
    assert rep.claimed["chi"] == 3
    assert rep.computed["chi"] == 3
    assert rep.provenance


def test_mismatch_is_reported_not_raised():
    # wrong sphere dimension: the claim disagrees with the exact count
    K, d = spherical_instance("hexagon")
    rep = verify_spherical(K, d + 1, "hexagon-wrong-dim")
    assert rep.verdict == "mismatch"
    assert rep.claimed["chi"] != rep.computed["chi"]


def test_roundtrip_experiment_small():
    rep = verify_roundtrip(count=25, max_ground=6, seed=11)
    assert rep.verdict == "match"
    assert rep.parameters["count"] == 25


def test_gale_and_stable_faces():
    assert verify_gale(6, 2).verdict == "match"
    assert verify_stable_faces(6, 1).verdict == "match"


def test_kriz_example():
    rep = verify_kriz_example()
    assert rep.verdict == "match"
    assert rep.claimed["chi"] == 2


def test_nonprimepower_counts():
    rep = verify_nonprimepower()
    assert rep.verdict == "match"
    assert rep.computed["edges"] == 0
    assert rep.computed["chi"] == 1
    assert rep.computed["needed_labels"] == rep.computed["available_labels"] + 1


def test_tverberg_random_small():
    rep = verify_tverberg_random(2, 1, count=5, seed=2)
    assert rep.verdict == "match"
    assert rep.computed["certificates"] == 5


def test_random_sgp_resampling_is_bounded(monkeypatch):
    import random

    from kneser_tverberg import experiments

    draws = []

    def never(P, r):
        draws.append(P)
        return False

    monkeypatch.setattr(experiments, "is_strong_general_position", never)
    with pytest.raises(ValueError, match=f"in {DEFAULT_SGP_ATTEMPTS} attempts"):
        experiments._random_sgp_config(random.Random(0), 2, 2, 4)
    assert len(draws) == DEFAULT_SGP_ATTEMPTS
    with pytest.raises(ValueError):
        verify_tverberg_random(2, 1, count=1)
    # the draws themselves are unchanged: the first one is what an
    # unbounded loop would have tested first
    rng = random.Random(0)
    first = {
        lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(2))
        for lab in range(1, 5)
    }
    assert draws[0] == PointConfiguration(2, first)


def test_pipeline_instances_match():
    for inst in ("kriz-line", "k5-plane"):
        rep = verify_pipeline(inst)
        assert rep.verdict == "match", inst


def test_experiment_tasks_default_instances():
    tasks = experiment_tasks("kneser")
    assert len(tasks) == 4
    reports = run_tasks(tasks[:1])
    assert len(reports) == 1 and reports[0].verdict == "match"


def test_experiment_tasks_single_instance():
    (task,) = experiment_tasks("gale", params=["6", "2"])
    (rep,) = task()
    assert rep.verdict == "match"
    assert rep.parameters == {"n": 6, "d": 2}


def test_experiment_tasks_rejects_bad_params():
    with pytest.raises(ValueError):
        experiment_tasks("kneser", params=["2", "5", "9"])
    with pytest.raises(ValueError):
        experiment_tasks("kneser", params=["a", "b"])
    with pytest.raises(ValueError):
        experiment_tasks("kriz-example", params=["1"])
    with pytest.raises(ValueError):
        experiment_tasks("pipeline", params=["no-such-instance"])
    with pytest.raises(ValueError):
        experiment_tasks("no-such-family")


def test_all_experiments_have_tasks():
    for name in ALL_EXPERIMENTS:
        assert experiment_tasks(name), name


def test_run_tasks_order_is_worker_independent():
    tasks = (
        experiment_tasks("kneser", params=["2", "5"])
        + experiment_tasks("gale", params=["6", "2"])
        + experiment_tasks("stable-faces", params=["7", "2"])
        + experiment_tasks("nonprimepower", params=["6", "2"])
    )
    solo = [r.to_json_dict(include_runtime=False) for r in run_tasks(tasks, jobs=1)]
    pooled = [r.to_json_dict(include_runtime=False) for r in run_tasks(tasks, jobs=4)]
    assert solo == pooled
