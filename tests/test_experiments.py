import random
from fractions import Fraction
from math import comb

import pytest

from kneser_tverberg import experiments, geometry
from kneser_tverberg.experiments import (
    ALL_EXPERIMENTS,
    FAMILIES,
    ExperimentReport,
    experiment_tasks,
    run_tasks,
    spherical_instance,
    verify_gale,
    verify_intertwined,
    verify_kneser,
    verify_nonprimepower,
    verify_pipeline,
    verify_roundtrip,
    verify_schrijver,
    verify_spherical,
    verify_avg_stable,
    verify_stable_faces,
    verify_tverberg_random,
)
from kneser_tverberg.geometry import moment_points
from kneser_tverberg.hypergraphs import width


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


def test_schrijver_9_3_is_vertex_critical():
    """SG(9,3): 30 vertices, chi 5, and every deletion 4-colorable."""
    rep = verify_schrijver(3, 9, check_critical=True)
    assert rep.verdict == "match"
    assert rep.computed["chi"] == 5
    assert rep.computed["vertex_critical"] is True
    assert rep.computed["deletion_chis"] == [4]


def test_an_improper_deletion_coloring_raises(monkeypatch):
    """A deletion coloring that fails its recheck cannot become a verdict."""
    monkeypatch.setattr(experiments, "_decide", lambda H, k, budget: [1] * H.n_vertices)
    with pytest.raises(ArithmeticError):
        verify_schrijver(2, 5, check_critical=True)


def test_mismatch_is_reported_not_raised():
    # wrong sphere dimension: the claim disagrees with the exact count
    K, d = spherical_instance("hexagon")
    rep = verify_spherical(K, d + 1, "hexagon-wrong-dim")
    assert rep.verdict == "mismatch"
    assert rep.claimed["chi"] != rep.computed["chi"]


def _swapped(P, A, q, u, blocks):
    """The true dependence with its parts in the wrong roles."""
    picks, w = geometry._intertwined_from_blocks(P, A, q, u, blocks)
    return picks, [-wi for wi in w]


def _clumped(P, A, q, u, blocks):
    """The true dependence with the signs of the 2nd and 3rd picks swapped.

    The part sizes stay true, but the first two picks now share a side,
    so the parts no longer alternate along the curve.
    """
    picks, w = geometry._intertwined_from_blocks(P, A, q, u, blocks)
    w = list(w)
    w[1], w[2] = -w[1], -w[2]
    return picks, w


@pytest.mark.parametrize("fake", [_swapped, _clumped])
def test_intertwined_checks_alternation_not_the_flag(monkeypatch, fake):
    # the sweep reads each minimal pair off the signs of the integer kernel's dependence
    monkeypatch.setattr(experiments, "_intertwined_from_blocks", fake)
    reports = verify_intertwined(max_points=5, max_d=2)
    assert [rep.verdict for rep in reports] == ["mismatch", "mismatch"]
    for rep in reports:
        assert rep.computed["alternating"] < rep.claimed["alternating"]
        if fake is _clumped:
            assert rep.computed["good_sizes"] == rep.claimed["good_sizes"]


def test_intertwined_checks_the_minimal_pair_sizes(monkeypatch):
    def shrunk(P, A, q, u, blocks):
        """The true dependence without its last pick: still alternating, one point short."""
        picks, w = geometry._intertwined_from_blocks(P, A, q, u, blocks)
        return picks[:-1], w[:-1]

    monkeypatch.setattr(experiments, "_intertwined_from_blocks", shrunk)
    reports = verify_intertwined(max_points=5, max_d=2)
    assert [rep.verdict for rep in reports] == ["mismatch", "mismatch"]
    for rep in reports:
        assert rep.computed["good_sizes"] < rep.claimed["good_sizes"]
        assert rep.computed["alternating"] == rep.claimed["alternating"]


def test_intertwined_matches_with_the_true_pairs():
    assert [rep.verdict for rep in verify_intertwined(max_points=5, max_d=2)] == ["match"] * 2


def test_intertwined_sweep_solves_no_lp(monkeypatch):
    """Separated pairs get a polynomial and intersecting ones a closed-form dependence."""
    from kneser_tverberg import linalg

    calls = []

    def counting(rows, rhs, _real=linalg.feasible_nonneg):
        calls.append(len(rows))
        return _real(rows, rhs)

    monkeypatch.setattr(linalg, "feasible_nonneg", counting)
    monkeypatch.setattr(geometry, "feasible_nonneg", counting)
    reports = verify_intertwined(max_points=5, max_d=3)
    assert [rep.verdict for rep in reports] == ["match"] * 3
    assert all(rep.computed["intersecting"] > 0 for rep in reports)
    assert calls == []


def test_intertwined_sweep_splits_each_pair_once(monkeypatch):
    """One split and at most one polynomial per distinct pair serve every size and dimension."""
    splits = []
    polynomials = []
    real_split = geometry._blocks_by_side

    def counting_split(u, X1, X2):
        splits.append((X1, X2))
        return real_split(u, X1, X2)

    def counting_polynomial(P, A, B, u, blocks, _real=geometry._separating_from_blocks):
        polynomials.append((A, B))
        return _real(P, A, B, u, blocks)

    monkeypatch.setattr(experiments, "_blocks_by_side", counting_split)
    monkeypatch.setattr(geometry, "_blocks_by_side", counting_split)
    monkeypatch.setattr(experiments, "_separating_from_blocks", counting_polynomial)
    monkeypatch.setattr(geometry, "_separating_from_blocks", counting_polynomial)
    n, max_d = 5, 3
    reports = verify_intertwined(max_points=n, max_d=max_d)
    assert [rep.verdict for rep in reports] == ["match"] * max_d
    # a label goes to A, to B or to neither; drop an empty part and halve for order
    assert len(splits) == len(set(splits)) == (3**n - 2 ** (n + 1) + 1) // 2
    # the counts still weigh each pair at every size n that holds it
    sizes = range(2, n + 1)
    assert reports[0].computed["pairs"] == sum((3**k - 2 ** (k + 1) + 1) // 2 for k in sizes)
    u = {lab: lab for lab in range(1, n + 1)}
    few_blocks = {(A, B) for A, B in splits if len(real_split(u, A, B)) <= max_d + 1}
    assert len(polynomials) == len(set(polynomials))
    assert set(polynomials) == few_blocks


@pytest.mark.parametrize(
    "max_points, max_d, want", [(7, 4, 98), (9, 4, 420), (5, 6, 16), (4, 1, 4), (2, 3, 0)]
)
def test_intertwined_sweep_decides_each_minimal_pair_once(monkeypatch, max_points, max_d, want):
    """The integer kernel runs once per set of picks, on the minimal pair itself."""
    calls = []

    def counting(P, A, q, u, blocks, _real=geometry._intertwined_from_blocks):
        picks = [blk[0] for blk in blocks]
        assert all(len(blk) == 1 for blk in blocks)
        assert len(picks) == P.d + 2 and A == frozenset(picks[::2])
        calls.append(tuple(picks))
        return _real(P, A, q, u, blocks)

    monkeypatch.setattr(experiments, "_intertwined_from_blocks", counting)
    reports = verify_intertwined(max_points, max_d)
    assert [rep.verdict for rep in reports] == ["match"] * max_d
    assert len(calls) == len(set(calls))
    # every (d+2)-subset of the labels is the picks of one minimal pair, for d <= max_points - 2
    top = min(max_d, max_points - 2)
    assert len(calls) == sum(comb(max_points, d + 2) for d in range(1, top + 1)) == want


def test_intertwined_reports_share_the_sweep_time():
    reports = verify_intertwined(max_points=4, max_d=3)
    assert len({rep.runtime_s for rep in reports}) == 1


@pytest.mark.parametrize("max_points, max_d", [(5, 0), (1, 2), (5, -1), (0, 3)])
def test_intertwined_sweep_refuses_an_empty_range(max_points, max_d):
    """No dimension or no pair would leave vacuous reports; the sweep raises instead."""
    with pytest.raises(ValueError, match="max_points >= 2 and max_d >= 1"):
        verify_intertwined(max_points, max_d)


def test_tverberg_random_refuses_a_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative, got -4"):
        verify_tverberg_random(2, 1, -4)


def test_roundtrip_experiment_small():
    rep = verify_roundtrip(count=25, max_ground=6, seed=11)
    assert rep.verdict == "match"
    assert rep.parameters["count"] == 25


def test_gale_and_stable_faces():
    assert verify_gale(6, 2).verdict == "match"
    assert verify_stable_faces(6, 1).verdict == "match"


def test_kriz_example():
    rep = verify_pipeline("kriz-line")
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


def test_theorem_covered_draws_make_no_scan_call(monkeypatch):
    calls = []

    def report(P, r, **kw):
        calls.append(P)
        return False, None, 0

    def never(P, r):
        calls.append(P)
        return False

    monkeypatch.setattr(geometry, "strong_general_position_report", report)
    monkeypatch.setattr(geometry, "is_strong_general_position", never)
    rep = verify_tverberg_random(2, 2, count=1, seed=0)
    assert rep.verdict == "match"
    assert verify_avg_stable(3, 4, 7).verdict == "match"
    for r, d, n in ((2, 5, 8), (3, 4, 7)):
        _, P = geometry.avg_stable_placement(r, 4, d, n, seed=0)
        # the placement is the first draw, at every r
        rng = random.Random(0)
        params = [Fraction(i) + Fraction(rng.randrange(0, 2048), 4096) for i in range(1, n + 1)]
        assert P == moment_points(params, d)
    assert calls == []


@pytest.mark.parametrize("family", ["kneser", "tverberg-random", "avg-stable", "pipeline"])
def test_no_verified_result_calls_the_scan(monkeypatch, family):
    """Every default instance matches with the strong general position scan raising."""

    def scan(*args, **kwargs):
        raise AssertionError("strong general position scan called")

    monkeypatch.setattr(geometry, "strong_general_position_report", scan)
    monkeypatch.setattr(geometry, "is_strong_general_position", scan)
    reports = run_tasks(experiment_tasks(family))
    assert len(reports) == len(FAMILIES[family].instances)
    assert [rep.verdict for rep in reports] == ["match"] * len(reports)


def test_pipeline_instances_match():
    for inst in ("kriz-line", "k5-plane"):
        rep = verify_pipeline(inst)
        assert rep.verdict == "match", inst


def test_pipeline_runs_the_width_search_once(monkeypatch):
    """kriz and kriz_ceiling come from the reported width, not a second search."""
    from kneser_tverberg import coloring, experiments

    calls = []

    def counting_width(K, r):
        calls.append(r)
        return width(K, r)

    # coloring.kriz_bound looks width up in coloring
    monkeypatch.setattr(experiments, "width", counting_width)
    monkeypatch.setattr(coloring, "width", counting_width)
    for (inst,) in experiments.PIPELINE_INSTANCES:
        before = len(calls)
        rep = verify_pipeline(inst)
        assert len(calls) == before + 1, inst
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
    reports = run_tasks(tasks)
    assert [r.name for r in reports] == [
        "kneser-2-5",
        "gale-6-2",
        "stable-faces-7-2",
        "nonprimepower-6-2",
    ]
    one_by_one = [r for task in tasks for r in task()]
    assert [r.to_json_dict(include_runtime=False) for r in reports] == [
        r.to_json_dict(include_runtime=False) for r in one_by_one
    ]


def test_every_default_instance_is_addressable():
    """Each default instance, given as strings, schedules exactly one task.

    Covers the name-typed families (spherical, pipeline), schrijver's
    optional third parameter and the parameterless families (constraint,
    intertwined). Nothing is run.
    """
    assert ALL_EXPERIMENTS == tuple(FAMILIES)
    assert "kriz-example" not in ALL_EXPERIMENTS and "cyclic-shift" not in ALL_EXPERIMENTS
    for name, family in FAMILIES.items():
        assert len(experiment_tasks(name)) == len(family.instances), name
        for inst in family.instances:
            tasks = experiment_tasks(name, params=[str(x) for x in inst])
            assert len(tasks) == 1, (name, inst)
