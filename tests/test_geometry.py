import random
from fractions import Fraction

import pytest

from kneser_tverberg.geometry import (
    AbsenceReport,
    PointConfiguration,
    SearchSpaceError,
    TverbergCertificate,
    avg_stable_placement,
    conv_intersect,
    cyclic_missing_faces,
    gale_facets,
    hull_facets_oracle,
    intertwined_pair,
    is_strong_general_position,
    moment_points,
    separating_polynomial,
    strong_general_position_report,
    tverberg_search,
)
from kneser_tverberg.hypergraphs import is_t_stable_on_average, s_stable_subsets
from kneser_tverberg.simplicial import SimplicialComplex


def test_point_configuration_basics():
    P = PointConfiguration(2, {1: (0, 0), 2: ("1/2", 1), 3: (2, 0)})
    assert len(P) == 3
    assert P.point(2) == (Fraction(1, 2), Fraction(1))
    assert P.labels == (1, 2, 3)
    assert P == PointConfiguration(2, [(1, (0, 0)), (2, (Fraction(1, 2), 1)), (3, (2, 0))])


def test_point_configuration_keeps_fraction_coordinates():
    half, three = Fraction(1, 2), Fraction(3)
    P = PointConfiguration(2, {2: ("2/3", 1.5), 1: (half, three)})
    assert P.point(1)[0] is half and P.point(1)[1] is three
    assert all(type(x) is Fraction for lab in P.labels for x in P.point(lab))
    assert P.point(2) == (Fraction(2, 3), Fraction(3, 2))
    Q = PointConfiguration(2, {1: (1 / 2, 3), 2: (Fraction(2, 3), "3/2")})
    assert P == Q and hash(P) == hash(Q)
    assert hash(P) == hash((2, (1, 2), ((Fraction(1, 2), Fraction(3)), (Fraction(2, 3), Fraction(3, 2)))))
    assert P.to_json_dict() == Q.to_json_dict() == {
        "d": 2,
        "points": [{"label": 1, "coords": ["1/2", "3"]}, {"label": 2, "coords": ["2/3", "3/2"]}],
    }


def test_point_configuration_json_roundtrip():
    P = moment_points(["1/3", 1, "3/2", 4], 3)
    assert PointConfiguration.from_json_dict(P.to_json_dict()) == P


def test_moment_points_strictly_increasing():
    with pytest.raises(ValueError):
        moment_points([1, 1, 2], 2)
    with pytest.raises(ValueError):
        moment_points([2, 1], 2)
    P = moment_points([1, 2, 4], 3)
    assert P.point(3) == (4, 16, 64)


def test_gale_hexagon():
    facets = set(gale_facets(6, 2))
    rim = {frozenset({i, i + 1}) for i in range(1, 6)} | {frozenset({1, 6})}
    assert facets == rim


def test_gale_small_validation():
    with pytest.raises(ValueError):
        gale_facets(4, 4)  # need n >= d+1 points spanning
    with pytest.raises(ValueError):
        gale_facets(6, 0)


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (6, 4), (7, 4), (8, 4), (8, 6)])
def test_gale_matches_hull_oracle(n, d):
    assert set(gale_facets(n, d)) == set(
        hull_facets_oracle(moment_points(range(1, n + 1), d))
    )


def test_hull_oracle_square():
    P = PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)})
    facets = set(hull_facets_oracle(P))
    assert facets == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 4}),
        frozenset({1, 4}),
    }


def test_hull_oracle_ignores_interior_point():
    P = PointConfiguration(2, {1: (0, 0), 2: (4, 0), 3: (0, 4), 4: (1, 1)})
    facets = set(hull_facets_oracle(P))
    assert frozenset({1, 2}) in facets
    assert all(4 not in f for f in facets)


@pytest.mark.parametrize("n,d", [(6, 1), (7, 2), (8, 2), (9, 3)])
def test_cyclic_missing_faces_are_stable_sets(n, d):
    missing = set(cyclic_missing_faces(n, 2 * d))
    assert missing == set(s_stable_subsets(d + 1, n, 2))
    assert all(len(f) == d + 1 for f in missing)


def test_cyclic_missing_faces_validation():
    with pytest.raises(ValueError):
        cyclic_missing_faces(7, 3)  # odd dimension


def test_conv_intersect_crossing_segments():
    w = conv_intersect([[(0, 0), (2, 2)], [(0, 2), (2, 0)]])
    assert w is not None
    assert w.point == (1, 1)
    assert sum(w.weights[0]) == 1 and sum(w.weights[1]) == 1


def test_conv_intersect_disjoint_segments():
    assert conv_intersect([[(0, 0), (1, 0)], [(2, 0), (3, 0)]]) is None


def test_conv_intersect_point_in_triangle():
    w = conv_intersect([[(1, 1)], [(0, 0), (4, 0), (0, 4)]])
    assert w is not None and w.point == (1, 1)


def test_conv_intersect_three_parts():
    # three segments through the origin
    w = conv_intersect(
        [[(-1, 0), (1, 0)], [(0, -1), (0, 1)], [(-1, -1), (1, 1)]]
    )
    assert w is not None
    assert w.point == (0, 0)


def test_conv_intersect_near_miss():
    # bounding intervals overlap in both coordinates but the hulls stay apart
    assert conv_intersect([[(0, 0), (2, 2)], [(3, 1), (2, 3)]]) is None


def test_conv_intersect_validation():
    with pytest.raises(ValueError):
        conv_intersect([[(0, 0)]])
    with pytest.raises(ValueError):
        conv_intersect([[(0, 0)], []])
    with pytest.raises(ValueError):
        conv_intersect([[(0, 0)], [(1,)]])


def test_tverberg_collinear_three_parts():
    P = moment_points([1, 2, 3, 4, 5], 1)
    out = tverberg_search(P, 3)
    assert isinstance(out, TverbergCertificate)
    assert [sorted(p) for p in out.parts] == [[1, 4], [2, 5], [3]]
    assert out.verify(P)


def test_tverberg_radon_square():
    P = PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)})
    out = tverberg_search(P, 2)
    assert isinstance(out, TverbergCertificate)
    assert {tuple(sorted(p)) for p in out.parts} == {(1, 3), (2, 4)}
    assert out.verify(P)


def test_tverberg_absence_triangle():
    P = PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (0, 1)})
    out = tverberg_search(P, 2)
    assert isinstance(out, AbsenceReport)
    assert out.r == 2 and not out.restricted
    assert out.tuples_examined > 0
    assert out.to_json_dict()["found"] is False


def test_tverberg_restricted_search():
    # the hexagon cone admits no two disjoint faces with crossing hulls
    cone = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]).cone()
    P = PointConfiguration(
        2, {1: (2, 0), 2: (1, 2), 3: (-1, 2), 4: (-2, 0), 5: (-1, -2), 6: (1, -2), 7: (0, 0)}
    )
    out = tverberg_search(P, 2, restrict_to=cone)
    assert isinstance(out, AbsenceReport)
    assert out.restricted
    # without the restriction a certificate appears immediately
    free = tverberg_search(P, 2)
    assert isinstance(free, TverbergCertificate)
    assert free.verify(P)


def test_tverberg_certificate_is_deterministic():
    P = moment_points(range(1, 8), 2)
    a = tverberg_search(P, 3)
    b = tverberg_search(P, 3)
    assert isinstance(a, TverbergCertificate)
    assert a == b


def test_tverberg_cap():
    P = moment_points(range(1, 13), 2)
    with pytest.raises(SearchSpaceError) as info:
        tverberg_search(P, 3, cap=10)
    assert info.value.estimate > info.value.cap == 10


def test_certificate_json_roundtrip():
    P = moment_points([1, 2, 3, 4], 1)
    out = tverberg_search(P, 2)
    assert isinstance(out, TverbergCertificate)
    again = TverbergCertificate.from_json_dict(out.to_json_dict())
    assert again == out and again.verify(P)


def test_certificate_verify_rejects_tampering():
    P = moment_points([1, 2, 3, 4], 1)
    out = tverberg_search(P, 2)
    assert isinstance(out, TverbergCertificate)
    moved = TverbergCertificate(out.parts, (out.point[0] + 1,), out.weights)
    assert not moved.verify(P)
    overlapping = TverbergCertificate(
        (out.parts[0], out.parts[0]), out.point, (out.weights[0], out.weights[0])
    )
    assert not overlapping.verify(P)


def _alternates(pair):
    """Whether the sorted labels, the parameter order of moment_points, switch sides at every step."""
    merged = sorted(pair.part1 | pair.part2)
    sides = [lab in pair.part1 for lab in merged]
    return all(a != b for a, b in zip(sides, sides[1:]))


def test_intertwined_pair_line():
    P = moment_points([1, 2, 3], 1)
    pair = intertwined_pair(P, frozenset({1, 3}), frozenset({2}))
    assert _alternates(pair)
    assert {len(pair.part1), len(pair.part2)} == {1, 2}
    assert pair.witness.point == (2,)


def test_intertwined_pair_shrinks_to_minimal():
    # d=2: minimal intertwined pairs have sizes 2 and 2
    P = moment_points(range(1, 8), 2)
    X1 = frozenset({1, 3, 5, 7})
    X2 = frozenset({2, 4, 6})
    pair = intertwined_pair(P, X1, X2)
    assert _alternates(pair)
    assert len(pair.part1) == 2 and len(pair.part2) == 2
    assert pair.part1 <= X1 and pair.part2 <= X2


def test_intertwined_pair_alternation_order():
    P = moment_points(range(1, 6), 2)
    pair = intertwined_pair(P, frozenset({1, 4}), frozenset({2, 3, 5}))
    assert _alternates(pair)


def test_intertwined_pair_requires_intersection():
    P = moment_points([1, 2, 3, 4], 2)
    with pytest.raises(ValueError):
        intertwined_pair(P, frozenset({1, 2}), frozenset({3, 4}))
    with pytest.raises(ValueError):
        intertwined_pair(P, frozenset({1, 2}), frozenset({2, 3}))


def test_moment_routines_refuse_unknown_labels_alike():
    P = moment_points([1, 2, 3, 4], 2)
    for fn in (intertwined_pair, separating_polynomial):
        with pytest.raises(ValueError, match=r"^labels \[9\] not in the configuration$"):
            fn(P, {1, 9}, {2})


def test_intertwined_pair_solves_no_lp_on_an_alternating_pair(monkeypatch):
    """The divided-difference dependence is the witness; no hull test and no simplex."""
    from kneser_tverberg import geometry, linalg

    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("an LP was asked for")

    for module, name in (
        (geometry, "conv_intersect"), (geometry, "feasible_nonneg"), (linalg, "feasible_nonneg")
    ):
        monkeypatch.setattr(module, name, refuse)
    P = moment_points(range(1, 7), 2)
    pair = intertwined_pair(P, frozenset({1, 3, 6}), frozenset({2, 4}))
    monkeypatch.undo()
    assert calls == []
    assert (pair.part1, pair.part2) == (frozenset({1, 3}), frozenset({2, 4}))
    # lambda_i = 1/prod_(j != i)(t_i - t_j) at t = 1..4 is -1/6, 1/2, -1/2, 1/6
    assert pair.witness.weights == ((Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 4)))
    assert pair.witness.point == (Fraction(5, 2), Fraction(7))
    assert pair.witness == conv_intersect([P.subset(pair.part1), P.subset(pair.part2)])


def test_intertwined_pair_refuses_separated_parts_without_an_lp(monkeypatch):
    """At most d+1 alternation blocks already prove the hulls disjoint."""
    from kneser_tverberg import geometry

    calls = []
    monkeypatch.setattr(geometry, "conv_intersect", lambda parts: calls.append(parts))
    P = moment_points(range(1, 7), 2)
    with pytest.raises(ValueError, match="do not intersect"):
        intertwined_pair(P, frozenset({1, 2, 5}), frozenset({3, 4}))  # three blocks
    assert calls == []


def test_intertwined_pair_fails_closed_on_a_corrupted_parameter_table(monkeypatch):
    """The substitution check reads P's own coordinates, not only the table it was built from."""
    P = moment_points(range(1, 5), 2)
    for table in (
        (2, {1: 1, 2: 2, 3: 3, 4: 4}),  # wrong q: the table says t = u/2
        (1, {1: 1, 2: 2, 3: 3, 4: 5}),  # one wrong u, order kept
        (1, {1: 0, 2: 1, 3: 2, 4: 3}),  # every u shifted: the same dependence, wrong point
    ):
        monkeypatch.setattr(P, "_curve", table)
        with pytest.raises(ArithmeticError, match="parameter table"):
            intertwined_pair(P, frozenset({1, 3}), frozenset({2, 4}))


def test_moment_curve_checks_reject_repeated_parameters():
    for P in (
        PointConfiguration(1, {1: (0,), 2: (0,)}),
        PointConfiguration(2, {1: (1, 1), 2: (2, 4), 3: (1, 1)}),
    ):
        with pytest.raises(ValueError, match="distinct parameters"):
            separating_polynomial(P, frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="distinct parameters"):
            intertwined_pair(P, frozenset({1}), frozenset({2}))


def test_moment_curve_checks_reject_off_curve_points():
    P = PointConfiguration(2, {1: (1, 1), 2: (2, 4), 3: (3, 9), 4: (4, 15)})
    for _ in range(2):  # the answer is kept per configuration, and must stay a refusal
        with pytest.raises(ValueError, match="moment curve"):
            intertwined_pair(P, frozenset({1, 3}), frozenset({2, 4}))
        with pytest.raises(ValueError, match="moment curve"):
            separating_polynomial(P, frozenset({1, 2}), frozenset({3, 4}))
    on = moment_points([1, 2, 3, 4], 2)
    assert separating_polynomial(on, frozenset({1, 2}), frozenset({3, 4})) is not None
    assert separating_polynomial(on, frozenset({1, 2}), frozenset({3, 4})) is not None


def test_separating_polynomial_returns_verified_certificate():
    P = moment_points(range(1, 7), 3)
    # two interleavings too short to force an intersection
    coeffs = separating_polynomial(P, frozenset({1, 2}), frozenset({3, 4}))
    assert coeffs is not None
    assert len(coeffs) <= 4  # degree at most d

    def val(t):
        return sum(c * t**i for i, c in enumerate(coeffs))

    assert all(val(t) > 0 for t in (1, 2))
    assert all(val(t) < 0 for t in (3, 4))


def test_separating_polynomial_none_iff_intersecting():
    P = moment_points(range(1, 7), 2)
    labels = list(range(1, 7))
    for amask in range(1, 1 << 6):
        A = frozenset(labels[i] for i in range(6) if amask >> i & 1)
        rest = [x for x in labels if x not in A]
        for bmask in range(1, 1 << len(rest)):
            B = frozenset(rest[i] for i in range(len(rest)) if bmask >> i & 1)
            if min(A) > min(B):
                continue
            sep = separating_polynomial(P, A, B)
            meet = conv_intersect([P.subset(A), P.subset(B)]) is not None
            assert (sep is None) == meet


def test_sgp_frozen_counterexample():
    P = moment_points(range(1, 7), 4)
    holds, violating, checked = strong_general_position_report(P, 2)
    assert not holds
    assert violating == (frozenset({1, 6}), frozenset({2, 3, 4, 5}))
    assert checked == 61
    assert not is_strong_general_position(P, 2)


def test_sgp_two_parts_pass_on_the_certificate_alone():
    """The avg-stable-2-4-10 draw, once passed by a two-part certificate, passes after every pair.

    The tuple search now decides it, with the count the certificate
    reported; a failing input still stops at its violation.
    """
    _, P = avg_stable_placement(2, 4, 5, 10, seed=0)
    assert strong_general_position_report(P, 2) == (True, None, 21861)
    Q = moment_points(range(1, 7), 4)
    assert strong_general_position_report(Q, 2) == (
        False,
        (frozenset({1, 6}), frozenset({2, 3, 4, 5})),
        61,
    )


def test_sgp_three_parts_pass_on_the_certificate_alone():
    """The avg-stable-3-4-7 draw, once passed by the certificate, passes three parts after its pairs.

    Below 2(d+1) points no three parts fit under the codimension bound,
    so the search checks only pairs; a failing input still stops at its
    violation.
    """
    _, P = avg_stable_placement(3, 4, 4, 7, seed=0)
    assert strong_general_position_report(P, 3) == (True, None, 588)
    Q = moment_points(range(1, 7), 4)
    assert strong_general_position_report(Q, 3) == (
        False,
        (frozenset({1, 6}), frozenset({2, 3, 4, 5})),
        61,
    )


def test_three_parts_below_the_pair_bound_never_meet():
    """Fewer than 3(d+2)/2 points, every d+1 of them independent: no three disjoint faces meet.

    So the codim-pruned avg-stable-3-4-7 absence (no tuple examined) is
    the unpruned one. Six points in the plane, 3(d+2)/2 exactly, show the
    bound is sharp: they pass the two-part scan, yet three chords meet
    at the origin, and the three-part scan reports them. They are off
    the moment curve, so the search ignores codim_pruning there and
    finds the chords anyway.
    """
    for seed in range(5):
        K, P = avg_stable_placement(3, 4, 4, 7, seed=seed)
        full = tverberg_search(P, 3, restrict_to=K)
        assert isinstance(full, AbsenceReport) and full.tuples_examined == 1645
        pruned = tverberg_search(P, 3, restrict_to=K, codim_pruning=True)
        assert isinstance(pruned, AbsenceReport) and pruned.tuples_examined == 0
    rng = random.Random(2)
    for d, n in ((1, 3), (2, 5), (3, 6)):
        P = moment_points(sorted(rng.sample(range(1, 100), n)), d)
        assert isinstance(tverberg_search(P, 3), AbsenceReport)
    chords = PointConfiguration(
        2, {1: (-1, -3), 2: (3, 9), 3: (6, 8), 4: (-9, -12), 5: (-12, -12), 6: (16, 16)}
    )
    assert strong_general_position_report(chords, 2) == (True, None, 235)
    meet = tverberg_search(chords, 3)
    assert meet.parts == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))
    assert meet.point == (0, 0)
    assert tverberg_search(chords, 3, codim_pruning=True) == meet
    assert strong_general_position_report(chords, 3) == (False, meet.parts, 182)


def test_searches_leave_no_reference_cycles():
    """The nested DFS helpers must not keep their working sets alive.

    A nested function that calls itself forms a function <-> cell cycle,
    which holds everything it closes over until a full gc pass.
    """
    import gc

    P = moment_points(range(1, 7), 4)
    gc.collect()
    gc.disable()
    try:
        strong_general_position_report(P, 2)
        tverberg_search(P, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sgp_generic_rational_points():
    P = PointConfiguration(
        2,
        {
            1: (0, 0),
            2: (1, 0),
            3: (0, 1),
            4: (Fraction(1, 3), Fraction(1, 7)),
            5: (Fraction(5, 2), Fraction(9, 11)),
        },
    )
    assert is_strong_general_position(P, 2)


def test_sgp_detects_collinear_triple():
    P = PointConfiguration(2, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (5, 0)})
    holds, violating, _ = strong_general_position_report(P, 2)
    assert not holds


def test_sgp_scan_leaves_sums_beyond_d_plus_one_unchecked():
    """The scan's convention, pinned: three collinear points in R^3 pass for two parts.

    {1, 3} and {2} meet, so the size floor would hide the only partition:
    passing the scan alone does not justify codim_pruning. The search
    does not take it on the scan's word: with 3 points, off the moment
    curve, no case of tverberg_search covers the prune, so it walks
    every pair and finds the partition.
    """
    P = PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2)})
    assert strong_general_position_report(P, 2) == (True, None, 0)
    assert conv_intersect([P.subset({1, 3}), P.subset({2})]) is not None
    full = tverberg_search(P, 2)
    assert isinstance(full, TverbergCertificate)
    assert full.parts == (frozenset({1, 3}), frozenset({2}))
    assert tverberg_search(P, 2, codim_pruning=True) == full


def test_avg_stable_placement_properties():
    from itertools import combinations

    K, P = avg_stable_placement(2, 4, 5, 10, seed=0)
    assert P.d == 5
    assert len(P) == 10
    assert is_strong_general_position(P, 2)
    # the complex forbids exactly the stable-on-average 4-subsets
    t = Fraction(2 * (4 - 3), 2 * (4 - 1)) + 1
    expected = {
        frozenset(c)
        for c in combinations(range(1, 11), 4)
        if is_t_stable_on_average(c, 10, t)
    }
    assert set(K.minimal_nonfaces()) == expected


def test_avg_stable_placement_with_nothing_to_forbid():
    # n < k: no k-subset to forbid, so the complex is the full simplex on 1..n
    K, P = avg_stable_placement(2, 4, 5, 3, seed=0)
    assert K == SimplicialComplex(3, [(1, 2, 3)])
    assert len(P) == 3


def test_avg_stable_placement_deterministic():
    a = avg_stable_placement(2, 4, 5, 8, seed=0)
    b = avg_stable_placement(2, 4, 5, 8, seed=0)
    assert a[0] == b[0] and a[1] == b[1]


def test_avg_stable_placement_validation():
    with pytest.raises(ValueError):
        avg_stable_placement(2, 2, 5, 10)  # stability parameter drops below 1
    with pytest.raises(ValueError):
        avg_stable_placement(2, 4, 2, 10)  # dimension too low for the hypotheses
