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


def test_intertwined_pair_line():
    P = moment_points([1, 2, 3], 1)
    pair = intertwined_pair(P, frozenset({1, 3}), frozenset({2}))
    assert pair.alternating
    assert {len(pair.part1), len(pair.part2)} == {1, 2}
    assert pair.witness.point == (2,)


def test_intertwined_pair_shrinks_to_minimal():
    # d=2: minimal intertwined pairs have sizes 2 and 2
    P = moment_points(range(1, 8), 2)
    X1 = frozenset({1, 3, 5, 7})
    X2 = frozenset({2, 4, 6})
    pair = intertwined_pair(P, X1, X2)
    assert pair.alternating
    assert len(pair.part1) == 2 and len(pair.part2) == 2
    assert pair.part1 <= X1 and pair.part2 <= X2


def test_intertwined_pair_alternation_order():
    P = moment_points(range(1, 6), 2)
    pair = intertwined_pair(P, frozenset({1, 4}), frozenset({2, 3, 5}))
    merged = sorted(pair.part1 | pair.part2)
    sides = [lab in pair.part1 for lab in merged]
    assert all(a != b for a, b in zip(sides, sides[1:]))


def test_intertwined_pair_requires_intersection():
    P = moment_points([1, 2, 3, 4], 2)
    with pytest.raises(ValueError):
        intertwined_pair(P, frozenset({1, 2}), frozenset({3, 4}))
    with pytest.raises(ValueError):
        intertwined_pair(P, frozenset({1, 2}), frozenset({2, 3}))


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


def test_avg_stable_placement_deterministic():
    a = avg_stable_placement(2, 4, 5, 8, seed=0)
    b = avg_stable_placement(2, 4, 5, 8, seed=0)
    assert a[0] == b[0] and a[1] == b[1]


def test_avg_stable_placement_validation():
    with pytest.raises(ValueError):
        avg_stable_placement(2, 2, 5, 10)  # stability parameter drops below 1
    with pytest.raises(ValueError):
        avg_stable_placement(2, 4, 2, 10)  # dimension too low for the hypotheses
