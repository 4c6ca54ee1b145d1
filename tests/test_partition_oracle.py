"""tverberg_partition's constructions against the search and the hull LP.

Radon's null space (two parts) and the pairs around the median (the
line) are checked three ways: the certificate verifies, conv_intersect
finds the parts' hulls meeting on its own, and the parts are laid out as
the search lays them out. Where neither construction applies the result
must be the search's own certificate. Mutated certificates must fail.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from kneser_tverberg import geometry
from kneser_tverberg.experiments import _random_draws, verify_tverberg_random
from kneser_tverberg.geometry import (
    AbsenceReport,
    PointConfiguration,
    TverbergCertificate,
    conv_intersect,
    tverberg_partition,
    tverberg_search,
)
from kneser_tverberg.linalg import nullspace

SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (2, 6), (4, 1), (5, 1)]


def check(P, r):
    """The certificate tverberg_partition returns, after every check that does not depend on how it was made."""
    cert = tverberg_partition(P, r)
    assert isinstance(cert, TverbergCertificate) and cert.verify(P)
    assert len(cert.parts) == r
    assert all(cert.parts[i].isdisjoint(cert.parts[j]) for i in range(r) for j in range(i))
    assert conv_intersect([P.subset(part) for part in cert.parts]) is not None
    # the search's layout: labels sorted in each part, parts by their sorted labels
    assert [[lab for lab, _ in w] for w in cert.weights] == [sorted(p) for p in cert.parts]
    assert list(cert.parts) == sorted(cert.parts, key=sorted)
    return cert


def constructed(r, d):
    """Whether tverberg_partition builds the partition rather than searching for it."""
    return r == 2 or d == 1


@pytest.mark.parametrize("r, d", SHAPES)
def test_random_draws_partition_and_verify(r, d):
    for seed in range(5):
        for P in islice(_random_draws(r, d, seed), 5):
            cert = check(P, r)
            if not constructed(r, d):
                assert cert == tverberg_search(P, r, codim_pruning=True)


def test_constructions_make_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(geometry, "tverberg_search", refuse)
    for r, d in SHAPES:
        if constructed(r, d):
            for P in islice(_random_draws(r, d, 0), 5):
                check(P, r)


def test_only_the_searched_instance_searches(monkeypatch):
    """tverberg-random-3-2 still searches once per draw, with the search's certificates; the others never."""
    seen = []
    real = geometry.tverberg_search

    def recording(P, r, **kwargs):
        seen.append(real(P, r, **kwargs))
        return seen[-1]

    monkeypatch.setattr(geometry, "tverberg_search", recording)
    for r, d in [(2, 1), (2, 2), (3, 1)]:
        assert verify_tverberg_random(r, d, count=5).verdict == "match"
    assert seen == []
    assert verify_tverberg_random(3, 2, count=3).verdict == "match"
    assert seen == [real(P, 3, codim_pruning=True) for P in islice(_random_draws(3, 2, 0), 3)]


def test_radon_reads_the_first_null_vector():
    """Four points in the plane, one inside the triangle of the others."""
    P = PointConfiguration(2, {1: (0, 0), 2: (4, 0), 3: (0, 4), 4: (1, 1)})
    cert = check(P, 2)
    assert cert.parts == (frozenset({1, 2, 3}), frozenset({4}))
    assert cert.point == (1, 1)
    assert cert.weights[0] == ((1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 4)))


def test_pairs_around_the_median():
    """Sorted 0, 2, 4, 5, 9 (labels 2, 3, 5, 1, 4): the median 4 lies in [0, 9] and [2, 5]."""
    P = PointConfiguration(1, {1: (5,), 2: (0,), 3: (2,), 4: (9,), 5: (4,)})
    cert = check(P, 3)
    assert cert.parts == (frozenset({1, 3}), frozenset({2, 4}), frozenset({5}))
    assert cert.point == (4,)
    assert cert.weights[:2] == (
        ((1, Fraction(2, 3)), (3, Fraction(1, 3))),
        ((2, Fraction(5, 9)), (4, Fraction(4, 9))),
    )


DEGENERATE = [
    # repeated points
    (2, PointConfiguration(2, {1: (1, 1), 2: (1, 1), 3: (0, 3), 4: (5, 2)})),
    (3, PointConfiguration(1, {1: (2,), 2: (2,), 3: (2,), 4: (7,), 5: (-1,)})),
    (3, PointConfiguration(2, {lab: ((lab % 3) - 1, (lab % 2)) for lab in range(1, 8)})),
    # all points equal
    (2, PointConfiguration(3, {lab: (1, 2, 3) for lab in range(1, 6)})),
    (4, PointConfiguration(1, {lab: (Fraction(1, 3),) for lab in range(1, 8)})),
    (3, PointConfiguration(2, {lab: (0, 0) for lab in range(1, 8)})),
    # the collinear (0,0,0), (1,1,1), (2,2,2) in R^3, plus points to reach the floor d+2 = 5
    (2, PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2), 4: (5, -1, 0), 5: (0, 0, 7)})),
    (2, PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2), 4: (3, 3, 3), 5: (0, 0, 7)})),
    # collinear in the plane
    (2, PointConfiguration(2, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (3, 3)})),
]


@pytest.mark.parametrize("r, P", DEGENERATE, ids=range(len(DEGENERATE)))
def test_degenerate_inputs_partition(r, P):
    cert = check(P, r)
    if not constructed(r, P.d):
        assert cert == tverberg_search(P, r, codim_pruning=True)


def test_the_collinear_triple_alone_is_below_the_floor():
    """(0,0,0), (1,1,1), (2,2,2) and one more point are 4 < d+2 = 5 points in R^3: refused."""
    P = PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2), 4: (5, -1, 0)})
    with pytest.raises(ValueError, match="need not split"):
        tverberg_partition(P, 2)


def test_more_points_than_the_floor():
    rng = random.Random(32)
    for r, d in SHAPES:
        floor = (r - 1) * (d + 1) + 1
        for extra in (1, 2, 5):
            P = PointConfiguration(
                d,
                {
                    lab: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
                    for lab in range(1, floor + extra + 1)
                },
            )
            # the search's face count grows fast with n; a few points over the floor suffice for it
            if constructed(r, d) or extra < 5:
                check(P, r)


def test_radon_reads_the_first_null_vector_of_all_columns():
    """The first d+2 columns hold the first null vector of the whole (d+1) x n matrix."""
    rng = random.Random(6)
    for _ in range(60):
        d = rng.randint(1, 4)
        n = d + 2 + rng.randint(0, 6)
        # small grids repeat points and coordinates, so pivots fall in varied columns
        P = PointConfiguration(d, {lab: tuple(rng.randint(-2, 2) for _ in range(d)) for lab in range(1, n + 1)})
        _, ipts = geometry._integer_points(P)
        v = nullspace([*zip(*ipts.values()), [1] * n])[0]
        cert = check(P, 2)
        positive = frozenset(lab for lab, x in zip(P.labels, v) if x > 0)
        negative = frozenset(lab for lab, x in zip(P.labels, v) if x < 0)
        assert set(cert.parts) == {positive, negative}
        s = sum(x for x in v if x > 0)
        weights = {lab: Fraction(abs(x), s) for lab, x in zip(P.labels, v) if x}
        assert dict(cert.weights[0] + cert.weights[1]) == weights


def test_refusals():
    P = PointConfiguration(2, {lab: (lab, lab * lab) for lab in range(1, 8)})
    for r in (-1, 0, 1):
        with pytest.raises(ValueError, match="r >= 2"):
            tverberg_partition(P, r)
    # 7 points in the plane reach the floor of 3 parts, not of 4
    check(P, 3)
    with pytest.raises(ValueError, match="need not split"):
        tverberg_partition(P, 4)
    with pytest.raises(ValueError, match="need not split"):
        tverberg_partition(PointConfiguration(1, {1: (0,), 2: (1,), 3: (2,), 4: (3,)}), 3)


def test_a_search_absence_fails_closed(monkeypatch):
    P = next(_random_draws(3, 2, 0))
    absent = AbsenceReport(r=3, n_faces=0, tuples_examined=0, min_total_size=7, restricted=False, codim_pruning=True)
    monkeypatch.setattr(geometry, "tverberg_search", lambda *args, **kwargs: absent)
    with pytest.raises(ArithmeticError):
        tverberg_partition(P, 3)


def test_a_construction_that_fails_verify_fails_closed(monkeypatch):
    monkeypatch.setattr(TverbergCertificate, "verify", lambda self, P: False)
    for r, d in [(2, 2), (3, 1)]:
        with pytest.raises(ArithmeticError):
            tverberg_partition(next(_random_draws(r, d, 0)), r)


# -- mutations ----------------------------------------------------------


def moved_label(cert):
    """The last label of the largest part moved, with its weight, to the next part."""
    big = max(range(len(cert.parts)), key=lambda i: len(cert.parts[i]))
    to = (big + 1) % len(cert.parts)
    weights = [list(w) for w in cert.weights]
    item = weights[big].pop()
    weights[to] = sorted([*weights[to], item])
    return TverbergCertificate(
        tuple(frozenset(lab for lab, _ in w) for w in weights), cert.point, tuple(map(tuple, weights))
    )


def negated_weight(cert):
    first = cert.weights[0]
    weights = (((first[0][0], -first[0][1]), *first[1:]), *cert.weights[1:])
    return TverbergCertificate(cert.parts, cert.point, weights)


def shifted_point(cert):
    return TverbergCertificate(cert.parts, (cert.point[0] + Fraction(1, 64), *cert.point[1:]), cert.weights)


def constructed_certificates():
    out = [(P, tverberg_partition(P, r)) for r, P in DEGENERATE if constructed(r, P.d)]
    for r, d in SHAPES:
        if constructed(r, d):
            out += [(P, tverberg_partition(P, r)) for P in islice(_random_draws(r, d, 0), 5)]
    return out


@pytest.mark.parametrize("mutate", [moved_label, negated_weight, shifted_point])
def test_mutated_constructions_fail_verify(mutate):
    certs = constructed_certificates()
    assert len(certs) >= 30
    for P, cert in certs:
        assert cert.verify(P)
        assert not mutate(cert).verify(P)
