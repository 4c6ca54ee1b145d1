"""tverberg_partition's constructions against the search and the hull LP.

Radon's null space (two parts), the pairs around the median (the line)
and Sarkaria's lifting, solved by the colourful pivot walk (r >= 3 in
the plane and above), are checked three ways: the certificate verifies,
conv_intersect finds the parts' hulls meeting on its own, and the parts
are laid out as the search lays them out. At the default (r, d) of
tverberg-random the search's own certificate verifies too; the two need
not be the same. Where the walk gives up (a singular first matrix, or
its step bound) the result must be the search's own certificate.
Mutated certificates must fail, and a certificate that fails verify
must raise, whether a construction or the search made it.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from kneser_tverberg import geometry
from kneser_tverberg.experiments import TVERBERG_INSTANCES, _random_draws, pipeline_instance, verify_tverberg_random
from kneser_tverberg.geometry import (
    AbsenceReport,
    PointConfiguration,
    SearchSpaceError,
    TverbergCertificate,
    conv_intersect,
    tverberg_partition,
    tverberg_search,
)
from kneser_tverberg.linalg import nullspace

SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (2, 6), (4, 1), (5, 1), (3, 3), (4, 2), (5, 2), (3, 4)]
# where the search is cheap enough to run on every draw: the shapes tverberg-random ran before (4, 2)
SEARCHED = [(2, 1), (2, 2), (3, 1), (3, 2)]


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


def searched(P, r):
    """tverberg_partition's certificate, and whether it came from tverberg_search."""
    calls = []
    real = geometry.tverberg_search

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "tverberg_search", recording)
        cert = check(P, r)
    return cert, bool(calls)


def singular(*args):
    return None


@pytest.mark.parametrize("r, d", SHAPES)
def test_random_draws_partition_and_verify(r, d):
    for seed in range(5):
        for P in islice(_random_draws(r, d, seed), 5):
            assert not searched(P, r)[1]
            if (r, d) in SEARCHED:
                # both verify; they need not be the same certificate
                found = tverberg_search(P, r, codim_pruning=True)
                assert isinstance(found, TverbergCertificate) and found.verify(P)


def test_constructions_make_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(geometry, "tverberg_search", refuse)
    for r, d in SHAPES:
        for P in islice(_random_draws(r, d, 0), 5):
            check(P, r)


def test_no_default_pair_searches(monkeypatch):
    """Every tverberg-random instance, 25 draws at each of seeds 0-4, with the search refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(geometry, "tverberg_search", refuse)
    assert (4, 2) in TVERBERG_INSTANCES
    for seed in range(5):
        for r, d in TVERBERG_INSTANCES:
            assert verify_tverberg_random(r, d, seed=seed).verdict == "match"


def test_a_singular_solve_falls_back_to_the_search(monkeypatch):
    draws = list(islice(_random_draws(3, 2, 0), 3))
    want = [tverberg_search(P, 3, codim_pruning=True) for P in draws]
    monkeypatch.setattr(geometry, "inverse", singular)
    assert [tverberg_partition(P, 3) for P in draws] == want


def test_the_step_bound_falls_back_to_the_search(monkeypatch):
    """An exchange that leaves the inverse as it was never reaches lambda >= 0; the bound ends the walk."""
    steps = []

    def stuck(B, D, z, k):
        steps.append(k)
        return B, D

    draws = list(islice(_random_draws(3, 2, 0), 3))
    want = [tverberg_search(P, 3, codim_pruning=True) for P in draws]
    monkeypatch.setattr(geometry, "exchange", stuck)
    assert [tverberg_partition(P, 3) for P in draws] == want
    assert len(steps) == 3 * 4 * 7


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
    (3, PointConfiguration(2, {lab: (lab, 2 * lab - 3) for lab in range(1, 8)})),
]
# the inputs above whose first colourful matrix is singular
SINGULAR = [2, 5, 9]


@pytest.mark.parametrize("i", range(len(DEGENERATE)))
def test_degenerate_inputs_partition(i):
    r, P = DEGENERATE[i]
    cert, fell_back = searched(P, r)
    assert fell_back == (i in SINGULAR)
    if fell_back:
        assert cert == tverberg_search(P, r, codim_pruning=True)


def test_singular_lifts_take_the_fallback(monkeypatch):
    """Repeated, equal and collinear points: the walk stops before its first pivot."""
    def refuse(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(geometry, "exchange", refuse)
    for i in SINGULAR:
        r, P = DEGENERATE[i]
        assert geometry._colourful_walk(P, r) is None


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
            assert not searched(P, r)[1]


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
    monkeypatch.setattr(geometry, "inverse", singular)
    monkeypatch.setattr(geometry, "tverberg_search", lambda *args, **kwargs: absent)
    with pytest.raises(ArithmeticError):
        tverberg_partition(P, 3)


def test_a_refused_fallback_fails_closed(monkeypatch):
    """At (4, 2) the search's tuples exceed its cap, so a fallback there is a refusal."""
    P = next(_random_draws(4, 2, 0))
    monkeypatch.setattr(geometry, "inverse", singular)
    with pytest.raises(SearchSpaceError, match="exceed the cap"):
        tverberg_partition(P, 4)


def test_a_construction_that_fails_verify_fails_closed(monkeypatch):
    monkeypatch.setattr(TverbergCertificate, "verify", lambda self, P: False)
    for r, d in [(2, 2), (3, 1), (3, 2), (4, 2)]:
        with pytest.raises(ArithmeticError):
            tverberg_partition(next(_random_draws(r, d, 0)), r)


def test_a_search_certificate_that_fails_verify_fails_closed(monkeypatch):
    """The search shares the constructions' check: on an input whose faces meet it raises, never returns."""
    K, r, P, _ = pipeline_instance("k5-plane")
    assert tverberg_search(P, r, restrict_to=K).verify(P)
    monkeypatch.setattr(TverbergCertificate, "verify", lambda self, P: False)
    with pytest.raises(ArithmeticError):
        tverberg_search(P, r, restrict_to=K)


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
    """Every certificate that no search made: the degenerate inputs that construct, and five draws of each shape."""
    out = [(P, tverberg_partition(P, r)) for i, (r, P) in enumerate(DEGENERATE) if i not in SINGULAR]
    for r, d in SHAPES:
        out += [(P, tverberg_partition(P, r)) for P in islice(_random_draws(r, d, 0), 5)]
    return out


@pytest.mark.parametrize("mutate", [moved_label, negated_weight, shifted_point])
def test_mutated_constructions_fail_verify(mutate):
    certs = constructed_certificates()
    assert len(certs) >= 60
    for P, cert in certs:
        assert cert.verify(P)
        assert not mutate(cert).verify(P)
