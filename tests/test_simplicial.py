import random

import pytest

from kneser_tverberg.experiments import _random_antichain
from kneser_tverberg.simplicial import (
    GROUND_LIMIT,
    SimplicialComplex,
    _mask,
    _minimal_transversals,
    complex_from_forbidden,
    simplex_complex,
)


def six_cycle():
    return SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)])


def test_constructor_keeps_maximal_faces_only():
    K = SimplicialComplex(4, [(1,), (1, 2), (2, 3), (3,)])
    assert K.facets == (frozenset({1, 2}), frozenset({2, 3}))
    assert K.dim == 1


def test_empty_complex_and_empty_face():
    K = SimplicialComplex(3, [()])
    assert K.dim == -1
    assert K.is_face(())
    assert not K.is_face((1,))


def test_label_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, 1)])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 4)])


def test_enumeration_refused_above_ground_limit():
    # construction is cheap and allowed; exhaustive enumeration is not
    K = SimplicialComplex(GROUND_LIMIT + 1, [(1,)])
    with pytest.raises(ValueError):
        K.minimal_nonfaces()
    with pytest.raises(ValueError):
        K.faces()
    with pytest.raises(ValueError):
        complex_from_forbidden([(1, 2)], GROUND_LIMIT + 1)


def test_face_membership_and_enumeration():
    K = six_cycle()
    assert K.is_face((1, 2)) and K.is_face((2,)) and K.is_face(())
    assert not K.is_face((1, 3))
    faces = K.faces()
    assert frozenset() in faces
    assert len(faces) == 1 + 6 + 6


def test_six_cycle_minimal_nonfaces_are_the_nine_chords():
    chords = {
        frozenset(s)
        for s in [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]
    }
    assert set(six_cycle().minimal_nonfaces()) == chords


def test_minimal_nonfaces_of_skeleton():
    K = simplex_complex(4).skeleton(1)
    mnf = K.minimal_nonfaces()
    assert all(len(f) == 3 for f in mnf)
    assert len(mnf) == 10


def test_full_simplex_has_no_nonfaces():
    assert simplex_complex(3).minimal_nonfaces() == ()


def test_skeleton_and_cone():
    K = simplex_complex(3)
    assert K.skeleton(-1).dim == -1
    assert K.skeleton(0).facets == tuple(frozenset({i}) for i in range(1, 5))
    C = six_cycle().cone()
    assert C.n == 7
    assert all(7 in f for f in C.facets)
    # coning changes no minimal nonface
    assert C.minimal_nonfaces() == six_cycle().minimal_nonfaces()


def test_join_with_point_is_cone():
    K = six_cycle()
    P = simplex_complex(0)
    assert K.join(P) == K.cone()


def test_join_with_empty_complex_is_identity():
    K = six_cycle()
    E = SimplicialComplex(0, [()])
    assert K.join(E) == K


def test_complex_from_forbidden_basic():
    K = complex_from_forbidden([(1, 2)], 3)
    assert K.is_face((1, 3)) and K.is_face((2, 3))
    assert not K.is_face((1, 2))
    assert set(K.minimal_nonfaces()) == {frozenset({1, 2})}


def test_complex_from_forbidden_requires_antichain():
    with pytest.raises(ValueError):
        complex_from_forbidden([(1,), (1, 2)], 3)
    with pytest.raises(ValueError):
        complex_from_forbidden([()], 3)
    # forbidding nothing leaves the full simplex, on every ground set
    for n in range(0, 8):
        assert complex_from_forbidden([], n) == simplex_complex(n - 1)


def test_forbidden_roundtrip_random():
    """complex_from_forbidden and minimal_nonfaces invert each other."""
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 7)
        fam = set()
        for _ in range(rng.randint(1, 8)):
            fam.add(frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))))
        anti = {s for s in fam if not any(t < s for t in fam)}
        K = complex_from_forbidden(anti, n)
        assert set(K.minimal_nonfaces()) == anti
        # rebuild from the recovered antichain: same complex
        assert complex_from_forbidden(K.minimal_nonfaces(), n) == K


def test_minimal_transversals_of_minimal_transversals_give_back_the_antichain():
    rng = random.Random(12)
    for n in range(1, 13):
        for _ in range(10):
            G = sorted(_mask(g) for g in _random_antichain(rng, n))
            assert sorted(_minimal_transversals(_minimal_transversals(G))) == G
    assert _minimal_transversals([]) == [0]
    assert _minimal_transversals([0]) == []


def test_faces_sorted_canonically():
    K = six_cycle()
    faces = K.faces()
    keys = [(len(f), tuple(sorted(f))) for f in faces]
    assert keys == sorted(keys)


def test_json_roundtrip():
    K = six_cycle().cone()
    data = K.to_json_dict()
    assert SimplicialComplex.from_json_dict(data) == K


def test_equality_and_hash():
    assert six_cycle() == six_cycle()
    assert hash(six_cycle()) == hash(six_cycle())
    assert six_cycle() != six_cycle().cone()
