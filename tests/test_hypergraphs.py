import random
from fractions import Fraction

import pytest

from kneser_tverberg.hypergraphs import (
    Hypergraph,
    avg_stability_parameter,
    cyclic_gap,
    gap_vector,
    generalized_kneser,
    intersection_hypergraph,
    is_t_stable_on_average,
    kneser_hypergraph,
    minimize_system,
    s_stable_subsets,
    stable_avg_hypergraph,
    width,
)
from kneser_tverberg.simplicial import SimplicialComplex, complex_from_forbidden, simplex_complex


def test_petersen():
    H = kneser_hypergraph(2, 2, 5)
    assert (H.n_vertices, H.n_edges) == (10, 15)
    assert all(H.degree(v) == 3 for v in range(10))


def test_kneser_edge_rule():
    H = kneser_hypergraph(2, 2, 5)
    for a, b in H.edges:
        assert not (H.vertices[a] & H.vertices[b])


def test_three_uniform_kneser():
    H = kneser_hypergraph(3, 2, 6)
    assert H.r == 3
    assert H.n_vertices == 15
    # edges are unordered triples of pairwise disjoint 2-subsets of 1..6
    assert H.n_edges == 15
    for e in H.edges:
        u, v, w = (H.vertices[i] for i in e)
        assert not (u & v) and not (u & w) and not (v & w)


def test_generalized_kneser_matches_direct_construction():
    K = simplex_complex(4).skeleton(0)
    H = generalized_kneser(K, simplex_complex(4), 2)
    D = intersection_hypergraph(K.minimal_nonfaces(), 2)
    assert H == D
    assert H.n_vertices == 10  # the 2-subsets of 1..5


def test_generalized_kneser_requires_subcomplex():
    K = SimplicialComplex(3, [(1, 2)])
    L = SimplicialComplex(3, [(1, 3)])
    with pytest.raises(ValueError):
        generalized_kneser(L, K, 2)


def test_generalized_kneser_relative():
    # chords of the 4-cycle inside the full simplex vs inside a larger complex
    C4 = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    H = generalized_kneser(C4, simplex_complex(3), 2)
    assert {frozenset(v) for v in H.vertices} == {frozenset({1, 3}), frozenset({2, 4})}
    assert H.n_edges == 1


def test_vertexless_hypergraph():
    K = simplex_complex(3)
    H = generalized_kneser(K, K, 2)
    assert H.n_vertices == 0 and H.n_edges == 0


def test_intersection_hypergraph_dedupes():
    H = intersection_hypergraph([(1, 2), (2, 1), (3,)], 2)
    assert H.n_vertices == 2
    assert H.n_edges == 1


def test_minimize_system():
    fam = [(1, 2, 3), (1, 2), (4,), (1, 4), (1, 2)]
    assert minimize_system(fam) == (frozenset({1, 2}), frozenset({4}))


def test_minimize_system_canonical_order_matches_nonfaces():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 7)
        fam = {
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 8))
        }
        anti = minimize_system(fam)
        K = complex_from_forbidden(anti, n)
        assert K.minimal_nonfaces() == anti


def test_cyclic_gap():
    assert cyclic_gap(1, 2, 6) == 1
    assert cyclic_gap(1, 6, 6) == 1
    assert cyclic_gap(1, 4, 6) == 3
    assert cyclic_gap(2, 5, 7) == 3


def test_gap_vector():
    gv = gap_vector((1, 4, 6, 9), 11)
    assert gv.gaps == (2, 1, 2, 2)
    assert sum(gv.gaps) == 11 - 4
    assert gv.set == frozenset({1, 4, 6, 9})
    single = gap_vector((3,), 8)
    assert single.gaps == (7,)


def test_gap_vector_sum_invariant_random():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(3, 12)
        k = rng.randint(1, n)
        s = rng.sample(range(1, n + 1), k)
        assert sum(gap_vector(s, n).gaps) == n - k


def test_s_stable_subsets():
    stable = s_stable_subsets(2, 5, 2)
    assert set(stable) == {
        frozenset({1, 3}),
        frozenset({1, 4}),
        frozenset({2, 4}),
        frozenset({2, 5}),
        frozenset({3, 5}),
    }
    assert s_stable_subsets(3, 6, 2) == (frozenset({1, 3, 5}), frozenset({2, 4, 6}))
    assert s_stable_subsets(3, 6, 3) == ()


def test_avg_stability_threshold():
    # (1,2,3,10) has gaps (0, 0, 6, 0): max gap 6 allows t up to (10-4-6)/3 + 1 = 1
    assert is_t_stable_on_average((1, 2, 3, 10), 10, 1)
    assert not is_t_stable_on_average((1, 2, 3, 10), 10, Fraction(4, 3))
    assert not is_t_stable_on_average((1, 2, 3, 10), 10, Fraction(1001, 1000))
    # (1,4,7,10) has gaps (2, 2, 2, 0): max gap 2 allows t up to (10-4-2)/3 + 1 = 7/3
    assert gap_vector((1, 4, 7, 10), 10).gaps == (2, 2, 2, 0)
    assert is_t_stable_on_average((1, 4, 7, 10), 10, 2)
    assert is_t_stable_on_average((1, 4, 7, 10), 10, Fraction(7, 3))
    assert not is_t_stable_on_average((1, 4, 7, 10), 10, Fraction(7, 3) + Fraction(1, 1000))
    # an integer bound is met exactly: (1,3,5,7,9) on 10 has max gap 1, bound (10-5-1)/4 + 1 = 2
    assert is_t_stable_on_average((1, 3, 5, 7, 9), 10, 2)
    assert not is_t_stable_on_average((1, 3, 5, 7, 9), 10, Fraction(2001, 1000))


def test_avg_stability_parameter():
    # t = r(k-3)/(2(k-1)) + 1
    assert avg_stability_parameter(2, 4) == Fraction(4, 3)
    assert avg_stability_parameter(3, 4) == Fraction(3, 2)
    assert avg_stability_parameter(2, 5) == Fraction(3, 2)
    assert avg_stability_parameter(2, 3) == 1


def test_avg_stable_contains_s_stable():
    """Integer t: every t-stable set is t-stable on average."""
    for n, k, t in ((8, 3, 2), (9, 3, 2), (10, 4, 2)):
        strict = set(s_stable_subsets(k, n, t))
        avg = {
            s
            for s in s_stable_subsets(k, n, 1)
            if is_t_stable_on_average(s, n, t)
        }
        assert strict <= avg


def test_stable_avg_hypergraph_vertex_count():
    H = stable_avg_hypergraph(2, 4, 10, Fraction(4, 3))
    assert H.r == 2
    assert H.n_vertices == 200


def test_width_values():
    # disjoint singletons exhaust the ground set in pairs
    K0 = simplex_complex(5).skeleton(0)
    assert width(K0, 3) == 6 - 3
    assert width(K0, 2) == 6 - 2
    full = simplex_complex(3)
    assert width(full, 2) == 0
    cone = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]).cone()
    assert width(cone, 2) == 7 - 5  # two disjoint faces cover at most 5 of 7


def test_induced_subhypergraph():
    H = kneser_hypergraph(2, 2, 5)
    sub = H.induced(range(9))
    assert sub.n_vertices == 9
    assert all(all(v < 9 for v in e) for e in sub.edges)
    # deleting one Petersen vertex removes exactly its 3 edges
    assert sub.n_edges == 12


def test_hypergraph_json_roundtrip():
    H = kneser_hypergraph(2, 2, 5)
    assert Hypergraph.from_json_dict(H.to_json_dict()) == H


ONE_TWO_THREE = (frozenset({1}), frozenset({2}), frozenset({3}))

INVALID_HYPERGRAPHS = {
    "arity-one": (1, (frozenset({1}),), ()),
    "unsorted-edge": (2, ONE_TWO_THREE, ((1, 0),)),
    "unsorted-vertices": (2, (frozenset({2}), frozenset({1})), ()),
    "unsorted-vertex-sets": (2, (frozenset({1, 3}), frozenset({1, 2})), ()),
    "duplicate-vertex": (2, (frozenset({1}), frozenset({1}), frozenset({2})), ((0, 2),)),
    "edge-too-long": (2, ONE_TWO_THREE, ((0, 1, 2),)),
    "edge-too-short": (3, ONE_TWO_THREE, ((0, 1),)),
    "repeated-id": (2, ONE_TWO_THREE, ((1, 1),)),
    "repeated-id-arity-three": (3, ONE_TWO_THREE, ((0, 0, 2),)),
    "id-too-large": (2, ONE_TWO_THREE, ((0, 3),)),
    "negative-id": (2, ONE_TWO_THREE, ((-1, 0),)),
}


def test_hypergraph_validation():
    """The constructor and from_json_dict, which take outside input, reject each case."""
    for r, vertices, edges in INVALID_HYPERGRAPHS.values():
        with pytest.raises(ValueError):
            Hypergraph(r, vertices, edges)
        data = {
            "r": r,
            "vertices": [{"id": i, "set": sorted(v)} for i, v in enumerate(vertices)],
            "edges": [list(e) for e in edges],
        }
        with pytest.raises(ValueError):
            Hypergraph.from_json_dict(data)


def test_from_sets_refuses_arity_below_two():
    for r in (1, 0, -1):
        with pytest.raises(ValueError, match="arity"):
            Hypergraph.from_sets(r, [{1}, {2}])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_built_hypergraphs_pass_the_constructor_check(seed):
    """from_sets and induced skip the constructor's check; their output passes it anyway.

    The families are verify_dismantle's draws, each with its minimization.
    """
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(3, 9)
        m = rng.randint(1, 18)
        fam = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)]
        for sets in (fam, minimize_system(fam)):
            for r in (2, 3):
                H = Hypergraph.from_sets(r, sets)
                ids = range(H.n_vertices)
                halves = [v for v in ids if rng.random() < 0.5]
                for G in (H, H.induced(ids[1:]), H.induced(ids[::2]), H.induced(halves)):
                    assert Hypergraph(G.r, G.vertices, G.edges) == G
                    assert list(G.edges) == sorted(G.edges)
