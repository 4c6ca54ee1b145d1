import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from kneser_tverberg.coloring import (
    ChromaticResult,
    Coloring,
    _Budget,
    _chi,
    _decide,
    bound_floor_formula,
    chromatic_number,
    greedy_least_label,
    is_proper,
    kriz_bound,
    verify_constraint_property,
)
from kneser_tverberg.experiments import verify_schrijver
from kneser_tverberg.hypergraphs import (
    Hypergraph,
    generalized_kneser,
    intersection_hypergraph,
    kneser_hypergraph,
    s_stable_subsets,
    width,
)
from kneser_tverberg.simplicial import SimplicialComplex, complex_from_forbidden, simplex_complex


def test_is_proper_reports_first_bad_edge():
    H = kneser_hypergraph(2, 2, 5)
    mono = Coloring(1, (1,) * 10)
    ok, edge = is_proper(H, mono)
    assert not ok
    assert edge == H.edges[0]


def test_chromatic_vertexless():
    K = simplex_complex(3)
    H = generalized_kneser(K, K, 2)
    res = chromatic_number(H)
    assert res.chi == 0
    assert res.coloring.colors == ()


def test_chromatic_edgeless():
    H = intersection_hypergraph([(1, 2), (1, 3), (2, 3)], 2)
    assert H.n_edges == 0
    assert chromatic_number(H).chi == 1


def test_petersen_chi_three():
    res = chromatic_number(kneser_hypergraph(2, 2, 5))
    assert res.chi == 3
    assert res.refuted_k == 2
    ok, _ = is_proper(kneser_hypergraph(2, 2, 5), res.coloring)
    assert ok


@pytest.mark.parametrize(
    "k,n,chi", [(2, 5, 3), (2, 6, 4), (2, 7, 5), (3, 7, 3), (3, 8, 4)]
)
def test_kneser_graph_chi(k, n, chi):
    assert chromatic_number(kneser_hypergraph(2, k, n)).chi == chi


def test_odd_cycles_and_cliques():
    def graph(n, edges):
        return Hypergraph(
            2, tuple(frozenset({i}) for i in range(1, n + 1)), tuple(edges)
        )

    c5 = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert chromatic_number(c5).chi == 3
    k4 = graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert chromatic_number(k4).chi == 4


def test_three_uniform_chi():
    # 3 pairwise disjoint 2-subsets of 1..6 exist, but any two of them meet
    # in at most ... a weak 2-coloring suffices; with one part forced the
    # solver must still find chi = 2
    H = kneser_hypergraph(3, 2, 6)
    assert chromatic_number(H).chi == 2


def brute_force_lex_least(H, k):
    """The first k-coloring in lexicographic order that is_proper accepts."""
    for colors in product(range(1, k + 1), repeat=H.n_vertices):
        if is_proper(H, Coloring(k, colors))[0]:
            return colors
    return None


def test_witness_is_lex_least():
    """The reported coloring is the lexicographically least proper one, at arity 2 and 3."""
    rng = random.Random(0)
    random_3_uniform = Hypergraph(
        3,
        tuple(frozenset({i}) for i in range(1, 10)),
        tuple(sorted(rng.sample(list(combinations(range(9), 3)), 40))),
    )
    cases = [
        (kneser_hypergraph(2, 2, 5), 3),  # Petersen graph
        (kneser_hypergraph(3, 2, 7), 2),
        (random_3_uniform, 3),
    ]
    for H, chi in cases:
        res = chromatic_number(H)
        assert res.chi == chi
        assert res.coloring.colors == brute_force_lex_least(H, chi)


def test_deterministic_across_runs():
    a = chromatic_number(kneser_hypergraph(2, 2, 6))
    b = chromatic_number(kneser_hypergraph(2, 2, 6))
    assert a.to_json_dict() == b.to_json_dict()


def test_max_vertices_cap():
    H = kneser_hypergraph(2, 2, 7)
    with pytest.raises(ValueError):
        chromatic_number(H, max_vertices=10)


def test_greedy_least_label_kneser():
    H = kneser_hypergraph(2, 2, 6)
    g = greedy_least_label(H, 2, 5)
    assert g.proper
    # uncapped, each least label 1..5 is its own color
    assert g.colors_used == 5
    # merging the top classes down to chi stays proper for Kneser graphs
    g4 = greedy_least_label(H, 2, 5, max_colors=4)
    assert g4.proper and g4.colors_used == 4


def test_greedy_three_uniform():
    H = kneser_hypergraph(3, 2, 6)
    g = greedy_least_label(H, 3, 5)
    assert g.proper
    # colors are ceil(min/2): minima 1..5 give colors 1,1,2,2,3
    assert g.colors_used == 3


def test_greedy_rejects_wrong_r():
    H = kneser_hypergraph(2, 2, 5)
    with pytest.raises(ValueError):
        greedy_least_label(H, 3, 4)


def test_bound_floor_formula():
    assert bound_floor_formula(5, 3, 1) == 1
    assert bound_floor_formula(6, 2, 2) == 4
    assert bound_floor_formula(70, 6, 12) == 2
    assert bound_floor_formula(9, 2, 5) == 4


def test_kriz_bound_values():
    K0 = simplex_complex(5).skeleton(0)
    assert kriz_bound(K0, 3) == Fraction(3, 2)
    assert kriz_bound(K0, 2) == Fraction(4, 1)
    cone = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]).cone()
    assert kriz_bound(cone, 2) == 2


def test_constraint_property_for_optimal_colorings():
    for k, n, r in ((2, 5, 2), (2, 6, 2), (2, 5, 3)):
        K = simplex_complex(n - 1).skeleton(k - 2)
        L = simplex_complex(n - 1)
        H = generalized_kneser(K, L, r)
        res = chromatic_number(H)
        assert verify_constraint_property(K, L, r, res.coloring) is True


def test_constraint_property_schrijver():
    n = 6
    K = complex_from_forbidden(s_stable_subsets(2, n, 2), n)
    L = simplex_complex(n - 1)
    H = generalized_kneser(K, L, 2)
    res = chromatic_number(H)
    assert verify_constraint_property(K, L, 2, res.coloring) is True


def test_constraint_property_fails_for_bad_coloring():
    """A coloring that merges two disjoint vertices breaks the property."""
    K = simplex_complex(4).skeleton(0)
    L = simplex_complex(4)
    H = generalized_kneser(K, L, 2)
    # coloring every vertex 1 makes each edge, two disjoint faces, share a color
    mono = Coloring(3, (1,) * H.n_vertices)
    assert verify_constraint_property(K, L, 2, mono) is False


def test_coloring_json_roundtrip():
    c = Coloring(3, (1, 2, 3))
    assert Coloring.from_json_dict(c.to_json_dict()) == c
    res = chromatic_number(kneser_hypergraph(2, 2, 5))
    d = res.to_json_dict()
    assert d["chi"] == 3
    assert set(d["coloring"]["assignment"]) == {str(v) for v in range(10)}


def test_searches_leave_no_reference_cycles():
    """The nested DFS helpers of coloring and hypergraphs must not keep their working sets alive.

    Twin of the geometry test: a nested function that calls itself forms a
    function <-> cell cycle, which holds everything it closes over until a
    full gc pass.
    """
    import gc

    K, L = simplex_complex(4).skeleton(0), simplex_complex(4)
    gc.collect()
    gc.disable()
    try:
        chromatic_number(kneser_hypergraph(2, 2, 5))
        assert gc.collect() == 0
        width(simplex_complex(5).skeleton(0), 3)
        assert gc.collect() == 0
        kneser_hypergraph(3, 2, 7)
        assert gc.collect() == 0
        chromatic_number(kneser_hypergraph(3, 2, 6))  # arity 3: forward checking, then the witness
        assert gc.collect() == 0
        verify_constraint_property(K, L, 2, chromatic_number(generalized_kneser(K, L, 2)).coloring)
        assert gc.collect() == 0
        _chi(kneser_hypergraph(2, 2, 6))  # the decision ladder alone
        assert gc.collect() == 0
        _decide(kneser_hypergraph(3, 2, 6), 2, _Budget())
        assert gc.collect() == 0
        verify_schrijver(2, 6, check_critical=True)  # one decision per deletion
        assert gc.collect() == 0
    finally:
        gc.enable()
