"""The coloring kernels at arity three and up against the searches they replaced.

`_feasible_uniform` (feasibility at arity three and up) and
`_lex_least_coloring` (the witness, with its graph branch `rec2`) are
copied verbatim below from the solver before `_first_coloring` took over
both. At every palette size k the solver tries, `_first_coloring` in
degree order must return the same coloring as the old search, and at
arity three and up the same feasibility node count.

`_first_coloring` in degree order in turn decided feasibility at arity
three and up until the forward-checking DSATUR kernel
(`_feasible_hypergraph`, behind `_decide`) took over. At every k from 1
to chi both must give the same verdict, and every coloring either
returns must be proper.

The decision ladder `_chi` and the one-decision criticality check are
held against the paths they replaced: `old_chromatic_number` is the
solver from before the ladder and the witness were split, and
`old_criticality` the loop `verify_schrijver` ran before it decided each
deletion at chi - 1 alone, both copied verbatim.
"""

import random
from itertools import combinations
from typing import Optional

import pytest

from kneser_tverberg.coloring import (
    DEFAULT_VERTEX_LIMIT,
    ChromaticResult,
    Coloring,
    LowerBound,
    _Budget,
    _adjacency_masks,
    _chi,
    _decide,
    _feasible_graph,
    _first_coloring,
    _greedy_clique_size,
    certified_lower_bound,
    chromatic_number,
    is_proper,
)
from kneser_tverberg.experiments import FAMILIES, verify_schrijver
from kneser_tverberg.geometry import moment_points
from kneser_tverberg.hypergraphs import (
    Hypergraph,
    generalized_kneser,
    intersection_hypergraph,
    kneser_hypergraph,
    minimize_system,
    s_stable_subsets,
)
from kneser_tverberg.simplicial import simplex_complex


def _feasible_uniform(H: Hypergraph, k: int, budget: _Budget) -> Optional[list[int]]:
    """Backtracking k-colorability for arity three and up.

    Static vertex order by descending degree; a color is rejected when it
    completes a monochromatic edge among already-colored vertices.
    """
    n = H.n_vertices
    incident: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in H.edges:
        for v in e:
            incident[v].append(tuple(u for u in e if u != v))
    order = sorted(range(n), key=lambda v: (-len(incident[v]), v))
    colors = [0] * n

    def rec(pos: int, used: int) -> bool:
        budget.nodes += 1
        if pos == n:
            return True
        v = order[pos]
        for c in range(1, min(used + 1, k) + 1):
            if any(all(colors[u] == c for u in rest) for rest in incident[v]):
                continue
            colors[v] = c
            if rec(pos + 1, max(used, c)):
                return True
            colors[v] = 0
        return False

    try:
        return colors if rec(0, 0) else None
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return


def _lex_least_coloring(H: Hypergraph, k: int) -> list[int]:
    """First proper k-coloring in lexicographic order of the color vector.

    Colors ascend and may exceed the used count by at most one, which is
    harmless: the lexicographically least proper coloring introduces
    colors in increasing order anyway.
    """
    n = H.n_vertices
    colors = [0] * n
    if H.r == 2:
        adj = _adjacency_masks(H)

        def rec2(v: int, used: int) -> bool:
            if v == n:
                return True
            forbidden = 0
            nb = adj[v]
            while nb:
                bit = nb & -nb
                nb -= bit
                u = bit.bit_length() - 1
                if u < v:
                    forbidden |= 1 << (colors[u] - 1)
            for c in range(1, min(used + 1, k) + 1):
                if forbidden >> (c - 1) & 1:
                    continue
                colors[v] = c
                if rec2(v + 1, max(used, c)):
                    return True
            colors[v] = 0
            return False

        try:
            found = rec2(0, 0)
        finally:
            del rec2  # rec2 refers to itself; break the cycle
    else:
        incident: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for e in H.edges:
            top = max(e)
            incident[top].append(tuple(u for u in e if u != top))

        def rec(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(1, min(used + 1, k) + 1):
                if any(all(colors[u] == c for u in rest) for rest in incident[v]):
                    continue
                colors[v] = c
                if rec(v + 1, max(used, c)):
                    return True
            colors[v] = 0
            return False

        try:
            found = rec(0, 0)
        finally:
            del rec  # rec refers to itself; break the cycle
    if not found:
        raise ArithmeticError("witness search failed at the established chromatic number")
    return colors


def degree_order(H: Hypergraph) -> list[int]:
    """The static order the decisions used at arity three and up: (-incident edges, id)."""
    degrees = [0] * H.n_vertices
    for e in H.edges:
        for v in e:
            degrees[v] += 1
    return sorted(range(H.n_vertices), key=lambda v: (-degrees[v], v))


# (instance, k) -> (coloring, nodes) of the old feasibility search, recorded
# from _feasible_uniform above where rerunning it would cost seconds: its
# refutation of k = 2 on KG^3(9,2) takes about 5 s, _first_coloring's 0.1 s.
PINNED = {("kneser3-2-9", 2): (None, 41_868)}


def assert_same_searches(H: Hypergraph, name: str = "") -> None:
    res = chromatic_number(H)
    n = H.n_vertices
    if H.r > 2:
        order = degree_order(H)
        for k in range(2, res.chi + 1):  # every palette the solver decides at arity >= 3
            if (name, k) in PINNED:
                old, old_nodes = PINNED[name, k]
            else:
                old_budget = _Budget()
                old = _feasible_uniform(H, k, old_budget)
                old_nodes = old_budget.nodes
            new_budget = _Budget()
            new = _first_coloring(H, k, order, new_budget)
            assert new == old, (name, H.r, n, k)
            assert new_budget.nodes == old_nodes, (name, H.r, n, k)
    new_witness = _first_coloring(H, res.chi, range(n), _Budget())
    assert new_witness == _lex_least_coloring(H, res.chi) == list(res.coloring.colors)


def random_hypergraph(rng: random.Random, r: int) -> Hypergraph:
    n = rng.randint(r + 2, 14 if r == 2 else 11)
    pool = list(combinations(range(n), r))
    edges = sorted(rng.sample(pool, rng.randint(n, min(len(pool), 5 * n))))
    return Hypergraph(r, tuple(frozenset({i}) for i in range(1, n + 1)), tuple(edges))


@pytest.mark.parametrize("r", [2, 3], ids=["graphs", "3-uniform"])
def test_random_hypergraphs(r):
    rng = random.Random(6000 + r)
    for _ in range(150):
        assert_same_searches(random_hypergraph(rng, r))


def family_hypergraphs():
    for k, n in FAMILIES["kneser"].instances:
        yield f"kneser-{k}-{n}", kneser_hypergraph(2, k, n)
    for k, n, critical in FAMILIES["schrijver"].instances:
        H = intersection_hypergraph(s_stable_subsets(k, n, 2), 2)
        yield f"schrijver-{k}-{n}", H
        if critical:  # the vertex deletions the criticality check colors
            for v in range(H.n_vertices):
                yield f"schrijver-{k}-{n}-minus-{v}", H.induced(u for u in range(H.n_vertices) if u != v)
    for n in range(6, 10):
        yield f"kneser3-2-{n}", kneser_hypergraph(3, 2, n)


FAMILY_HYPERGRAPHS = dict(family_hypergraphs())


@pytest.mark.parametrize("name", list(FAMILY_HYPERGRAPHS))
def test_family_instances(name):
    assert_same_searches(FAMILY_HYPERGRAPHS[name], name)


def assert_same_verdicts(H: Hypergraph) -> None:
    """_decide against _first_coloring in degree order, for every k from 1 to chi."""
    order = degree_order(H)
    for k in range(1, chromatic_number(H).chi + 1):
        new = _decide(H, k, _Budget())
        old = _first_coloring(H, k, order, _Budget())
        assert (new is None) == (old is None), (H.r, H.n_vertices, k)
        for found in (new, old):
            if found is not None:
                assert is_proper(H, Coloring(k, tuple(found)))[0], (H.r, H.n_vertices, k)


def test_forward_checking_on_random_hypergraphs():
    rng = random.Random(6003)  # the 150 hypergraphs of test_random_hypergraphs[3-uniform]
    for _ in range(150):
        assert_same_verdicts(random_hypergraph(rng, 3))


@pytest.mark.parametrize("r,n", [(3, 6), (3, 7), (3, 8), (3, 9), (4, 10)])
def test_forward_checking_on_kneser_hypergraphs(r, n):
    assert_same_verdicts(kneser_hypergraph(r, 2, n))


@pytest.mark.parametrize("n,nodes", [(8, 321), (9, 567)])
def test_forward_checking_refutation_nodes(n, nodes):
    """Two colors on KG^3(n,2); the static-order search took 12,452 and 41,868 nodes."""
    budget = _Budget()
    assert _decide(kneser_hypergraph(3, 2, n), 2, budget) is None
    assert budget.nodes == nodes


def old_chromatic_number(
    H: Hypergraph, max_vertices: int = DEFAULT_VERTEX_LIMIT, lower: Optional[LowerBound] = None
) -> ChromaticResult:
    """Exact weak chromatic number with a certificate.

    Feasibility is decided for k = lower bound, lower bound + 1, ... in
    turn; the first feasible k is returned together with the node count
    of the failed search at k - 1 (when one was run), so the result
    carries both halves of the proof. The lower bound is a greedy clique
    size for graphs and 2 otherwise, raised to lower.bound when a
    certified bound is given; that bound must be for H itself, the
    disjointness hypergraph of its complex's minimal nonfaces, or
    ValueError is raised. Refuses hypergraphs with more than
    max_vertices vertices.
    """
    n = H.n_vertices
    if n > max_vertices:
        raise ValueError(f"vertex count {n} exceeds the limit {max_vertices}")
    if lower is not None:
        K = lower.complex
        if H != generalized_kneser(K, simplex_complex(K.n - 1), lower.r):
            raise ValueError("the lower bound is certified for a different hypergraph")
    if n == 0:
        return ChromaticResult(0, Coloring(0, ()), 0, None, None, lower)
    if not H.edges:
        return ChromaticResult(1, Coloring(1, (1,) * n), 0, None, None, lower)

    if H.r == 2:
        adj = _adjacency_masks(H)
        degrees = [a.bit_count() for a in adj]
    else:
        degrees = [0] * n
        for e in H.edges:
            for v in e:
                degrees[v] += 1
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    start = max(2, _greedy_clique_size(adj, order)) if H.r == 2 else 2
    if lower is not None:
        start = max(start, lower.bound)

    total_nodes = 0
    refuted_k = None
    refutation_nodes = None
    for k in range(start, n + 1):
        budget = _Budget()
        if H.r == 2:
            found = _feasible_graph(adj, degrees, k, budget)
        else:
            found = _first_coloring(H, k, order, budget)
        total_nodes += budget.nodes
        if found is not None:
            witness = _first_coloring(H, k, range(n), _Budget())
            if witness is None:
                raise ArithmeticError("witness search failed at the established chromatic number")
            return ChromaticResult(
                k, Coloring(k, tuple(witness)), total_nodes, refuted_k, refutation_nodes, lower
            )
        refuted_k = k
        refutation_nodes = budget.nodes
    raise ArithmeticError("no feasible palette up to the vertex count")


def old_criticality(H: Hypergraph, chi: int, max_vertices: int = DEFAULT_VERTEX_LIMIT) -> dict:
    """verify_schrijver's criticality check before it made one decision per deletion."""
    computed = {}
    drops = [
        chromatic_number(
            H.induced([u for u in range(H.n_vertices) if u != v]),
            max_vertices=max_vertices,
        ).chi
        for v in range(H.n_vertices)
    ]
    computed["vertex_critical"] = all(c == chi - 1 for c in drops)
    computed["deletion_chis"] = sorted(set(drops))
    return computed


def assert_ladder_matches(H: Hypergraph, lower: Optional[LowerBound] = None) -> None:
    """_chi and chromatic_number against the old solver.

    Field by field for graphs. At arity three and up the old solver
    decided with the static-order search, so the node counts differ
    there; chi, the witness and refuted_k must not.
    """
    old = old_chromatic_number(H, lower=lower)
    new = chromatic_number(H, lower=lower)
    if H.r == 2:
        assert new == old
    else:
        assert (new.chi, new.coloring, new.refuted_k, new.lower_bound) == (
            old.chi, old.coloring, old.refuted_k, old.lower_bound
        )
    chi, found, nodes, refuted_k, refutation_nodes = _chi(H, lower=lower)
    assert (chi, nodes, refuted_k, refutation_nodes) == (
        new.chi, new.search_nodes, new.refuted_k, new.refutation_nodes
    )
    assert is_proper(H, Coloring(chi, tuple(found)))[0]


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 7)])
def test_criticality_matches_the_old_loop(k, n):
    H = intersection_hypergraph(s_stable_subsets(k, n, 2), 2)
    rep = verify_schrijver(k, n, check_critical=True)
    want = old_criticality(H, chromatic_number(H).chi)
    got = {key: rep.computed[key] for key in want}
    assert got == want
    assert rep.computed["chi"] == old_chromatic_number(H).chi


def kneser_family(k, n, s):
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def stable_plus_one(k, n, s):
    return list(s_stable_subsets(k, n, s)) + [frozenset(range(1, k + 1))]


@pytest.mark.parametrize("family", [kneser_family, stable_plus_one], ids=["kneser", "stable-plus-one"])
@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (2, 7), (3, 7)])
def test_criticality_matches_the_old_loop_where_it_fails(monkeypatch, family, k, n):
    """Families that are not vertex-critical: no deletion drops (Kneser), or only some do."""
    from kneser_tverberg import experiments

    monkeypatch.setattr(experiments, "s_stable_subsets", family)
    H = intersection_hypergraph(family(k, n, 2), 2)
    rep = verify_schrijver(k, n, check_critical=True)
    want = old_criticality(H, chromatic_number(H).chi)
    assert not want["vertex_critical"]
    assert {key: rep.computed[key] for key in want} == want
    assert rep.verdict == "mismatch"


@pytest.mark.parametrize("r", [2, 3], ids=["graphs", "3-uniform"])
def test_one_decision_at_chi_minus_one_gives_each_deletion_chi(r):
    """The lemma the criticality check rests on, where deletions do and do not lower chi."""
    rng = random.Random(7100 + r)
    lowered = kept = 0
    for _ in range(40):
        H = random_hypergraph(rng, r)
        chi = chromatic_number(H).chi
        for v in range(H.n_vertices):
            sub = H.induced([u for u in range(H.n_vertices) if u != v])
            found = _decide(sub, chi - 1, _Budget())
            assert (chi if found is None else chi - 1) == chromatic_number(sub).chi
            if found is None:
                kept += 1
            else:
                lowered += 1
                assert is_proper(sub, Coloring(chi - 1, tuple(found)))[0]
    assert lowered and kept


def dismantle_families(seed: int, count: int, max_ground: int = 9):
    """verify_dismantle's seeded families, each with its minimization."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, max_ground)
        m = rng.randint(1, 18)
        fam = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)]
        yield fam
        yield list(minimize_system(fam))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ladder_matches_on_dismantle_families(seed):
    for fam in dismantle_families(seed, 100):
        assert_ladder_matches(intersection_hypergraph(fam, 2))


@pytest.mark.parametrize(
    "name", ["kneser3-2-6", "kneser3-2-7", "kneser3-2-8", "kneser-2-6", "schrijver-2-6"]
)
def test_ladder_matches_on_family_instances(name):
    assert_ladder_matches(FAMILY_HYPERGRAPHS[name])


@pytest.mark.parametrize("k,n", [(2, 6), (2, 7), (3, 7)])
def test_ladder_matches_from_a_certified_bound(k, n):
    """verify_kneser's start: the floor bound of the (k-2)-skeleton on the moment curve."""
    lower = certified_lower_bound(
        simplex_complex(n - 1).skeleton(k - 2), moment_points(range(1, n + 1), 2 * k - 3), 2
    )
    assert isinstance(lower, LowerBound)
    assert_ladder_matches(kneser_hypergraph(2, k, n), lower)


def test_decide_at_the_smallest_palettes():
    """The criticality check decides at chi - 1, which can be 1 or 0."""
    empty = Hypergraph(2, (), ())
    assert _decide(empty, 0, _Budget()) == []
    for r in (2, 3):
        edgeless = Hypergraph(r, tuple(frozenset({i}) for i in range(1, 4)), ())
        assert _decide(edgeless, 1, _Budget()) == [1, 1, 1]
        assert _decide(edgeless, 0, _Budget()) is None
    assert _decide(kneser_hypergraph(2, 2, 5), 1, _Budget()) is None
    assert _decide(kneser_hypergraph(3, 2, 6), 1, _Budget()) is None
