"""The static-order coloring kernel against the two searches it replaced.

`_feasible_uniform` (feasibility at arity three and up) and
`_lex_least_coloring` (the witness, with its graph branch `rec2`) are
copied verbatim below from the solver before `_first_coloring` took over
both. At every palette size k the solver tries, the new kernel must
return the same coloring as the old one, and at arity three and up the
same feasibility node count.
"""

import random
from itertools import combinations
from typing import Optional

import pytest

from kneser_tverberg.coloring import (
    _Budget,
    _adjacency_masks,
    _first_coloring,
    chromatic_number,
)
from kneser_tverberg.experiments import FAMILIES
from kneser_tverberg.hypergraphs import (
    Hypergraph,
    intersection_hypergraph,
    kneser_hypergraph,
    s_stable_subsets,
)


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


def solver_order(H: Hypergraph) -> list[int]:
    """chromatic_number's static order at arity three and up: (-incident edges, id)."""
    degrees = [0] * H.n_vertices
    for e in H.edges:
        for v in e:
            degrees[v] += 1
    return sorted(range(H.n_vertices), key=lambda v: (-degrees[v], v))


# (instance, k) -> (coloring, nodes) of the old feasibility search, recorded
# from _feasible_uniform above where rerunning it would cost seconds: its
# refutation of k = 2 on KG^3(9,2) takes about 5 s, the new kernel's 0.1 s.
PINNED = {("kneser3-2-9", 2): (None, 41_868)}


def assert_same_searches(H: Hypergraph, name: str = "") -> None:
    res = chromatic_number(H)
    n = H.n_vertices
    if H.r > 2:
        order = solver_order(H)
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
