"""verify_constraint_property against the exhaustive sweep it replaced.

`verify_constraint_property` now checks only that the coloring is
proper; its docstring proves that nothing else can fail. The sweep it
ran before, copied verbatim below (renamed), walks every r-tuple of
pairwise disjoint faces with nonempty color sets. On the solver's
colorings of the `constraint` experiment instances and on seeded random
proper colorings, the sweep must report (True, None) and
`verify_constraint_property` True.
"""

import random
from typing import Optional

import pytest

from kneser_tverberg.coloring import (
    Coloring,
    chromatic_number,
    is_proper,
    verify_constraint_property,
)
from kneser_tverberg.experiments import verify_constraint
from kneser_tverberg.hypergraphs import Hypergraph, generalized_kneser, s_stable_subsets
from kneser_tverberg.simplicial import (
    SimplicialComplex,
    Simplex,
    _disjoint_tuples,
    _mask,
    _unmask,
    complex_from_forbidden,
    simplex_complex,
)


def swept_constraint_property(
    K: SimplicialComplex, L: SimplicialComplex, r: int, coloring: Coloring
) -> tuple[bool, Optional[tuple[tuple[Simplex, ...], int]]]:
    """Check the color-set disjointness property of the extended coloring.

    For faces sigma of L, let A(sigma) collect the extended colors of the
    subfaces of sigma that lie outside K; equivalently, the colors of the
    minimal outside faces contained in sigma. The property: any r
    pairwise disjoint faces of L have color sets with empty common
    intersection. Returns (True, None) or (False, (faces, shared color)).

    Walks the r-tuples of pairwise disjoint faces of L with nonempty
    color sets in lexicographic order and stops at the first whose color
    sets share a color. Exhaustive when the property holds, so only
    usable at small ground sets; that is the regime this package targets.
    """
    H = generalized_kneser(K, L, r)
    ok, witness = is_proper(H, coloring)
    if not ok:
        raise ValueError(f"input coloring is improper, monochromatic edge {witness}")
    vertex_bit = {_mask(v): 1 << (coloring.colors[i] - 1) for i, v in enumerate(H.vertices)}

    face_list = L.face_masks()
    colorset: dict[int, int] = {}
    for fm in face_list:
        acc = vertex_bit.get(fm, 0)
        rest = fm
        while rest:
            bit = rest & -rest
            rest -= bit
            acc |= colorset[fm & ~bit]
        colorset[fm] = acc

    nonempty = [fm for fm in face_list if fm and colorset[fm]]
    for t in _disjoint_tuples(nonempty, [0] * len(nonempty), r, 0):
        common = colorset[nonempty[t[0]]]
        for i in t[1:]:
            common &= colorset[nonempty[i]]
        if common:
            color = (common & -common).bit_length()
            return False, (tuple(_unmask(nonempty[i]) for i in t), color)
    return True, None


# The instances of experiments.verify_constraint, which colors each with r = 2.
CONSTRAINT_INSTANCES = {
    **{
        f"constraint-kneser-{k}-{n}": (simplex_complex(n - 1).skeleton(k - 2), n)
        for k, n in ((2, 5), (2, 6), (2, 7), (3, 7))
    },
    **{
        f"constraint-schrijver-{k}-{n}": (complex_from_forbidden(s_stable_subsets(k, n, 2), n), n)
        for k, n in ((2, 5), (2, 6), (3, 7))
    },
}


def test_instances_are_those_of_the_experiment():
    assert [rep.name for rep in verify_constraint()] == list(CONSTRAINT_INSTANCES)


@pytest.mark.parametrize("name", list(CONSTRAINT_INSTANCES))
def test_solver_colorings_of_the_experiment(name):
    K, n = CONSTRAINT_INSTANCES[name]
    L = simplex_complex(n - 1)
    coloring = chromatic_number(generalized_kneser(K, L, 2)).coloring
    assert verify_constraint_property(K, L, 2, coloring) is True
    assert swept_constraint_property(K, L, 2, coloring) == (True, None)


def random_proper_coloring(rng: random.Random, H: Hypergraph) -> Coloring:
    """Vertices in random order, each a random color that closes no monochromatic edge.

    The palette starts at a random size and grows by one color whenever
    every color in it is refused.
    """
    n = H.n_vertices
    palette = rng.randint(1, n)
    colors = [0] * n
    for v in rng.sample(range(n), n):
        allowed = [
            c for c in range(1, palette + 1)
            if not any(v in e and all(colors[u] == c for u in e if u != v) for e in H.edges)
        ]
        if not allowed:
            palette += 1
            allowed = [palette]
        colors[v] = rng.choice(allowed)
    return Coloring(max(colors), tuple(colors))


def random_pair(rng: random.Random) -> tuple[SimplicialComplex, SimplicialComplex]:
    """A random complex L on at most 7 labels and a random subcomplex K of it."""
    n = rng.randint(3, 7)
    facets = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
    L = SimplicialComplex(n, facets)
    faces = [f for f in L.faces() if f]
    K = SimplicialComplex(n, rng.sample(faces, rng.randint(0, min(4, len(faces)))))
    return K, L


def test_random_proper_colorings():
    rng = random.Random(1905)
    checked = 0
    while checked < 200:
        K, L = random_pair(rng)
        r = rng.choice((2, 2, 3))
        H = generalized_kneser(K, L, r)
        if not H.n_edges:  # nothing to check
            continue
        coloring = random_proper_coloring(rng, H)
        assert is_proper(H, coloring)[0]
        assert verify_constraint_property(K, L, r, coloring) is True
        assert swept_constraint_property(K, L, r, coloring) == (True, None)
        checked += 1
