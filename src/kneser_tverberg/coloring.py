"""Weak colorings of uniform hypergraphs.

A coloring assigns one of k colors to every vertex; it is proper when no
hyperedge is monochromatic. The exact chromatic number is found by
resolving feasibility for increasing k with one of two backtracking
kernels, both saturation-guided (DSATUR): one over neighbor masks for
graphs, and one for arity three and up that forward-checks edge rests
against color-class bitmasks. chromatic_number then runs a third,
static-order search in vertex id order at chi, for the
lexicographically least proper coloring, which makes its witness
reproducible across runs and platforms. Callers that read only chi or
the node counts run the decision ladder alone (_chi), and a single
feasibility decision (_decide) settles whether a vertex deletion still
needs chi colors.

A certified lower bound from the main theorem lets the solver skip the
exhaustive refutation below chi: place a complex in R^d so that no r
pairwise disjoint faces have meeting hulls, and the disjointness
hypergraph of its minimal nonfaces needs at least floor(N/(r-1)) - d
colors, where N + 1 is the number of labels.

The greedy least-label bound, the floor-formula bound, the fractional
width bound, and the check of the color-set disjointness property of a
coloring live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    DEFAULT_SEARCH_CAP,
    AbsenceReport,
    PointConfiguration,
    TverbergCertificate,
    tverberg_search,
)
from .hypergraphs import Hypergraph, generalized_kneser, width
from .simplicial import SimplicialComplex, simplex_complex

DEFAULT_VERTEX_LIMIT = 64


@dataclass(frozen=True)
class Coloring:
    """A total assignment of colors 1..k to vertex ids 0..len(colors)-1."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("palette size must be nonnegative")
        if any(c < 1 or c > self.k for c in self.colors):
            raise ValueError("colors must lie in 1..k")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "assignment": {str(i): c for i, c in enumerate(self.colors)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Coloring":
        assignment = {int(i): int(c) for i, c in data["assignment"].items()}
        if sorted(assignment) != list(range(len(assignment))):
            raise ValueError("assignment must cover vertex ids 0..len-1")
        return cls(int(data["k"]), tuple(assignment[i] for i in range(len(assignment))))


def is_proper(H: Hypergraph, coloring: Coloring) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check weak propriety; on failure return the first monochromatic edge."""
    if len(coloring.colors) != H.n_vertices:
        raise ValueError("coloring must assign a color to every vertex")
    cols = coloring.colors
    for e in H.edges:
        first = cols[e[0]]
        if all(cols[v] == first for v in e[1:]):
            return False, e
    return True, None


@dataclass(frozen=True)
class LowerBound:
    """A chromatic lower bound certified by an absence sweep.

    No r pairwise disjoint faces of `complex` have meeting hulls in
    `placement` (the sweep in `absence` checked every tuple), so the
    disjointness hypergraph of the complex's minimal nonfaces, r-wise,
    needs at least `bound` = floor(N/(r-1)) - d colors, with N + 1 the
    number of labels and d the placement's dimension.
    """

    complex: SimplicialComplex
    placement: PointConfiguration
    r: int
    bound: int
    absence: AbsenceReport

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "r": self.r,
            "complex": self.complex.to_json_dict(),
            "placement": self.placement.to_json_dict(),
            "absence": self.absence.to_json_dict(),
        }


def certified_lower_bound(
    K: SimplicialComplex,
    P: PointConfiguration,
    r: int,
    *,
    cap: int = DEFAULT_SEARCH_CAP,
    codim_pruning: bool = False,
) -> LowerBound | TverbergCertificate:
    """The main theorem's chromatic lower bound for K placed at P, or why it fails.

    Runs the partition search over the faces of K. On absence, returns
    the floor-formula bound for the disjointness hypergraph of K's
    minimal nonfaces; when some r disjoint faces do meet, returns that
    certificate instead, and the placement proves nothing. codim_pruning
    is passed to the search, restricted to K, which prunes only at
    distinct moment-curve parameters, for r = 2, and for r >= 3 with
    fewer than 3(d+2)/2 points; elsewhere it walks every tuple (see
    tverberg_search).

    For Kneser graphs KG(n, k), the (k-2)-skeleton of the simplex on n
    labels at moment-curve points in R^(2k-3) gives (n-1) - (2k-3) =
    n - 2k + 2, which is chi. Schrijver graphs are out of reach this
    way: their complex is the boundary of the cyclic polytope
    C(n, 2k-2), which sits in R^(2k-2), so the formula gives n - 2k + 1,
    one short. The argument that closes the gap is an equivariant map,
    not an affine placement.
    """
    search = tverberg_search(P, r, restrict_to=K, cap=cap, codim_pruning=codim_pruning)
    if isinstance(search, TverbergCertificate):
        return search
    return LowerBound(K, P, r, bound_floor_formula(K.n - 1, r, P.d), search)


@dataclass(frozen=True)
class ChromaticResult:
    """chi with its witness coloring and what rules out chi - 1.

    refuted_k and refutation_nodes describe the exhaustive search that
    failed at chi - 1, when one ran; lower_bound is the certified bound
    the search started from, when one was given. When that bound equals
    chi, no refutation runs and it is the whole lower half of the proof.
    """

    chi: int
    coloring: Coloring
    search_nodes: int
    refuted_k: Optional[int]
    refutation_nodes: Optional[int]
    lower_bound: Optional[LowerBound] = None

    def to_json_dict(self) -> dict:
        out = {"chi": self.chi, "search_nodes": self.search_nodes}
        out["coloring"] = self.coloring.to_json_dict()
        if self.refuted_k is not None:
            out["refutation"] = {"k": self.refuted_k, "nodes": self.refutation_nodes}
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound.to_json_dict()
        return out


def _adjacency_masks(H: Hypergraph) -> list[int]:
    adj = [0] * H.n_vertices
    for a, b in H.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _greedy_clique_size(adj: Sequence[int], order: Sequence[int]) -> int:
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~adj[v] == 0:
            clique_mask |= 1 << v
            size += 1
    return size


class _Budget:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _feasible_graph(adj: list[int], degrees: list[int], k: int, budget: _Budget) -> Optional[list[int]]:
    """Backtracking k-colorability for the 2-uniform case.

    Vertex choice: most saturated, then highest degree, then lowest id.
    Colors are introduced canonically (a vertex may use at most one color
    beyond those already in use), and coloring a vertex updates the
    saturation masks of its uncolored neighbors, pruning any neighbor
    left without an available color.
    """
    n = len(adj)
    colors = [0] * n
    nbr_colors = [0] * n
    full = (1 << k) - 1

    def rec(done: int, used: int) -> bool:
        budget.nodes += 1
        if done == n:
            return True
        best = -1
        best_key = None
        for v in range(n):
            if colors[v] == 0:
                key = (nbr_colors[v].bit_count(), degrees[v], -v)
                if best_key is None or key > best_key:
                    best_key = key
                    best = v
        v = best
        avail = ~nbr_colors[v] & ((1 << min(used + 1, k)) - 1)
        while avail:
            bit = avail & -avail
            avail -= bit
            c = bit.bit_length()
            colors[v] = c
            touched = []
            dead = False
            nb = adj[v]
            while nb:
                u_bit = nb & -nb
                nb -= u_bit
                u = u_bit.bit_length() - 1
                if colors[u] == 0 and not nbr_colors[u] & bit:
                    nbr_colors[u] |= bit
                    touched.append(u)
                    if nbr_colors[u] == full:
                        dead = True
            if not dead and rec(done + 1, max(used, c)):
                return True
            for u in touched:
                nbr_colors[u] &= ~bit
            colors[v] = 0
        return False

    try:
        return colors if rec(0, 0) else None
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return


def _first_coloring(H: Hypergraph, k: int, order: Sequence[int], budget: _Budget) -> Optional[list[int]]:
    """First proper k-coloring met by a depth-first search in a static vertex order.

    chromatic_number runs it in vertex id order for its witness; the
    feasibility decisions are _decide's. Vertices are colored in
    `order`, trying colors in ascending order, at most one beyond those
    already in use. Each edge is attached once, to its vertex that comes
    last in `order`, as the mask of its other vertices (for graphs these
    fold into one neighbor mask per vertex).
    cls[c] is the mask of the vertices holding color c, and c is refused
    at v when an attached rest lies inside it, that is, when v would
    complete a monochromatic edge. An edge with an uncolored vertex cannot
    be monochromatic yet, so this refuses exactly what checking every
    incident edge refuses. Under the identity order the result is the
    lexicographically least proper k-coloring: that coloring introduces
    its colors in increasing order, so the one-beyond rule never skips it.
    """
    n = H.n_vertices
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    near = [0] * n
    far: list[list[int]] = [[] for _ in range(n)]
    if H.r == 2:
        for a, b in H.edges:
            if rank[a] < rank[b]:
                near[b] |= 1 << a
            else:
                near[a] |= 1 << b
    else:
        for e in H.edges:
            top = max(e, key=rank.__getitem__)
            far[top].append(sum(1 << u for u in e if u != top))
    cls = [0] * (k + 1)
    colors = [0] * n

    def rec(pos: int, used: int) -> bool:
        budget.nodes += 1
        if pos == n:
            return True
        v = order[pos]
        nv, fv, bit = near[v], far[v], 1 << v
        for c in range(1, min(used + 1, k) + 1):
            cc = cls[c]
            if nv & cc or any(rest & cc == rest for rest in fv):
                continue
            colors[v] = c
            cls[c] = cc | bit
            if rec(pos + 1, max(used, c)):
                return True
            cls[c] = cc
        return False

    try:
        return colors if rec(0, 0) else None
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return


def _feasible_hypergraph(
    rests: list[list[int]], degrees: list[int], k: int, budget: _Budget
) -> Optional[list[int]]:
    """Backtracking k-colorability for arity three and up, with forward checking.

    rests[v] holds each edge at v as the mask of its other vertices.
    cls[c] is the mask of the vertices holding color c, and forb[v] the
    colors that would complete a monochromatic edge at v. Coloring v
    with c looks at each rest of v: when exactly one vertex u of it lies
    outside cls[c] and u is uncolored, c is forbidden at u until v is
    uncolored again, and a vertex left with every color forbidden ends
    the branch. A rest never lies inside cls[c], since c is not
    forbidden at v. Vertex choice: most forbidden colors, then most
    incident edges, then lowest id; colors are introduced canonically,
    as in _feasible_graph.
    """
    n = len(rests)
    colors = [0] * n
    forb = [0] * n
    cls = [0] * (k + 1)
    full = (1 << k) - 1

    def rec(done: int, used: int) -> bool:
        budget.nodes += 1
        if done == n:
            return True
        best = -1
        best_key = None
        for v in range(n):
            if colors[v] == 0:
                key = (forb[v].bit_count(), degrees[v], -v)
                if best_key is None or key > best_key:
                    best_key = key
                    best = v
        v = best
        v_bit = 1 << v
        avail = ~forb[v] & ((1 << min(used + 1, k)) - 1)
        while avail:
            bit = avail & -avail
            avail -= bit
            c = bit.bit_length()
            colors[v] = c
            cc = cls[c]
            cls[c] = cc | v_bit
            outside = ~(cc | v_bit)
            touched = []
            dead = False
            for rest in rests[v]:
                left = rest & outside
                if not left & (left - 1):
                    u = left.bit_length() - 1
                    if colors[u] == 0 and not forb[u] & bit:
                        forb[u] |= bit
                        touched.append(u)
                        if forb[u] == full:
                            dead = True
            if not dead and rec(done + 1, max(used, c)):
                return True
            for u in touched:
                forb[u] &= ~bit
            cls[c] = cc
            colors[v] = 0
        return False

    try:
        return colors if rec(0, 0) else None
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return


def _kernel_inputs(H: Hypergraph) -> tuple[list, list[int]]:
    """What the decision kernels read of H, built once per hypergraph.

    For graphs, one adjacency mask per vertex; for arity three and up,
    each vertex's incident edges minus itself, as masks. Then the
    degrees: neighbors for graphs, incident edges otherwise.
    """
    if H.r == 2:
        adj = _adjacency_masks(H)
        return adj, [a.bit_count() for a in adj]
    rests: list[list[int]] = [[] for _ in range(H.n_vertices)]
    for e in H.edges:
        m = 0
        for v in e:
            m |= 1 << v
        for v in e:
            rests[v].append(m ^ (1 << v))
    return rests, [len(x) for x in rests]


def _decide(
    H: Hypergraph,
    k: int,
    budget: _Budget,
    inputs: Optional[tuple[list, list[int]]] = None,
) -> Optional[list[int]]:
    """One feasibility decision: a proper k-coloring of H, or None when there is none.

    DSATUR for graphs (_feasible_graph), DSATUR with forward checking
    over edge rests otherwise (_feasible_hypergraph); the nodes go to
    budget. inputs is _kernel_inputs(H), when the caller already has it.
    Any k >= 0 is decided, the empty hypergraph being 0-colorable and an
    edgeless one 1-colorable.
    """
    nbrs, degrees = _kernel_inputs(H) if inputs is None else inputs
    if H.r == 2:
        return _feasible_graph(nbrs, degrees, k, budget)
    return _feasible_hypergraph(nbrs, degrees, k, budget)


def _chi(
    H: Hypergraph, max_vertices: int = DEFAULT_VERTEX_LIMIT, lower: Optional[LowerBound] = None
) -> tuple[int, list[int], int, Optional[int], Optional[int]]:
    """The decision ladder of chromatic_number, with no lex-least witness.

    Returns (chi, the decision search's coloring at chi, search_nodes,
    refuted_k, refutation_nodes); the numbers are chromatic_number's and
    the same checks are made. For callers that read only chi or the node
    counts.
    """
    n = H.n_vertices
    if n > max_vertices:
        raise ValueError(f"vertex count {n} exceeds the limit {max_vertices}")
    if lower is not None:
        K = lower.complex
        if H != generalized_kneser(K, simplex_complex(K.n - 1), lower.r):
            raise ValueError("the lower bound is certified for a different hypergraph")
    if n == 0:
        return 0, [], 0, None, None
    if not H.edges:
        return 1, [1] * n, 0, None, None

    inputs = _kernel_inputs(H)
    start = 2
    if H.r == 2:
        adj, degrees = inputs
        order = sorted(range(n), key=lambda v: (-degrees[v], v))
        start = max(2, _greedy_clique_size(adj, order))
    if lower is not None:
        start = max(start, lower.bound)

    total_nodes = 0
    refuted_k = None
    refutation_nodes = None
    for k in range(start, n + 1):
        budget = _Budget()
        found = _decide(H, k, budget, inputs)
        total_nodes += budget.nodes
        if found is not None:
            return k, found, total_nodes, refuted_k, refutation_nodes
        refuted_k = k
        refutation_nodes = budget.nodes
    raise ArithmeticError("no feasible palette up to the vertex count")


def chromatic_number(
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

    The returned coloring is not the decision search's: a second search
    in vertex id order finds the lexicographically least proper
    chi-coloring, so the witness does not depend on the search heuristics.
    Its nodes are not counted in search_nodes. Callers that read only chi
    or the node counts run the ladder alone (_chi).
    """
    chi, _, search_nodes, refuted_k, refutation_nodes = _chi(H, max_vertices, lower)
    witness = _first_coloring(H, chi, range(H.n_vertices), _Budget())
    if witness is None:
        raise ArithmeticError("witness search failed at the established chromatic number")
    return ChromaticResult(
        chi, Coloring(chi, tuple(witness)), search_nodes, refuted_k, refutation_nodes, lower
    )


@dataclass(frozen=True)
class GreedyColoring:
    coloring: Coloring
    colors_used: int
    proper: bool
    witness: Optional[tuple[int, ...]]

    def to_json_dict(self) -> dict:
        out = {
            "colors_used": self.colors_used,
            "proper": self.proper,
            "coloring": self.coloring.to_json_dict(),
        }
        if self.witness is not None:
            out["monochromatic_edge"] = list(self.witness)
        return out


def greedy_least_label(
    H: Hypergraph,
    r: int,
    N: int,
    *,
    max_colors: int | None = None,
) -> GreedyColoring:
    """Color each vertex by the block of its least label.

    Vertex sets live over 1..N+1; the color of a set with least element
    m is ceil(m / (r-1)), optionally clamped to max_colors. Whether the
    result is proper depends on the instance, so it is checked and
    reported rather than assumed.
    """
    if r != H.r:
        raise ValueError("arity mismatch between hypergraph and bound parameters")
    if max_colors is not None and max_colors < 1:
        raise ValueError("max_colors must be positive")
    values = []
    for vset in H.vertices:
        if not vset:
            raise ValueError("greedy coloring needs nonempty vertex sets")
        if max(vset) > N + 1:
            raise ValueError(f"vertex set {sorted(vset)} exceeds ground set 1..{N + 1}")
        c = (min(vset) + r - 2) // (r - 1)
        if max_colors is not None:
            c = min(c, max_colors)
        values.append(c)
    k = max(values) if values else 0
    coloring = Coloring(k, tuple(values))
    ok, witness = is_proper(H, coloring)
    return GreedyColoring(coloring, len(set(values)), ok, witness)


def bound_floor_formula(N: int, r: int, d: int) -> int:
    """floor(N / (r-1)) - d."""
    if r < 2:
        raise ValueError("need r >= 2")
    if N < 0:
        raise ValueError("need N >= 0")
    if d < -1:
        raise ValueError("dimension below -1")
    return N // (r - 1) - d


def kriz_bound(K: SimplicialComplex, r: int) -> Fraction:
    """r-fold width of the complex divided by r - 1, exact."""
    return Fraction(width(K, r), r - 1)


def verify_constraint_property(
    K: SimplicialComplex, L: SimplicialComplex, r: int, coloring: Coloring
) -> bool:
    """Check the color-set disjointness property of a coloring of the minimal outside faces.

    For faces sigma of L, let A(sigma) collect the colors of the minimal
    faces of L outside K that sigma contains. The property: any r
    pairwise disjoint faces of L have color sets with empty common
    intersection. It holds exactly when the coloring is proper for the
    disjointness hypergraph of the minimal outside faces, which is what
    this checks.

    Suppose r pairwise disjoint faces of L share a color c. Each contains
    a minimal outside face of color c, nonempty because the empty simplex
    is a face of K. Those r minimal faces are pairwise disjoint, so they
    form a hyperedge, and it is monochromatic, which a proper coloring
    rules out. Conversely a monochromatic hyperedge is itself r pairwise
    disjoint faces of L sharing its color.
    """
    return is_proper(generalized_kneser(K, L, r), coloring)[0]
