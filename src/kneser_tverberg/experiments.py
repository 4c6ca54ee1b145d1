"""End-to-end verification experiments.

Every experiment states its claimed values up front, recomputes them
from scratch with the library, and reports both sides with a verdict.
A report matches when every claimed entry equals the computed entry of
the same name; extra computed entries (witness data, search statistics)
never influence the verdict. All values are integers, booleans, or
exact rationals rendered as strings, so matching is literal equality
with no tolerances.

Experiments are pure given their parameters: fixed seeds, canonical
enumeration orders, exact arithmetic. Wall time is reported but never
compared. The random set families are drawn by `_random_subset`, which
reads the generator's bits itself and gives exactly the sets, and the
generator states, that random.sample gives.

Each experiment family is one entry of the FAMILIES table: its default
instances, how its instance parameters are read, and how one instance
runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import islice
from math import ceil, comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .coloring import (
    DEFAULT_VERTEX_LIMIT,
    Coloring,
    LowerBound,
    _Budget,
    _chi,
    _decide,
    bound_floor_formula,
    certified_lower_bound,
    chromatic_number,
    greedy_least_label,
    is_proper,
)
from .geometry import (
    DEFAULT_SEARCH_CAP,
    PointConfiguration,
    _avg_stable_placement,
    _blocks_by_side,
    _curve_table,
    _intertwined_from_blocks,
    _separating_from_blocks,
    cyclic_missing_faces,
    gale_facets,
    hull_facets_oracle,
    moment_points,
    tverberg_partition,
)
from .hypergraphs import (
    avg_stability_parameter,
    generalized_kneser,
    intersection_hypergraph,
    kneser_hypergraph,
    minimize_system,
    s_stable_subsets,
    stable_avg_hypergraph,
    width,
)
from .simplicial import GROUND_LIMIT, SimplicialComplex, complex_from_forbidden, simplex_complex


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    claimed: dict
    computed: dict
    verdict: str
    runtime_s: float
    notes: tuple[str, ...] = ()
    provenance: str = ""

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "experiment": self.name,
            "parameters": self.parameters,
            "claimed": self.claimed,
            "provenance": self.provenance,
            "computed": self.computed,
            "verdict": self.verdict,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if include_runtime:
            out["runtime_s"] = round(self.runtime_s, 3)
        return out


def _finish(
    name: str,
    parameters: dict,
    claimed: dict,
    computed: dict,
    t0: float,
    notes: Iterable[str] = (),
    provenance: str = "",
) -> ExperimentReport:
    verdict = "match" if all(computed.get(k) == v for k, v in claimed.items()) else "mismatch"
    return ExperimentReport(
        name,
        parameters,
        claimed,
        computed,
        verdict,
        time.perf_counter() - t0,
        tuple(notes),
        provenance,
    )


# -- exact chromatic numbers of Kneser graphs --------------------------


def verify_kneser(k: int, n: int, max_vertices: int = DEFAULT_VERTEX_LIMIT) -> ExperimentReport:
    """Exact chromatic number of the Kneser graph of k-subsets of 1..n.

    Claim: n - 2k + 2 colors (n >= 2k). The matching upper bound comes
    from the least-label greedy coloring capped at that many colors,
    which is proper because any two k-subsets confined to the last
    2k - 1 labels intersect.

    For k >= 2 the lower bound is certified, not searched for: the
    (k-2)-skeleton of the simplex on 1..n, whose minimal nonfaces are
    the k-subsets, is placed on the moment curve in R^(2k-3), and a sweep
    of every pair of disjoint faces (no codimension pruning) finds no meeting
    hulls, so the floor formula gives n - 2k + 2. The solver starts
    there. For k = 1 the dimension would be -1, and the solver's own
    refutation is used.
    """
    t0 = time.perf_counter()
    if n < 2 * k:
        raise ValueError("need n >= 2k")
    target = n - 2 * k + 2
    H = kneser_hypergraph(2, k, n)
    lower = None
    if k >= 2:
        K = simplex_complex(n - 1).skeleton(k - 2)
        lower = certified_lower_bound(K, moment_points(range(1, n + 1), 2 * k - 3), 2)
        if not isinstance(lower, LowerBound):
            raise ArithmeticError("disjoint faces meet on the moment curve below dimension 2k - 2")
    chi, _, search_nodes, _, _ = _chi(H, max_vertices, lower)
    greedy = greedy_least_label(H, 2, n - 1, max_colors=target)
    claimed = {"chi": target, "greedy_colors": target, "greedy_proper": True}
    computed = {
        "chi": chi,
        "greedy_colors": greedy.colors_used,
        "greedy_proper": greedy.proper,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
        "search_nodes": search_nodes,
        "chi_source": "solver" if lower is None else "certified_bound",
    }
    if lower is not None:
        computed["lower_bound"] = lower.bound
    return _finish(
        f"kneser-{k}-{n}",
        {"k": k, "n": n},
        claimed,
        computed,
        t0,
        provenance="Kneser graph chromatic formula",
    )


def verify_schrijver(
    k: int, n: int, check_critical: bool = False, max_vertices: int = DEFAULT_VERTEX_LIMIT
) -> ExperimentReport:
    """Chromatic number of the subgraph induced on 2-stable k-subsets.

    Claim: still n - 2k + 2. With check_critical, also claim that every
    single-vertex deletion is colorable with one color fewer.

    The criticality check makes one decision per deletion, at chi - 1,
    and builds no lex-least witness. That decides chi(H - v): it is at
    most chi, since a coloring of H restricts to H - v, and at least
    chi - 1, since a proper coloring of H - v plus a new color for v is
    proper on H (every edge through v has another vertex, of another
    color). So H - v is (chi - 1)-colorable exactly when chi(H - v) is
    chi - 1, and chi otherwise; deletion_chis lists these values. Each
    (chi - 1)-coloring found is rechecked on H - v, and an improper one
    raises ArithmeticError.
    """
    t0 = time.perf_counter()
    target = n - 2 * k + 2
    H = intersection_hypergraph(s_stable_subsets(k, n, 2), 2)
    chi = _chi(H, max_vertices)[0]
    claimed = {"chi": target}
    computed: dict = {"chi": chi, "vertices": H.n_vertices, "edges": H.n_edges}
    if check_critical:
        drops = []
        for v in range(H.n_vertices):
            sub = H.induced([u for u in range(H.n_vertices) if u != v])
            found = _decide(sub, chi - 1, _Budget())
            if found is not None and not is_proper(sub, Coloring(chi - 1, tuple(found)))[0]:
                raise ArithmeticError("deletion coloring is not proper")
            drops.append(chi if found is None else chi - 1)
        claimed["vertex_critical"] = True
        computed["vertex_critical"] = all(c == chi - 1 for c in drops)
        computed["deletion_chis"] = sorted(set(drops))
    return _finish(
        f"schrijver-{k}-{n}",
        {"k": k, "n": n, "check_critical": check_critical},
        claimed,
        computed,
        t0,
        provenance="stable Kneser graph chromatic formula",
    )


# -- structural lemmas on random inputs --------------------------------


def _random_subset(rng: random.Random, n: int) -> frozenset[int]:
    """A random nonempty subset of 1..n, read from rng.getrandbits directly.

    It is frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))), and
    rng is left in the state that expression leaves it in. Both calls
    draw through Random._randbelow_with_getrandbits: a draw below m takes
    m.bit_length() bits, and takes them again while the value is at
    least m. The size is 1 plus a draw k below n. Then sample's pool
    branch picks k + 1 labels: a draw j below the number of labels left
    picks pool[j], and the last label left moves into its place. sample
    takes that branch for every size whenever n <= 21; above that it may
    keep its picks in a set instead, so for n > 21 the helper calls
    rng.sample itself. tests/test_subset_draw_oracle.py pins this,
    generator state included.
    """
    if n > 21:
        return frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    k = getrandbits(bits)
    while k >= n:
        k = getrandbits(bits)
    pool = list(range(1, n + 1))
    picks = []
    for left in range(n, n - k - 1, -1):
        bits = left.bit_length()
        j = getrandbits(bits)
        while j >= left:
            j = getrandbits(bits)
        picks.append(pool[j])
        pool[j] = pool[left - 1]
    return frozenset(picks)


def _random_antichain(rng: random.Random, n: int) -> list[frozenset[int]]:
    """Inclusion-minimal members of 1..2n random nonempty subsets of 1..n (never empty)."""
    m = rng.randint(1, 2 * n)
    fam = [_random_subset(rng, n) for _ in range(m)]
    return list(minimize_system(fam))


def verify_roundtrip(count: int = 200, max_ground: int = 8, seed: int = 0) -> ExperimentReport:
    """Forbidden-family round trip on random antichains.

    For an antichain G on 1..n, the complex with G as its forbidden
    sets has exactly G as minimal nonfaces, so the general two-complex
    construction over the full simplex must reproduce the disjointness
    hypergraph of G itself, vertex for vertex and edge for edge. Over
    the full simplex on 1..n every nonface of K is a face, so the
    construction's vertices are exactly K's minimal nonfaces, in the
    same canonical order; they are compared with minimize_system(G)
    directly.

    Each instance draws n in 3..max_ground, then r in {2, 3}, then G:
    the minimal members of 1..2n random nonempty subsets of 1..n, each
    drawn by _random_subset, the same sets as random.sample's. Since the
    complex is built on 1..n, max_ground may not exceed GROUND_LIMIT.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if not 3 <= max_ground <= GROUND_LIMIT:
        raise ValueError(f"max_ground must be between 3 and {GROUND_LIMIT}, got {max_ground}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    agree = 0
    for _ in range(count):
        n = rng.randint(3, max_ground)
        r = rng.randint(2, 3)
        G = _random_antichain(rng, n)
        K = complex_from_forbidden(G, n)
        direct = intersection_hypergraph(G, r)
        via_complex = generalized_kneser(K, simplex_complex(n - 1), r)
        if direct == via_complex and via_complex.vertices == minimize_system(G):
            agree += 1
    claimed = {"agreements": count}
    computed = {"agreements": agree, "count": count}
    return _finish(
        "roundtrip",
        {"count": count, "max_ground": max_ground, "seed": seed},
        claimed,
        computed,
        t0,
        provenance="forbidden family correspondence",
    )


def verify_dismantle(count: int = 100, max_ground: int = 7, seed: int = 0) -> ExperimentReport:
    """Minimization preserves the chromatic number of the disjointness graph.

    Dropping a set that contains another member never changes chi: the
    superset is disjoint from fewer sets, and any proper coloring of the
    minimal members extends by giving each superset the color of a
    member inside it.

    Each instance draws n in 3..max_ground, then m in 1..18, then m
    random nonempty subsets of 1..n by _random_subset, the same sets as
    random.sample's.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if max_ground < 3:
        raise ValueError(f"max_ground must be at least 3, got {max_ground}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    agree = 0
    for _ in range(count):
        n = rng.randint(3, max_ground)
        m = rng.randint(1, 18)
        fam = [_random_subset(rng, n) for _ in range(m)]
        chi_full = _chi(intersection_hypergraph(fam, 2))[0]
        chi_min = _chi(intersection_hypergraph(minimize_system(fam), 2))[0]
        if chi_full == chi_min:
            agree += 1
    claimed = {"agreements": count}
    computed = {"agreements": agree, "count": count}
    return _finish(
        "dismantle",
        {"count": count, "max_ground": max_ground, "seed": seed},
        claimed,
        computed,
        t0,
        provenance="superset removal invariance",
    )


# -- constraint property of extended colorings -------------------------


def verify_constraint(max_vertices: int = DEFAULT_VERTEX_LIMIT) -> list[ExperimentReport]:
    """Color-set disjointness for the optimal colorings of the test graphs.

    For each instance the exact solver's witness coloring is extended
    from the minimal outside faces to all faces of the simplex, and the
    extension must give r pairwise disjoint faces color sets with empty
    intersection. That holds exactly when the coloring is proper (the
    proof is `verify_constraint_property`'s), so propriety is checked on
    the hypergraph the solver just colored.
    """
    instances = [
        (f"constraint-kneser-{k}-{n}", simplex_complex(n - 1).skeleton(k - 2), n)
        for k, n in KNESER_INSTANCES
    ] + [
        (f"constraint-schrijver-{k}-{n}", complex_from_forbidden(s_stable_subsets(k, n, 2), n), n)
        for k, n, _ in SCHRIJVER_INSTANCES
    ]
    out = []
    for name, K, n in instances:
        t0 = time.perf_counter()
        L = simplex_complex(n - 1)
        H = generalized_kneser(K, L, 2)
        res = chromatic_number(H, max_vertices=max_vertices)
        ok = is_proper(H, res.coloring)[0]
        claimed = {"property_holds": True}
        computed = {"property_holds": ok, "chi": res.chi}
        out.append(
            _finish(
                name,
                {"ground": L.n},
                claimed,
                computed,
                t0,
                provenance="color class disjointness property",
            )
        )
    return out


# -- sphere boundary complexes ------------------------------------------


def verify_spherical(
    K: SimplicialComplex,
    d: int,
    sphere: str = "caller-asserted",
    max_vertices: int = DEFAULT_VERTEX_LIMIT,
) -> ExperimentReport:
    """Chromatic number of the disjointness graph of a sphere's missing faces.

    For the boundary complex of a d-dimensional polytope-like sphere on
    ground 1..N+1, the claim is exactly N+1-d colors. Whether K really
    triangulates a (d-1)-sphere is the caller's assertion; it is
    recorded in the parameters, not rechecked.
    """
    t0 = time.perf_counter()
    N = K.n - 1
    target = N + 1 - d
    H = generalized_kneser(K, simplex_complex(N), 2)
    chi = _chi(H, max_vertices)[0]
    claimed = {"chi": target}
    computed = {"chi": chi, "vertices": H.n_vertices, "edges": H.n_edges}
    return _finish(
        f"spherical-{sphere}",
        {"sphere": sphere, "sphere_asserted": True, "d": d, "N": N},
        claimed,
        computed,
        t0,
        provenance="sphere boundary chromatic formula",
    )


def spherical_instance(name: str) -> tuple[SimplicialComplex, int]:
    """Built-in sphere boundaries, by name."""
    if name == "hexagon":
        return SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]), 2
    if name == "cyclic-4-7":
        return SimplicialComplex(7, gale_facets(7, 4)), 4
    if name == "tetrahedron":
        return simplex_complex(3).skeleton(2), 3
    raise ValueError(f"unknown sphere instance {name!r}")


# -- cyclic polytopes ---------------------------------------------------


def verify_gale(n: int, d: int) -> ExperimentReport:
    """Evenness facets against the exact half-space oracle."""
    t0 = time.perf_counter()
    via_rule = set(gale_facets(n, d))
    via_oracle = set(hull_facets_oracle(moment_points(range(1, n + 1), d)))
    claimed = {"identical": True}
    computed = {
        "identical": via_rule == via_oracle,
        "facets": len(via_rule),
        "oracle_facets": len(via_oracle),
    }
    return _finish(
        f"gale-{n}-{d}",
        {"n": n, "d": d},
        claimed,
        computed,
        t0,
        provenance="evenness facet criterion",
    )


def verify_stable_faces(n: int, d: int) -> ExperimentReport:
    """Missing faces of an even cyclic polytope boundary are the 2-stable sets.

    For the boundary of the 2d-dimensional cyclic polytope on n
    vertices, the minimal nonfaces are exactly the 2-stable
    (d+1)-subsets of the n-cycle, all of the same cardinality d+1.
    """
    t0 = time.perf_counter()
    missing = set(cyclic_missing_faces(n, 2 * d))
    stable = set(s_stable_subsets(d + 1, n, 2))
    claimed = {"identical": True, "uniform_cardinality": True}
    computed = {
        "identical": missing == stable,
        "uniform_cardinality": all(len(f) == d + 1 for f in missing),
        "missing_faces": len(missing),
        "stable_sets": len(stable),
    }
    return _finish(
        f"stable-faces-{n}-{d}",
        {"n": n, "d": d},
        claimed,
        computed,
        t0,
        provenance="even cyclic polytope missing faces",
    )


# -- affine partition searches ------------------------------------------


def _random_draws(r: int, d: int, seed: int) -> Iterator[PointConfiguration]:
    """The configurations verify_tverberg_random partitions, in order, without end.

    Each has (r-1)(d+1)+1 points with coordinates k/64, |k| <= 4096.
    """
    rng = random.Random(seed)
    n_points = (r - 1) * (d + 1) + 1
    while True:
        yield PointConfiguration(
            d,
            {
                lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(d))
                for lab in range(1, n_points + 1)
            },
        )


def verify_tverberg_random(r: int, d: int, count: int = 25, seed: int = 0) -> ExperimentReport:
    """Random configurations of (r-1)(d+1)+1 points always partition.

    Each configuration is drawn once and handed to tverberg_partition;
    the claim is a certificate every time, and every certificate is
    re-verified from scratch. No draw needs general position:
    - r = 2 (Radon): n = d+2 lifted points (p, 1) in Q^(d+1) are
      linearly dependent, and any nonzero dependence v sums to 0 on the
      ones row, so its positive and negative supports are two nonempty
      parts, and weights v_i over the positive sum put both at one point.
    - d = 1, r >= 3: with the points sorted, the r-th smallest m lies
      between the i-th smallest and the i-th largest for every i < r,
      since n = 2r-1; those r-1 pairs and {m} are r parts whose
      intervals all hold m.
    - Otherwise (r >= 3, d >= 2) Sarkaria's lifting: the n points lift
      to n colour classes in Z^n whose hulls hold e_n, and a colourful
      simplex holding e_n is the partition. A pivot walk finds one, in
      at most 8 pivots on the draws at (3, 2) and (4, 2), seeds 0-4,
      against its bound of 4n. A draw it fails on (none of those) goes
      to the search from total size n (codim_pruning), which refuses
      where its tuples exceed the cap. The floor hides no partition,
      degenerate draws included: Tverberg's theorem gives the n points
      an r-partition whose hulls meet, and Caratheodory's theorem
      shrinks each part to at most d+1 points that still hold the
      common point. Adding the unused points back keeps the hulls
      meeting, since hulls only grow, and they always fit, since
      r(d+1) >= n. That gives a meeting tuple of faces of total exactly
      n, the only total the search walks.
    tverberg_partition gives each proof.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    t0 = time.perf_counter()
    n_points = (r - 1) * (d + 1) + 1
    verified = 0
    # tverberg_partition returns a certificate or raises, so every draw gives one
    for P in islice(_random_draws(r, d, seed), count):
        verified += tverberg_partition(P, r).verify(P)
    claimed = {"certificates": count, "verified": count}
    computed = {"certificates": count, "verified": verified, "count": count}
    return _finish(
        f"tverberg-random-{r}-{d}",
        {"r": r, "d": d, "count": count, "seed": seed, "points": n_points},
        claimed,
        computed,
        t0,
        provenance="affine partition theorem",
    )


def verify_intertwined(max_points: int = 9, max_d: int = 4) -> list[ExperimentReport]:
    """Minimal intertwined pairs, exhaustively, one report per dimension 1..max_d.

    For every pair of disjoint nonempty subsets of up to max_points
    moment-curve points: either a separating polynomial of degree at
    most d certifies the hulls apart, or the minimal pair must come back
    alternating with part sizes floor(d/2)+1 and ceil(d/2)+1. Only the
    order of the curve parameters matters, so parameters 1..n cover all
    configurations. A pair counts as alternating when its parts lie in
    the input parts, in the same roles, and their merged order has
    len(Y1) + len(Y2) blocks, one label each. Labels of moment_points
    follow the parameter order, so the merged order is the sorted labels.
    Each unordered pair is taken once, as (A, B) with the smallest label
    in A: B is drawn from the labels above min(A) alone.

    The counts are those of a sweep over every size n = 2..max_points
    that takes each pair on the labels 1..n at that n. This sweep takes
    each pair once instead, on the labels 1..N, N = max_points, with the
    weight N - max(A | B) + 1. moment_points(1..n, d) gives label i the
    same point for every n >= i, and the kernels read only the points of
    A | B, so the pair gets the same answers at every n >= max(A | B),
    and there are N - max(A | B) + 1 such sizes.

    There is one configuration per dimension: the top one, in R^max_d,
    and below it the same Fractions cut to their first d coordinates.
    All share the table q = 1, u = label, so a pair's block split does
    not depend on d: it is made once. With m blocks, m <= max_d + 1,
    separating_polynomial's kernel builds and verifies the one integer
    polynomial of degree m - 1, which separates the parts in every
    dimension d >= m - 1. Each d <= m - 2 gets intertwined_pair's integer
    kernel, which reads only the picks: the first labels of the first
    d + 2 blocks. Since min(A | B) is in A, their sides alternate from A,
    so the kernel's input is fixed by d and the picks, and the minimal
    pair itself, A' the picks at even positions and one block per pick,
    gives it the same picks and sides and the same integer checks. The
    sweep makes that call once per set of picks, keyed by their bitmask
    (d is its popcount less 2), and keeps only the minimal pair's Y1 and
    Y2 as bitmasks and whether they have the claimed sizes and
    alternate; Y1 within A and Y2 within B is checked for every pair.
    The reports share the sweep's wall time: each runtime_s is the
    elapsed time of the whole sweep divided by max_d.
    """
    if max_d < 1 or max_points < 2:
        raise ValueError(f"need max_points >= 2 and max_d >= 1, got {max_points} and {max_d}")
    t0 = time.perf_counter()
    dims = range(1, max_d + 1)
    N = max_points
    top = moment_points(range(1, N + 1), max_d)
    labels = top.labels
    Ps = [None] + [
        PointConfiguration(d, [(lab, top.point(lab)[:d]) for lab in labels])
        for d in range(1, max_d)
    ] + [top]
    q, u = _curve_table(top)
    pairs = 0
    intersecting = [0] * (max_d + 1)
    separated = [0] * (max_d + 1)
    good_sizes = [0] * (max_d + 1)
    alternating = [0] * (max_d + 1)
    want = [{d // 2 + 1, (d + 1) // 2 + 1} for d in range(max_d + 1)]
    decided: dict[int, tuple[int, int, bool, bool]] = {}
    for amask in range(1, 1 << N):
        A = frozenset(lab for lab in labels if amask >> (lab - 1) & 1)
        low = min(A)
        rest = [lab for lab in labels if lab > low and lab not in A]
        rn = len(rest)
        for bmask in range(1, 1 << rn):
            B = frozenset(rest[i] for i in range(rn) if bmask >> i & 1)
            bits = sum(1 << (lab - 1) for lab in B)
            # the sizes n = max(A | B)..N that hold the pair
            weight = N - (amask | bits).bit_length() + 1
            pairs += weight
            blocks = _blocks_by_side(u, A, B)
            m = len(blocks)
            if m <= max_d + 1 and _separating_from_blocks(top, A, B, u, blocks) is not None:
                for d in range(m - 1, max_d + 1):
                    separated[d] += weight
            # the bitmask of the picks, which fixes the minimal pair and d
            key = 1 << (blocks[0][0] - 1) | 1 << (blocks[1][0] - 1)
            for d, blk in enumerate(blocks[2 : max_d + 2], 1):
                key |= 1 << (blk[0] - 1)
                known = decided.get(key)
                if known is None:
                    picks = [b[0] for b in blocks[: d + 2]]
                    picks, w = _intertwined_from_blocks(
                        Ps[d], frozenset(picks[::2]), q, u, [[lab] for lab in picks]
                    )
                    Y1 = frozenset(lab for lab, wi in zip(picks, w) if wi > 0)
                    Y2 = frozenset(picks) - Y1
                    merged = sorted(Y1 | Y2)
                    switches = sum((a in Y1) != (b in Y1) for a, b in zip(merged, merged[1:]))
                    known = decided[key] = (
                        sum(1 << (lab - 1) for lab in Y1),
                        sum(1 << (lab - 1) for lab in Y2),
                        # the two sizes in want sum to d + 2; for even d both
                        # parts take the one size
                        {len(Y1), len(Y2)} == want[d],
                        switches + 1 == len(Y1) + len(Y2),
                    )
                y1, y2, sized, alternates = known
                intersecting[d] += weight
                if sized:
                    good_sizes[d] += weight
                if alternates and not y1 & ~amask and not y2 & ~bits:
                    alternating[d] += weight
    out = []
    for d in dims:
        claimed = {
            "alternating": intersecting[d],
            "good_sizes": intersecting[d],
            "accounted": pairs,
        }
        computed = {
            "alternating": alternating[d],
            "good_sizes": good_sizes[d],
            "accounted": separated[d] + intersecting[d],
            "pairs": pairs,
            "intersecting": intersecting[d],
            "separated": separated[d],
        }
        out.append(
            _finish(
                f"intertwined-d{d}",
                {"d": d, "max_points": max_points},
                claimed,
                computed,
                t0,
                provenance="alternating minimal pair criterion",
            )
        )
    share = (time.perf_counter() - t0) / max_d
    return [replace(rep, runtime_s=share) for rep in out]


# -- average stability --------------------------------------------------


def _is_prime_power(r: int) -> bool:
    if r < 2:
        return False
    for p in range(2, r + 1):
        if p * p > r:
            return r > 1
        if r % p == 0:
            q = r
            while q % p == 0:
                q //= p
            return q == 1
    return False


def verify_avg_stable(
    r: int,
    k: int,
    n: int,
    seed: int = 0,
    max_vertices: int = DEFAULT_VERTEX_LIMIT,
    cap: int = DEFAULT_SEARCH_CAP,
) -> ExperimentReport:
    """Ceiling formula for the average-stability Kneser hypergraph.

    Pipeline: build the hypergraph on the t-stable-on-average k-subsets
    with t = r(k-3)/(2(k-1)) + 1, place the complex of all other faces
    on the moment curve (one seeded draw; see avg_stable_placement),
    verify absence of r-fold intersections among its faces, and pin the
    chromatic number between the resulting floor-formula lower bound and
    the capped least-label greedy upper bound. When the vertex count is
    small enough the exact solver cross-checks the pinch; when the
    formula target degenerates below 1 it is clamped and flagged.
    """
    t0 = time.perf_counter()
    if not _is_prime_power(r):
        raise ValueError("r must be a prime power")
    if (n - 1) % (r - 1):
        raise ValueError("(r-1) must divide (n-1)")
    if k < 4:
        raise ValueError("need k >= 4")
    t = avg_stability_parameter(r, k)
    raw_target = ceil(Fraction(n - r * (k - 1), r - 1))
    degenerate = raw_target < 1
    target = max(1, raw_target)
    d = (r * (k - 1) - 1) // (r - 1)

    H = stable_avg_hypergraph(r, k, n, t)
    notes = []
    computed: dict = {
        "t": str(t),
        "d": d,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
        "formula_raw": raw_target,
    }
    if degenerate:
        notes.append("formula target below 1, clamped")

    K, P = _avg_stable_placement(r, k, d, n, seed, H.vertices)
    certified = certified_lower_bound(K, P, r, cap=cap, codim_pruning=True)
    absence = isinstance(certified, LowerBound)
    computed["absence_verified"] = absence
    lower = max(1, certified.bound) if absence else 1
    computed["lower_bound"] = lower

    if H.n_vertices == 0:
        chi: Optional[int] = 0
    elif H.n_vertices <= max_vertices:
        chi = _chi(H, max_vertices)[0]
        computed["chi_source"] = "solver"
    else:
        greedy = greedy_least_label(H, r, n - 1, max_colors=target)
        computed["greedy_colors"] = greedy.colors_used
        computed["greedy_proper"] = greedy.proper
        upper = greedy.colors_used if greedy.proper else None
        if upper is not None and lower == upper:
            chi = upper
            computed["chi_source"] = "bounds_pinch"
        else:
            chi = None
            notes.append("bounds did not pinch, chi undetermined")
    computed["chi"] = chi
    claimed = {"chi": target, "absence_verified": True}
    return _finish(
        f"avg-stable-{r}-{k}-{n}",
        {"r": r, "k": k, "n": n, "seed": seed},
        claimed,
        computed,
        t0,
        notes,
        provenance="average stability chromatic ceiling",
    )


def verify_nonprimepower(r: int = 6, k: int = 2) -> ExperimentReport:
    """Structural count for the edgeless instance at a non-prime-power r.

    With N = (r-1)(rk+2) and the skeleton of dimension (r-1)k, the
    minimal nonfaces are the ((r-1)k+2)-subsets, and r of them need
    r((r-1)k+2) = N+2 labels, one more than available: no hyperedges, so
    the chromatic number is 1, strictly below the floor-formula value
    for the natural placement dimension rk. Everything is arithmetic on
    binomial-coefficient scale; the giant complex is never built.
    """
    t0 = time.perf_counter()
    N = (r - 1) * (r * k + 2)
    skel_dim = (r - 1) * k
    nonface_size = skel_dim + 2
    needed = r * nonface_size
    d = r * k
    formula = bound_floor_formula(N, r, d)
    vertices = comb(N + 1, nonface_size)
    claimed = {
        "needed_labels": N + 2,
        "edges": 0,
        "chi": 1,
        "floor_formula": 2,
        "bound_applicable": False,
    }
    computed = {
        "N": N,
        "skeleton_dim": skel_dim,
        "nonface_size": nonface_size,
        "needed_labels": needed,
        "available_labels": N + 1,
        "vertices": vertices,
        "edges": 0 if needed > N + 1 else None,
        "chi": 1 if needed > N + 1 and vertices > 0 else None,
        "floor_formula": formula,
        "bound_applicable": False,
    }
    notes = ("chi below the formula, so no absence placement can exist at this r",)
    return _finish(
        f"nonprimepower-{r}-{k}",
        {"r": r, "k": k},
        claimed,
        computed,
        t0,
        notes,
        provenance="edgeless instance outside prime power orders",
    )


# -- bound pipeline -------------------------------------------------------


def pipeline_instance(name: str) -> tuple[SimplicialComplex, int, PointConfiguration, dict]:
    """Built-in instances for the bound pipeline, by name.

    cyclic-shift-cone, the coned six-cycle on hexagon plus center, is the
    tight floor bound: floor formula, chi and greedy colors are all 4,
    while the fractional width bound only reaches 2. kriz-line is the
    width-comparison example: width 3, fractional bound 3/2, floor
    formula 1, chi 2.
    """
    if name == "cyclic-shift-cone":
        K = spherical_instance("hexagon")[0].cone()
        P = PointConfiguration(
            2, {1: (2, 0), 2: (1, 2), 3: (-1, 2), 4: (-2, 0), 5: (-1, -2), 6: (1, -2), 7: (0, 0)}
        )
        claimed = {
            "bound_respected": True,
            "floor_formula": 4,
            "chi": 4,
            "kriz_ceiling": 2,
            "greedy_colors": 4,
            "greedy_proper": True,
        }
        return K, 2, P, claimed
    if name == "kriz-line":
        K = simplex_complex(5).skeleton(0)
        P = moment_points([1, 2, 3, 4, 5, 6], 1)
        claimed = {
            "bound_respected": True,
            "width": 3,
            "kriz": "3/2",
            "floor_formula": 1,
            "chi": 2,
            "kriz_ceiling": 2,
        }
        return K, 3, P, claimed
    if name == "k5-plane":
        K = simplex_complex(4).skeleton(1)
        P = PointConfiguration(2, {1: (0, 0), 2: (4, 0), 3: (1, 4), 4: (1, 1), 5: (2, 2)})
        claimed = {
            "bound_applicable": False,
            "chi": 1,
            "floor_formula": 2,
        }
        return K, 2, P, claimed
    raise ValueError(f"unknown pipeline instance {name!r}")


def verify_pipeline(
    instance: str, max_vertices: int = DEFAULT_VERTEX_LIMIT, cap: int = DEFAULT_SEARCH_CAP
) -> ExperimentReport:
    """Absence search plus all three bounds for one built-in complex and placement.

    If the restricted search certifies absence, the floor formula is a
    valid lower bound for the exact chromatic number and the report
    asserts that inequality; if a partition certificate shows up
    instead, the bound is reported as not applicable for this placement.
    The greedy and fractional-width bounds are always reported. The
    dimension d is the placement's.
    """
    K, r, placement, claimed = pipeline_instance(instance)
    t0 = time.perf_counter()
    d = placement.d
    certified = certified_lower_bound(K, placement, r, cap=cap)
    absence = isinstance(certified, LowerBound)
    N = K.n - 1
    H = generalized_kneser(K, simplex_complex(N), r)
    chi = _chi(H, max_vertices)[0]
    greedy = greedy_least_label(H, r, N)
    w = width(K, r)
    kb = Fraction(w, r - 1)
    computed = {
        "absence_verified": absence,
        "bound_applicable": absence,
        "floor_formula": bound_floor_formula(N, r, d),
        "chi": chi,
        "bound_respected": (chi >= certified.bound) if absence else None,
        "width": w,
        "kriz": str(kb),
        "kriz_ceiling": ceil(kb),
        "greedy_colors": greedy.colors_used,
        "greedy_proper": greedy.proper,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
    }
    if not absence:
        computed["certificate_parts"] = [sorted(p) for p in certified.parts]
    return _finish(
        f"pipeline-{instance}",
        {"r": r, "d": d, "ground": K.n},
        claimed,
        computed,
        t0,
        provenance="placement certified floor bound",
    )


# -- the experiment table and the runner ----------------------------------

# Default instances, each a tuple of instance parameters.
KNESER_INSTANCES = ((2, 5), (2, 6), (2, 7), (3, 7))
SCHRIJVER_INSTANCES = ((2, 5, 1), (2, 6, 0), (3, 7, 0))
GALE_INSTANCES = ((5, 2), (6, 2), (6, 4), (7, 4), (8, 4), (8, 6))
STABLE_FACE_INSTANCES = ((6, 1), (7, 2), (8, 2), (9, 3))
TVERBERG_INSTANCES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 2))
AVG_STABLE_INSTANCES = ((2, 4, 10), (2, 4, 11), (3, 4, 7))
PIPELINE_INSTANCES = (("cyclic-shift-cone",), ("kriz-line",), ("k5-plane",))
SPHERICAL_INSTANCES = (("hexagon",), ("cyclic-4-7",), ("tetrahedron",))

Task = Callable[[], list[ExperimentReport]]


class RunOptions(NamedTuple):
    seed: int
    cap: int
    max_vertices: int


def _flag(value: int) -> bool:
    """A 0/1 instance parameter as a bool; any other value is a usage error."""
    if value not in (0, 1):
        raise ValueError(f"a flag parameter is 0 or 1, got {value}")
    return bool(value)


class Family(NamedTuple):
    """Default instances, type and allowed counts of instance parameters, runner.

    run(options, *instance) returns the reports of one instance. It looks
    its verify function up by module-global name when it runs. Instances
    of str type are names, and the default instances are all of them.
    """

    instances: tuple[tuple, ...]
    kind: type
    counts: tuple[int, ...]
    run: Callable[..., list[ExperimentReport]]


FAMILIES = {
    "kneser": Family(
        KNESER_INSTANCES, int, (2,), lambda o, k, n: [verify_kneser(k, n, o.max_vertices)]
    ),
    "schrijver": Family(
        SCHRIJVER_INSTANCES, int, (2, 3),
        lambda o, k, n, crit=0: [verify_schrijver(k, n, _flag(crit), o.max_vertices)],
    ),
    "roundtrip": Family(((200,),), int, (1,), lambda o, m: [verify_roundtrip(m, seed=o.seed)]),
    "dismantle": Family(((100,),), int, (1,), lambda o, m: [verify_dismantle(m, seed=o.seed)]),
    "constraint": Family(((),), int, (0,), lambda o: verify_constraint(o.max_vertices)),
    "spherical": Family(
        SPHERICAL_INSTANCES, str, (1,),
        lambda o, name: [verify_spherical(*spherical_instance(name), name, o.max_vertices)],
    ),
    "gale": Family(GALE_INSTANCES, int, (2,), lambda o, n, d: [verify_gale(n, d)]),
    "stable-faces": Family(
        STABLE_FACE_INSTANCES, int, (2,), lambda o, n, d: [verify_stable_faces(n, d)]
    ),
    "tverberg-random": Family(
        TVERBERG_INSTANCES, int, (2,), lambda o, r, d: [verify_tverberg_random(r, d, seed=o.seed)]
    ),
    "intertwined": Family(((),), int, (0,), lambda o: verify_intertwined()),
    "avg-stable": Family(
        AVG_STABLE_INSTANCES, int, (3,),
        lambda o, r, k, n: [verify_avg_stable(r, k, n, o.seed, o.max_vertices, o.cap)],
    ),
    "nonprimepower": Family(((6, 2),), int, (2,), lambda o, r, k: [verify_nonprimepower(r, k)]),
    "pipeline": Family(
        PIPELINE_INSTANCES, str, (1,),
        lambda o, name: [verify_pipeline(name, o.max_vertices, o.cap)],
    ),
}

ALL_EXPERIMENTS = tuple(FAMILIES)


def _read_instance(name: str, family: Family, params: Sequence) -> tuple:
    """Check one instance's parameters against its family; ValueError says what is wrong."""
    if len(params) not in family.counts:
        if family.counts == (0,):
            raise ValueError(f"{name} takes no instance parameters")
        allowed = " or ".join(map(str, family.counts))
        raise ValueError(f"{name} takes {allowed} instance parameter(s), got {len(params)}")
    if family.kind is str and tuple(params) not in family.instances:
        raise ValueError(f"unknown {name} instance {params[0]!r}")
    try:
        return tuple(map(family.kind, params))
    except ValueError:
        raise ValueError(f"{name} instance parameters must be integers: {list(params)}") from None


def experiment_tasks(
    name: str,
    seed: int = 0,
    cap: int = DEFAULT_SEARCH_CAP,
    max_vertices: int = DEFAULT_VERTEX_LIMIT,
    params: Optional[Sequence[str]] = None,
) -> list[Task]:
    """Zero-argument tasks for one experiment family.

    Without params, every default instance of the family is scheduled;
    with params, the single requested instance. Parameters are checked
    here, before any task runs.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown experiment {name!r}")
    options = RunOptions(seed, cap, max_vertices)
    instances = [params] if params else family.instances
    return [partial(family.run, options, *_read_instance(name, family, p)) for p in instances]


def run_tasks(tasks: Iterable[Task]) -> list[ExperimentReport]:
    """Run experiment tasks one after another, reports flattened in task order."""
    return [rep for task in tasks for rep in task()]
