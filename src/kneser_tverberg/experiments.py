"""End-to-end verification experiments.

Every experiment states its claimed values up front, recomputes them
from scratch with the library, and reports both sides with a verdict.
A report matches when every claimed entry equals the computed entry of
the same name; extra computed entries (witness data, search statistics)
never influence the verdict. All values are integers, booleans, or
exact rationals rendered as strings, so matching is literal equality
with no tolerances.

Experiments are pure given their parameters: fixed seeds, canonical
enumeration orders, exact arithmetic. Running them in a thread pool
changes nothing but wall time, which is reported but never compared.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Callable, Iterable, Optional, Sequence

from .coloring import (
    bound_floor_formula,
    chromatic_number,
    greedy_least_label,
    kriz_bound,
    verify_constraint_property,
)
from .geometry import (
    DEFAULT_SGP_ATTEMPTS,
    AbsenceReport,
    PointConfiguration,
    TverbergCertificate,
    avg_stable_placement,
    cyclic_missing_faces,
    gale_facets,
    hull_facets_oracle,
    intertwined_pair,
    is_strong_general_position,
    moment_points,
    separating_polynomial,
    tverberg_search,
)
from .hypergraphs import (
    generalized_kneser,
    intersection_hypergraph,
    kneser_hypergraph,
    minimize_system,
    s_stable_subsets,
    stable_avg_hypergraph,
    width,
)
from .simplicial import SimplicialComplex, complex_from_forbidden, simplex_complex


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


def verify_kneser(k: int, n: int, max_vertices: int = 64) -> ExperimentReport:
    """Exact chromatic number of the Kneser graph of k-subsets of 1..n.

    Claim: n - 2k + 2 colors (n >= 2k). The matching upper bound comes
    from the least-label greedy coloring capped at that many colors,
    which is proper because any two k-subsets confined to the last
    2k - 1 labels intersect.
    """
    t0 = time.perf_counter()
    if n < 2 * k:
        raise ValueError("need n >= 2k")
    target = n - 2 * k + 2
    H = kneser_hypergraph(2, k, n)
    res = chromatic_number(H, max_vertices=max_vertices)
    greedy = greedy_least_label(H, 2, n - 1, None, max_colors=target)
    claimed = {"chi": target, "greedy_colors": target, "greedy_proper": True}
    computed = {
        "chi": res.chi,
        "greedy_colors": greedy.colors_used,
        "greedy_proper": greedy.proper,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
        "search_nodes": res.search_nodes,
    }
    return _finish(
        f"kneser-{k}-{n}",
        {"k": k, "n": n},
        claimed,
        computed,
        t0,
        provenance="Kneser graph chromatic formula",
    )


def verify_schrijver(
    k: int, n: int, check_critical: bool = False, max_vertices: int = 64
) -> ExperimentReport:
    """Chromatic number of the subgraph induced on 2-stable k-subsets.

    Claim: still n - 2k + 2. With check_critical, also claim that every
    single-vertex deletion is colorable with one color fewer.
    """
    t0 = time.perf_counter()
    target = n - 2 * k + 2
    H = intersection_hypergraph(s_stable_subsets(k, n, 2), 2)
    res = chromatic_number(H, max_vertices=max_vertices)
    claimed = {"chi": target}
    computed: dict = {"chi": res.chi, "vertices": H.n_vertices, "edges": H.n_edges}
    if check_critical:
        drops = [
            chromatic_number(
                H.induced([u for u in range(H.n_vertices) if u != v]),
                max_vertices=max_vertices,
            ).chi
            for v in range(H.n_vertices)
        ]
        claimed["vertex_critical"] = True
        computed["vertex_critical"] = all(c == res.chi - 1 for c in drops)
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


def _random_antichain(rng: random.Random, n: int) -> list[frozenset[int]]:
    while True:
        m = rng.randint(1, 2 * n)
        fam = []
        for _ in range(m):
            size = rng.randint(1, n)
            fam.append(frozenset(rng.sample(range(1, n + 1), size)))
        anti = list(minimize_system(fam))
        if anti:
            return anti


def verify_roundtrip(count: int = 200, max_ground: int = 8, seed: int = 0) -> ExperimentReport:
    """Forbidden-family round trip on random antichains.

    For an antichain G on 1..n, the complex with G as its forbidden
    sets has exactly G as minimal nonfaces, so the general two-complex
    construction over the full simplex must reproduce the disjointness
    hypergraph of G itself, vertex for vertex and edge for edge.
    """
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
        if direct == via_complex and K.minimal_nonfaces() == minimize_system(G):
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
    """
    t0 = time.perf_counter()
    rng = random.Random(seed)
    agree = 0
    for _ in range(count):
        n = rng.randint(3, max_ground)
        m = rng.randint(1, 18)
        fam = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)
        ]
        chi_full = chromatic_number(intersection_hypergraph(fam, 2)).chi
        chi_min = chromatic_number(intersection_hypergraph(minimize_system(fam), 2)).chi
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


def _kneser_pair(k: int, n: int) -> tuple[SimplicialComplex, SimplicialComplex]:
    return simplex_complex(n - 1).skeleton(k - 2), simplex_complex(n - 1)


def _schrijver_pair(k: int, n: int) -> tuple[SimplicialComplex, SimplicialComplex]:
    return (
        complex_from_forbidden(s_stable_subsets(k, n, 2), n),
        simplex_complex(n - 1),
    )


def verify_constraint(max_vertices: int = 64) -> list[ExperimentReport]:
    """Color-set disjointness for the optimal colorings of the test graphs.

    For each instance the exact solver's witness coloring is extended
    from the minimal outside faces to all faces of the simplex, and the
    extension must give r pairwise disjoint faces color sets with empty
    intersection, exhaustively over all disjoint tuples.
    """
    instances: list[tuple[str, SimplicialComplex, SimplicialComplex]] = []
    for k, n in ((2, 5), (2, 6), (2, 7), (3, 7)):
        K, L = _kneser_pair(k, n)
        instances.append((f"constraint-kneser-{k}-{n}", K, L))
    for k, n in ((2, 5), (2, 6), (3, 7)):
        K, L = _schrijver_pair(k, n)
        instances.append((f"constraint-schrijver-{k}-{n}", K, L))
    out = []
    for name, K, L in instances:
        t0 = time.perf_counter()
        H = generalized_kneser(K, L, 2)
        res = chromatic_number(H, max_vertices=max_vertices)
        ok, witness = verify_constraint_property(K, L, 2, res.coloring)
        claimed = {"property_holds": True}
        computed = {"property_holds": ok, "chi": res.chi}
        if witness is not None:
            computed["violation"] = [sorted(f) for f in witness[0]] + [witness[1]]
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


# -- width and formula bounds ------------------------------------------


def verify_kriz_example() -> ExperimentReport:
    """The four numbers of the width-comparison example.

    Vertex set of six points, zero-dimensional complex, three parts:
    width 3, fractional bound 3/2, floor-formula bound 1 (line
    placement), and exact chromatic number 2.
    """
    t0 = time.perf_counter()
    K = simplex_complex(5).skeleton(0)
    w = width(K, 3)
    kb = kriz_bound(K, 3)
    fb = bound_floor_formula(5, 3, 1)
    H = generalized_kneser(K, simplex_complex(5), 3)
    res = chromatic_number(H)
    claimed = {"width": 3, "kriz": "3/2", "floor_formula": 1, "chi": 2}
    computed = {
        "width": w,
        "kriz": str(kb),
        "floor_formula": fb,
        "chi": res.chi,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
    }
    return _finish(
        "kriz-example",
        {"r": 3, "N": 5},
        claimed,
        computed,
        t0,
        provenance="fractional width comparison example",
    )


_HEXAGON_CONE = {
    1: (2, 0),
    2: (1, 2),
    3: (-1, 2),
    4: (-2, 0),
    5: (-1, -2),
    6: (1, -2),
    7: (0, 0),
}


def verify_cyclic_shift(cap: int = 1 << 22) -> ExperimentReport:
    """Full bound pipeline on the coned six-cycle.

    The six-cycle's minimal nonfaces are its nine chords; coning adds an
    apex to every facet without changing them. Placing the cone in the
    plane (hexagon plus center) admits no two disjoint faces with
    intersecting hulls, so the floor-formula bound 6 - 2 = 4 applies,
    and it is tight: the exact chromatic number is 4, while the
    fractional width bound only reaches 2. The least-label greedy
    coloring is proper with 4 colors, matching the optimum.
    """
    t0 = time.perf_counter()
    six_cycle = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)])
    cone = six_cycle.cone()
    P = PointConfiguration(2, _HEXAGON_CONE)
    search = tverberg_search(P, 2, restrict_to=cone, cap=cap)
    absence = isinstance(search, AbsenceReport)
    H = generalized_kneser(cone, simplex_complex(6), 2)
    res = chromatic_number(H)
    greedy = greedy_least_label(H, 2, 6, 2)
    kb = kriz_bound(cone, 2)
    fb = bound_floor_formula(6, 2, 2)
    claimed = {
        "absence_verified": True,
        "floor_formula": 4,
        "chi": 4,
        "kriz_ceiling": 2,
        "greedy_colors": 4,
        "greedy_proper": True,
    }
    computed = {
        "absence_verified": absence,
        "floor_formula": fb,
        "chi": res.chi,
        "kriz": str(kb),
        "kriz_ceiling": ceil(kb),
        "greedy_colors": greedy.colors_used,
        "greedy_proper": greedy.proper,
        "vertices": H.n_vertices,
        "tuples_examined": search.tuples_examined if absence else None,
    }
    return _finish(
        "cyclic-shift",
        {"cycle_length": 6, "d": 2},
        claimed,
        computed,
        t0,
        provenance="tight floor formula example",
    )


# -- sphere boundary complexes ------------------------------------------


def verify_spherical(
    K: SimplicialComplex, d: int, sphere: str = "caller-asserted", max_vertices: int = 64
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
    res = chromatic_number(H, max_vertices=max_vertices)
    claimed = {"chi": target}
    computed = {"chi": res.chi, "vertices": H.n_vertices, "edges": H.n_edges}
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


def _random_sgp_config(
    rng: random.Random, r: int, d: int, n_points: int
) -> PointConfiguration:
    """Draw random grid points until they are in strong general position.

    Fails closed: after DEFAULT_SGP_ATTEMPTS draws without success it
    raises ValueError rather than looping on.
    """
    for _ in range(DEFAULT_SGP_ATTEMPTS):
        P = PointConfiguration(
            d,
            {
                lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(d))
                for lab in range(1, n_points + 1)
            },
        )
        if is_strong_general_position(P, r):
            return P
    raise ValueError(
        f"no strong general position configuration of {n_points} points in R^{d}"
        f" found in {DEFAULT_SGP_ATTEMPTS} attempts"
    )


def verify_tverberg_random(r: int, d: int, count: int = 25, seed: int = 0) -> ExperimentReport:
    """Random configurations of (r-1)(d+1)+1 points always partition.

    Each configuration is resampled until it passes the strong general
    position test, then searched; the claim is a certificate every time,
    and every certificate is re-verified from scratch.
    """
    t0 = time.perf_counter()
    rng = random.Random(seed)
    n_points = (r - 1) * (d + 1) + 1
    found = 0
    verified = 0
    for _ in range(count):
        P = _random_sgp_config(rng, r, d, n_points)
        out = tverberg_search(P, r)
        if isinstance(out, TverbergCertificate):
            found += 1
            if out.verify(P):
                verified += 1
    claimed = {"certificates": count, "verified": count}
    computed = {"certificates": found, "verified": verified, "count": count}
    return _finish(
        f"tverberg-random-{r}-{d}",
        {"r": r, "d": d, "count": count, "seed": seed, "points": n_points},
        claimed,
        computed,
        t0,
        provenance="affine partition theorem",
    )


def verify_intertwined(max_points: int = 9, max_d: int = 4) -> list[ExperimentReport]:
    """Minimal intertwined pairs, exhaustively per dimension.

    For every pair of disjoint nonempty subsets of up to max_points
    moment-curve points: either a separating polynomial of degree at
    most d certifies the hulls apart, or the minimal pair must come back
    alternating with part sizes floor(d/2)+1 and ceil(d/2)+1. Only the
    order of the curve parameters matters, so parameters 1..n cover all
    configurations.
    """
    out = []
    for d in range(1, max_d + 1):
        t0 = time.perf_counter()
        pairs = 0
        intersecting = 0
        separated = 0
        good_sizes = 0
        alternating = 0
        want = {d // 2 + 1, (d + 1) // 2 + 1}
        for n in range(2, max_points + 1):
            P = moment_points(range(1, n + 1), d)
            labels = list(range(1, n + 1))
            for amask in range(1, 1 << n):
                A = frozenset(labels[i] for i in range(n) if amask >> i & 1)
                rest = [lab for lab in labels if lab not in A]
                rn = len(rest)
                for bmask in range(1, 1 << rn):
                    B = frozenset(rest[i] for i in range(rn) if bmask >> i & 1)
                    if min(A) > min(B):
                        continue
                    pairs += 1
                    cert = separating_polynomial(P, A, B)
                    if cert is not None:
                        separated += 1
                        continue
                    intersecting += 1
                    pair = intertwined_pair(P, A, B)
                    sizes = {len(pair.part1), len(pair.part2)}
                    if d % 2 == 0:
                        size_ok = sizes == want and len(pair.part1) + len(pair.part2) == d + 2
                    else:
                        size_ok = sizes == want
                    if size_ok:
                        good_sizes += 1
                    if pair.alternating:
                        alternating += 1
        claimed = {
            "alternating": intersecting,
            "good_sizes": intersecting,
            "accounted": pairs,
        }
        computed = {
            "alternating": alternating,
            "good_sizes": good_sizes,
            "accounted": separated + intersecting,
            "pairs": pairs,
            "intersecting": intersecting,
            "separated": separated,
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
    return out


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
    max_vertices: int = 64,
    cap: int = 1 << 22,
) -> ExperimentReport:
    """Ceiling formula for the average-stability Kneser hypergraph.

    Pipeline: build the hypergraph on the t-stable-on-average k-subsets
    with t = r(k-3)/(2(k-1)) + 1, place the complex of all other faces
    on the moment curve in strong general position, verify absence of
    r-fold intersections among its faces, and pin the chromatic number
    between the resulting floor-formula lower bound and the capped
    least-label greedy upper bound. When the vertex count is small
    enough the exact solver cross-checks the pinch; when the formula
    target degenerates below 1 it is clamped and flagged.
    """
    t0 = time.perf_counter()
    if not _is_prime_power(r):
        raise ValueError("r must be a prime power")
    if (n - 1) % (r - 1):
        raise ValueError("(r-1) must divide (n-1)")
    if k < 4:
        raise ValueError("need k >= 4")
    t = Fraction(r * (k - 3), 2 * (k - 1)) + 1
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

    K, P = avg_stable_placement(r, k, d, n, seed=seed)
    search = tverberg_search(P, r, restrict_to=K, cap=cap, moment_pruning=True)
    absence = isinstance(search, AbsenceReport)
    computed["absence_verified"] = absence
    lower = max(1, bound_floor_formula(n - 1, r, d)) if absence else 1
    computed["lower_bound"] = lower

    if H.n_vertices == 0:
        chi: Optional[int] = 0
    elif H.n_vertices <= max_vertices:
        chi = chromatic_number(H, max_vertices=max_vertices).chi
        computed["chi_source"] = "solver"
    else:
        greedy = greedy_least_label(H, r, n - 1, d, max_colors=target)
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


# -- generic bound pipeline ---------------------------------------------


def verify_bound_pipeline(
    K: SimplicialComplex,
    r: int,
    d: int,
    placement: PointConfiguration,
    claimed: Optional[dict] = None,
    name: str = "bound-pipeline",
    max_vertices: int = 64,
    cap: int = 1 << 22,
) -> ExperimentReport:
    """Absence search plus all three bounds for one complex and placement.

    If the restricted search certifies absence, the floor formula is a
    valid lower bound for the exact chromatic number and the report
    asserts that inequality; if a partition certificate shows up
    instead, the bound is reported as not applicable for this placement.
    The greedy and fractional-width bounds are always reported.
    """
    t0 = time.perf_counter()
    if placement.d != d:
        raise ValueError("placement dimension mismatch")
    search = tverberg_search(placement, r, restrict_to=K, cap=cap)
    absence = isinstance(search, AbsenceReport)
    N = K.n - 1
    H = generalized_kneser(K, simplex_complex(N), r)
    res = chromatic_number(H, max_vertices=max_vertices)
    greedy = greedy_least_label(H, r, N, d)
    kb = kriz_bound(K, r)
    fb = bound_floor_formula(N, r, d)
    computed = {
        "absence_verified": absence,
        "bound_applicable": absence,
        "floor_formula": fb,
        "chi": res.chi,
        "bound_respected": (res.chi >= fb) if absence else None,
        "kriz": str(kb),
        "kriz_ceiling": ceil(kb),
        "greedy_colors": greedy.colors_used,
        "greedy_proper": greedy.proper,
        "vertices": H.n_vertices,
        "edges": H.n_edges,
    }
    if not absence:
        computed["certificate_parts"] = [sorted(p) for p in search.parts]
    if claimed is None:
        claimed = {"bound_respected": True} if absence else {"bound_applicable": False}
    return _finish(
        name,
        {"r": r, "d": d, "ground": K.n},
        claimed,
        computed,
        t0,
        provenance="placement certified floor bound",
    )


def pipeline_instance(name: str) -> tuple[SimplicialComplex, int, int, PointConfiguration, dict]:
    """Built-in instances for the bound pipeline, by name."""
    if name == "cyclic-shift-cone":
        six_cycle = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)])
        K = six_cycle.cone()
        P = PointConfiguration(2, _HEXAGON_CONE)
        claimed = {"bound_respected": True, "floor_formula": 4, "chi": 4, "kriz_ceiling": 2}
        return K, 2, 2, P, claimed
    if name == "kriz-line":
        K = simplex_complex(5).skeleton(0)
        P = moment_points([1, 2, 3, 4, 5, 6], 1)
        claimed = {
            "bound_respected": True,
            "floor_formula": 1,
            "chi": 2,
            "kriz_ceiling": 2,
        }
        return K, 3, 1, P, claimed
    if name == "k5-plane":
        K = simplex_complex(4).skeleton(1)
        P = PointConfiguration(2, {1: (0, 0), 2: (4, 0), 3: (1, 4), 4: (1, 1), 5: (2, 2)})
        claimed = {
            "bound_applicable": False,
            "chi": 1,
            "floor_formula": 2,
        }
        return K, 2, 2, P, claimed
    raise ValueError(f"unknown pipeline instance {name!r}")


def verify_pipeline(instance: str, max_vertices: int = 64, cap: int = 1 << 22) -> ExperimentReport:
    K, r, d, P, claimed = pipeline_instance(instance)
    return verify_bound_pipeline(
        K, r, d, P, claimed, name=f"pipeline-{instance}", max_vertices=max_vertices, cap=cap
    )


# -- batteries and the runner -------------------------------------------

KNESER_INSTANCES = ((2, 5), (2, 6), (2, 7), (3, 7))
SCHRIJVER_INSTANCES = ((2, 5, True), (2, 6, False), (3, 7, False))
GALE_INSTANCES = ((5, 2), (6, 2), (6, 4), (7, 4), (8, 4), (8, 6))
STABLE_FACE_INSTANCES = ((6, 1), (7, 2), (8, 2), (9, 3))
TVERBERG_INSTANCES = ((2, 1), (2, 2), (3, 1), (3, 2))
AVG_STABLE_INSTANCES = ((2, 4, 10), (2, 4, 11), (3, 4, 7))
PIPELINE_INSTANCES = ("cyclic-shift-cone", "kriz-line", "k5-plane")
SPHERICAL_INSTANCES = ("hexagon", "cyclic-4-7", "tetrahedron")

Task = Callable[[], list[ExperimentReport]]


def _as_list(fn: Callable[[], ExperimentReport]) -> Task:
    return lambda: [fn()]


def experiment_tasks(
    name: str,
    seed: int = 0,
    cap: int = 1 << 22,
    max_vertices: int = 64,
    params: Optional[Sequence[str]] = None,
) -> list[Task]:
    """Zero-argument tasks for one experiment family.

    Without params, every default instance of the family is scheduled;
    with params, the single requested instance. Families that take no
    instance parameters reject any.
    """
    if params:
        return [_single_task(name, list(params), seed, cap, max_vertices)]
    if name == "kneser":
        return [
            _as_list(lambda k=k, n=n: verify_kneser(k, n, max_vertices))
            for k, n in KNESER_INSTANCES
        ]
    if name == "schrijver":
        return [
            _as_list(lambda k=k, n=n, c=c: verify_schrijver(k, n, c, max_vertices))
            for k, n, c in SCHRIJVER_INSTANCES
        ]
    if name == "roundtrip":
        return [_as_list(lambda: verify_roundtrip(seed=seed))]
    if name == "dismantle":
        return [_as_list(lambda: verify_dismantle(seed=seed))]
    if name == "constraint":
        return [lambda: verify_constraint(max_vertices)]
    if name == "kriz-example":
        return [_as_list(verify_kriz_example)]
    if name == "cyclic-shift":
        return [_as_list(lambda: verify_cyclic_shift(cap))]
    if name == "gale":
        return [
            _as_list(lambda n=n, d=d: verify_gale(n, d)) for n, d in GALE_INSTANCES
        ]
    if name == "stable-faces":
        return [
            _as_list(lambda n=n, d=d: verify_stable_faces(n, d))
            for n, d in STABLE_FACE_INSTANCES
        ]
    if name == "tverberg-random":
        return [
            _as_list(lambda r=r, d=d: verify_tverberg_random(r, d, seed=seed))
            for r, d in TVERBERG_INSTANCES
        ]
    if name == "intertwined":
        return [verify_intertwined]
    if name == "avg-stable":
        return [
            _as_list(
                lambda r=r, k=k, n=n: verify_avg_stable(
                    r, k, n, seed=seed, max_vertices=max_vertices, cap=cap
                )
            )
            for r, k, n in AVG_STABLE_INSTANCES
        ]
    if name == "nonprimepower":
        return [_as_list(verify_nonprimepower)]
    if name == "pipeline":
        return [
            _as_list(lambda inst=inst: verify_pipeline(inst, max_vertices, cap))
            for inst in PIPELINE_INSTANCES
        ]
    if name == "spherical":
        return [
            _as_list(
                lambda inst=inst: verify_spherical(*spherical_instance(inst), inst, max_vertices)
            )
            for inst in SPHERICAL_INSTANCES
        ]
    raise ValueError(f"unknown experiment {name!r}")


def _single_task(
    name: str, params: list[str], seed: int, cap: int, max_vertices: int
) -> Task:
    def ints(n: int) -> list[int]:
        if len(params) != n:
            raise ValueError(f"{name} takes {n} instance parameter(s), got {len(params)}")
        try:
            return [int(p) for p in params]
        except ValueError:
            raise ValueError(f"{name} instance parameters must be integers: {params}")

    if name == "kneser":
        k, n = ints(2)
        return _as_list(lambda: verify_kneser(k, n, max_vertices))
    if name == "schrijver":
        if len(params) == 3:
            k, n, crit = ints(3)
        else:
            (k, n), crit = ints(2), 0
        return _as_list(lambda: verify_schrijver(k, n, bool(crit), max_vertices))
    if name == "roundtrip":
        (count,) = ints(1)
        return _as_list(lambda: verify_roundtrip(count, seed=seed))
    if name == "dismantle":
        (count,) = ints(1)
        return _as_list(lambda: verify_dismantle(count, seed=seed))
    if name == "gale":
        n, d = ints(2)
        return _as_list(lambda: verify_gale(n, d))
    if name == "stable-faces":
        n, d = ints(2)
        return _as_list(lambda: verify_stable_faces(n, d))
    if name == "tverberg-random":
        r, d = ints(2)
        return _as_list(lambda: verify_tverberg_random(r, d, seed=seed))
    if name == "avg-stable":
        r, k, n = ints(3)
        return _as_list(
            lambda: verify_avg_stable(r, k, n, seed=seed, max_vertices=max_vertices, cap=cap)
        )
    if name == "nonprimepower":
        r, k = ints(2)
        return _as_list(lambda: verify_nonprimepower(r, k))
    if name == "pipeline":
        if len(params) != 1:
            raise ValueError("pipeline takes one instance name")
        inst = params[0]
        pipeline_instance(inst)
        return _as_list(lambda: verify_pipeline(inst, max_vertices, cap))
    if name == "spherical":
        if len(params) != 1:
            raise ValueError("spherical takes one instance name")
        inst = params[0]
        spherical_instance(inst)
        return _as_list(lambda: verify_spherical(*spherical_instance(inst), inst, max_vertices))
    if name in ("constraint", "kriz-example", "cyclic-shift", "intertwined"):
        raise ValueError(f"{name} takes no instance parameters")
    raise ValueError(f"unknown experiment {name!r}")


ALL_EXPERIMENTS = (
    "kneser",
    "schrijver",
    "roundtrip",
    "dismantle",
    "constraint",
    "kriz-example",
    "cyclic-shift",
    "spherical",
    "gale",
    "stable-faces",
    "tverberg-random",
    "intertwined",
    "avg-stable",
    "nonprimepower",
    "pipeline",
)


def run_tasks(tasks: Sequence[Task], jobs: int = 1) -> list[ExperimentReport]:
    """Run experiment tasks, possibly concurrently, in deterministic order.

    Results are flattened in task-submission order regardless of the
    worker count, so the report stream is identical for any jobs value.
    """
    if jobs <= 1:
        chunks = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    return [rep for chunk in chunks for rep in chunk]
