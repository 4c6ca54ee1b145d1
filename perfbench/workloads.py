"""Seeded workloads and the benchmark's own answer table.

Each workload is a list of instances. An instance calls one public
function of ``kneser_tverberg`` and checks what comes back against
expectations this file derives from closed forms, never against the
``claimed`` dict the program reports about itself. Every call looks the
function up on the package at call time, so a traced run that rebinds
the package's attributes sees every call.

Importing this module imports the package; building the instance list
is cheap. Both count as set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import kneser_tverberg as kt

WORKLOADS = ("absence", "certify", "coloring")


@dataclass(frozen=True)
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


# -- closed forms the answers are checked against ----------------------


def lovasz(n: int, k: int) -> int:
    """Chromatic number of the Kneser graph KG(n, k), n >= 2k (Lovász)."""
    return n - 2 * k + 2


def alon_frankl_lovasz(n: int, k: int, r: int) -> int:
    """ceil((n - r(k-1)) / (r-1)), the chromatic number of KG^r(n, k)."""
    return -(-(n - r * (k - 1)) // (r - 1))


def intertwined_pairs(max_points: int) -> int:
    """Unordered pairs of disjoint nonempty subsets of n points, summed over n.

    A point goes to A, to B or to neither (3^n); dropping the choices
    with A or B empty and halving for order leaves (3^n - 2^(n+1) + 1)/2.
    """
    return sum((3**n - 2 ** (n + 1) + 1) // 2 for n in range(2, max_points + 1))


# Instance sizes of the full workloads and of their smoke versions. The
# smoke avg-stable instance lowers the vertex limit so that n = 8 takes
# the same bounds-pinch path as n = 10 instead of the exact solver.
SIZES = {
    False: {
        "avg_n": 10, "avg_limit": 64, "points": 7, "max_d": 4,
        "tverberg": {(2, 1): 25, (2, 2): 25, (3, 1): 25, (3, 2): 10},
        "kneser": 11, "schrijver": 8, "kneser3": 8,
        "roundtrip": (200, 12), "dismantle": (1000, 9),
    },
    True: {
        "avg_n": 8, "avg_limit": 32, "points": 5, "max_d": 3,
        "tverberg": {(2, 1): 3, (2, 2): 3, (3, 1): 3, (3, 2): 1},
        "kneser": 7, "schrijver": 6, "kneser3": 6,
        "roundtrip": (20, 8), "dismantle": (50, 7),
    },
}


def answer_table(smoke: bool = False) -> dict[str, dict]:
    """Expected values per instance label, from closed forms.

    avg-stable-3-4-7 has no hyperedges, because three disjoint 4-sets
    need 12 > 7 labels, so its chromatic number is 1 whatever the
    formula's clamped value. k5-plane is the 1-skeleton of the
    4-simplex: its minimal nonfaces are the ten triangles, no two of
    them disjoint on 5 labels, so chi is 1, and the planar K5 has
    crossing edges, so the absence search finds a partition.
    """
    z = SIZES[smoke]
    avg_n, kn, sch, kg3 = z["avg_n"], z["kneser"], z["schrijver"], z["kneser3"]
    table = {
        f"avg-stable-2-4-{avg_n}": {
            "chi": alon_frankl_lovasz(avg_n, 4, 2),
            "absence_verified": True,
            "chi_source": "bounds_pinch",
        },
        "avg-stable-3-4-7": {"chi": 1, "edges": 0, "absence_verified": True},
        "pipeline-cyclic-shift-cone": {"chi": 4, "floor_formula": 4, "absence_verified": True},
        "pipeline-kriz-line": {"chi": 2, "absence_verified": True},
        "pipeline-k5-plane": {"chi": 1, "bound_applicable": False, "absence_verified": False},
        f"intertwined-{z['points']}": {"pairs": intertwined_pairs(z["points"])},
        f"kneser-2-{kn}": {"chi": lovasz(kn, 2), "greedy_proper": True},
        f"schrijver-2-{sch}": {"chi": lovasz(sch, 2), "vertex_critical": True},
        f"kneser3-2-{kg3}": {"chi": alon_frankl_lovasz(kg3, 2, 3), "n": kg3},
        f"roundtrip-{z['roundtrip'][0]}": {"agreements": z["roundtrip"][0]},
        f"dismantle-{z['dismantle'][0]}": {"agreements": z["dismantle"][0]},
        # verify_constraint's fixed instances, chi by Lovász's formula,
        # which also holds for the 2-stable (Schrijver) subgraphs.
        "constraint": {
            f"constraint-{kind}-{k}-{n}": lovasz(n, k)
            for kind, pairs in (
                ("kneser", ((2, 5), (2, 6), (2, 7), (3, 7))),
                ("schrijver", ((2, 5), (2, 6), (3, 7))),
            )
            for k, n in pairs
        },
    }
    for (r, d), count in z["tverberg"].items():
        # Tverberg: (r-1)(d+1)+1 points always split into r parts.
        table[f"tverberg-random-{r}-{d}"] = {"certificates": count, "verified": count}
    return table


# -- checks --------------------------------------------------------------


def _report_values(report, want: dict) -> list[str]:
    problems = []
    if report.verdict != "match":
        problems.append(f"{report.name}: verdict {report.verdict}")
    for key, value in want.items():
        got = report.computed.get(key)
        if got != value:
            problems.append(f"{report.name}: {key} = {got!r}, expected {value!r}")
    return problems


def _check_intertwined(reports, want: dict) -> list[str]:
    problems = []
    for rep in reports:
        problems += _report_values(rep, want)
        c = rep.computed
        if not c.get("alternating") == c.get("good_sizes") == c.get("intersecting"):
            problems.append(f"{rep.name}: alternating, good_sizes, intersecting differ")
        if c.get("intersecting", 0) + c.get("separated", 0) != want["pairs"]:
            problems.append(f"{rep.name}: intersecting + separated != pairs")
    return problems


def _check_constraint(reports, want: dict) -> list[str]:
    problems = []
    if sorted(rep.name for rep in reports) != sorted(want):
        problems.append(f"constraint: instances {sorted(rep.name for rep in reports)}")
    for rep in reports:
        problems += _report_values(rep, {"property_holds": True, "chi": want.get(rep.name)})
    return problems


def _check_kneser3(res, want: dict) -> list[str]:
    """Check chi and recheck the witness by looping over disjoint triples."""
    n = want["n"]
    problems = []
    if res.chi != want["chi"]:
        problems.append(f"kneser3: chi = {res.chi}, expected {want['chi']}")
    colors = res.coloring.colors
    if len(colors) != comb(n, 2) or any(not 1 <= c <= res.chi for c in colors):
        return problems + ["kneser3: witness is not a coloring of the C(n,2) vertices with chi colors"]
    # Vertex ids follow the lexicographic order of the 2-subsets of 1..n.
    vertices = [frozenset(p) for p in combinations(range(1, n + 1), 2)]
    for a, b, c in combinations(range(len(vertices)), 3):
        if vertices[a] & vertices[b] or vertices[a] & vertices[c] or vertices[b] & vertices[c]:
            continue
        if colors[a] == colors[b] == colors[c]:
            problems.append(f"kneser3: triple {a},{b},{c} is monochromatic")
            break
    return problems


# -- workloads -------------------------------------------------------------


def build(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    """The instance list of one workload; ``smoke`` shrinks it to a second or so."""
    z = SIZES[smoke]
    if workload == "absence":
        n, limit = z["avg_n"], z["avg_limit"]
        return [
            Instance(
                f"avg-stable-2-4-{n}",
                lambda: kt.verify_avg_stable(2, 4, n, seed, max_vertices=limit),
                _report_values,
            ),
            Instance("avg-stable-3-4-7", lambda: kt.verify_avg_stable(3, 4, 7, seed), _report_values),
        ] + [
            Instance(f"pipeline-{name}", lambda name=name: kt.verify_pipeline(name), _report_values)
            for name in ("cyclic-shift-cone", "kriz-line", "k5-plane")
        ]
    if workload == "certify":
        points, max_d = z["points"], z["max_d"]
        return [
            Instance(
                f"tverberg-random-{r}-{d}",
                lambda r=r, d=d, c=c: kt.verify_tverberg_random(r, d, c, seed),
                _report_values,
            )
            for (r, d), c in z["tverberg"].items()
        ] + [
            Instance(
                f"intertwined-{points}",
                lambda: kt.verify_intertwined(max_points=points, max_d=max_d),
                _check_intertwined,
            )
        ]
    if workload == "coloring":
        kn, sch, kg3 = z["kneser"], z["schrijver"], z["kneser3"]
        (rt, rt_ground), (dm, dm_ground) = z["roundtrip"], z["dismantle"]
        return [
            Instance(f"kneser-2-{kn}", lambda: kt.verify_kneser(2, kn), _report_values),
            Instance(f"schrijver-2-{sch}", lambda: kt.verify_schrijver(2, sch, True), _report_values),
            Instance(
                f"kneser3-2-{kg3}",
                lambda: kt.chromatic_number(kt.kneser_hypergraph(3, 2, kg3)),
                _check_kneser3,
            ),
            Instance(f"roundtrip-{rt}", lambda: kt.verify_roundtrip(rt, rt_ground, seed), _report_values),
            Instance(f"dismantle-{dm}", lambda: kt.verify_dismantle(dm, dm_ground, seed), _report_values),
            Instance("constraint", lambda: kt.verify_constraint(), _check_constraint),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(instances: list[Instance], table: dict[str, dict]) -> list[str]:
    """Run every instance once, serially; return one line per failed instance.

    An instance fails when it raises, when a report says ``mismatch`` or
    when a check against the answer table fails.
    """
    failures = []
    for inst in instances:
        try:
            problems = inst.check(inst.run(), table[inst.label])
        except Exception as exc:  # a crash is a failed instance, not a crashed benchmark
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{inst.label}: {'; '.join(problems)}")
    return failures
