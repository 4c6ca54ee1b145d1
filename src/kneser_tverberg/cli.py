"""Command line front end.

One subcommand per object of interest: build a complex, build the
disjointness hypergraph, color it exactly, compute the three bounds,
enumerate cyclic polytope facets, search for partition certificates,
and run the named verification experiments. Output is JSON lines by
default so runs can be diffed and piped; a table renderer covers
interactive use.

Every command takes --format json|table (or --table); --cap goes to
tverberg and verify, --max-vertices to chi and verify, --seed and
--jobs to verify. The top level takes only -h: an option given before
the command, or to one that does not read it, is a usage error, and one
given before the command is named in the error with the commands that
read it.

Exit status: 0 when everything computed and every verdict matched,
1 when any verdict mismatched, 2 for usage errors and refused sizes,
3 for internal errors (an exact computation that contradicts itself,
such as a certificate failing its own check, or a recursion overflow).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .coloring import (
    DEFAULT_VERTEX_LIMIT,
    bound_floor_formula,
    chromatic_number,
    greedy_least_label,
)
from .experiments import ALL_EXPERIMENTS, experiment_tasks, run_tasks
from .geometry import (
    DEFAULT_SEARCH_CAP,
    PointConfiguration,
    TverbergCertificate,
    gale_facets,
    hull_facets_oracle,
    moment_points,
    tverberg_search,
)
from .hypergraphs import (
    generalized_kneser,
    intersection_hypergraph,
    kneser_hypergraph,
    s_stable_subsets,
    width,
)
from .simplicial import SimplicialComplex, complex_from_forbidden, simplex_complex


# -- input parsing -------------------------------------------------------


def _parse_sets(text: str) -> list[frozenset[int]]:
    """Faces as comma-joined labels, separated by spaces or semicolons."""
    out = []
    for token in text.replace(";", " ").split():
        try:
            out.append(frozenset(int(x) for x in token.split(",")))
        except ValueError:
            raise ValueError(f"bad face {token!r}: expected comma-joined integers")
    if not out:
        raise ValueError("no faces given")
    return out


def _parse_points(text: str) -> list[tuple[Fraction, ...]]:
    """Points as comma-joined rationals, separated by semicolons."""
    pts = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            pts.append(tuple(Fraction(x.strip()) for x in token.split(",")))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad point {token!r}: expected comma-joined rationals")
    if not pts:
        raise ValueError("no points given")
    return pts


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.replace(",", " ").split()]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational list {text!r}")


def _complex_from_args(args: argparse.Namespace) -> SimplicialComplex:
    given = [
        args.simplex is not None,
        args.forbidden is not None,
        args.facets is not None,
    ]
    if sum(given) != 1:
        raise ValueError("give exactly one of --simplex, --forbidden, --facets")
    if args.simplex is not None:
        K = simplex_complex(args.simplex)
    elif args.forbidden is not None:
        if args.ground is None:
            raise ValueError("--forbidden needs --ground")
        K = complex_from_forbidden(_parse_sets(args.forbidden), args.ground)
    else:
        if args.ground is None:
            raise ValueError("--facets needs --ground")
        K = SimplicialComplex(args.ground, _parse_sets(args.facets))
    if args.skeleton is not None:
        K = K.skeleton(args.skeleton)
    if args.cone:
        K = K.cone()
    return K


def _complex_flags(args: argparse.Namespace) -> list[str]:
    """The complex-building flags given on the command line."""
    names = ("simplex", "forbidden", "facets", "ground", "skeleton")
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if args.cone:
        given.append("--cone")
    return given


def _add_complex_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--simplex", type=int, metavar="DIM", help="full simplex of this dimension")
    p.add_argument("--forbidden", metavar="SETS", help="forbidden subsets, e.g. '1,3 2,4'")
    p.add_argument("--facets", metavar="SETS", help="generating faces, e.g. '1,2 2,3'")
    p.add_argument("--ground", type=int, metavar="N", help="ground set size for --forbidden/--facets")
    p.add_argument("--skeleton", type=int, metavar="K", help="take the k-skeleton")
    p.add_argument("--cone", action="store_true", help="cone with a fresh apex")


def _hypergraph_from_args(args: argparse.Namespace):
    if args.subsets is not None:
        extra = [flag for flag in _complex_flags(args) if flag != "--ground"]
        if extra:
            raise ValueError(f"--subsets takes no complex flags, got {' '.join(extra)}")
        n = args.ground
        if n is None:
            raise ValueError("--subsets needs --ground")
        if args.stable is not None:
            return intersection_hypergraph(
                s_stable_subsets(args.subsets, n, args.stable), args.parts
            )
        return kneser_hypergraph(args.parts, args.subsets, n)
    if args.stable is not None:
        raise ValueError("--stable needs --subsets")
    K = _complex_from_args(args)
    return generalized_kneser(K, simplex_complex(K.n - 1), args.parts)


def _add_hypergraph_args(p: argparse.ArgumentParser) -> None:
    _add_complex_args(p)
    p.add_argument("--subsets", type=int, metavar="K", help="all k-subsets of the ground set")
    p.add_argument("--stable", type=int, metavar="S", help="restrict --subsets to s-stable ones")
    p.add_argument("-r", "--parts", type=int, default=2, help="tuple size (default 2)")


# -- output --------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump(obj: dict) -> str:
    return json.dumps(obj, default=_json_default, sort_keys=False)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dump(obj))
        return
    w = max(len(k) for k in obj)
    for k, v in obj.items():
        if isinstance(v, (dict, list, tuple)):
            v = _dump(v) if isinstance(v, dict) else json.dumps(v, default=_json_default)
        print(f"{k:<{w}}  {v}")


def _emit_reports(dicts: list[dict], fmt: str) -> None:
    if fmt == "json":
        for d in dicts:
            print(_dump(d))
        return
    name_w = max(len(d["experiment"]) for d in dicts)
    for d in dicts:
        line = f"{d['experiment']:<{name_w}}  {d['verdict']:<8}  {d.get('runtime_s', 0):>8.3f}s"
        print(line)
        if d["verdict"] != "match":
            for key, want in d["claimed"].items():
                got = d["computed"].get(key)
                if got != want:
                    print(f"{'':<{name_w}}  claimed {key}={want!r} computed {got!r}")
        for note in d.get("notes", ()):
            print(f"{'':<{name_w}}  note: {note}")


# -- subcommands ----------------------------------------------------------


def _cmd_complex(args: argparse.Namespace) -> int:
    K = _complex_from_args(args)
    _emit(
        {
            "n": K.n,
            "dim": K.dim,
            "facets": [sorted(f) for f in K.facets],
            "minimal_nonfaces": [sorted(f) for f in K.minimal_nonfaces()],
        },
        args.format,
    )
    return 0


def _cmd_kneser(args: argparse.Namespace) -> int:
    H = _hypergraph_from_args(args)
    out = H.to_json_dict()
    out["n_vertices"] = H.n_vertices
    out["n_edges"] = H.n_edges
    _emit(out, args.format)
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    H = _hypergraph_from_args(args)
    res = chromatic_number(H, max_vertices=args.max_vertices)
    out = {"n_vertices": H.n_vertices, "n_edges": H.n_edges}
    out.update(res.to_json_dict())
    _emit(out, args.format)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    K = _complex_from_args(args)
    r = args.parts
    N = K.n - 1
    w = width(K, r)
    kb = Fraction(w, r - 1)
    out: dict = {
        "ground": K.n,
        "r": r,
        "width": w,
        "kriz": kb,
        "kriz_ceiling": -(-kb.numerator // kb.denominator),
    }
    if args.dimension is not None:
        out["floor_formula"] = bound_floor_formula(N, r, args.dimension)
    if args.greedy:
        H = generalized_kneser(K, simplex_complex(N), r)
        g = greedy_least_label(H, r, N)
        out["greedy_colors"] = g.colors_used
        out["greedy_proper"] = g.proper
    _emit(out, args.format)
    return 0


def _cmd_gale(args: argparse.Namespace) -> int:
    facets = gale_facets(args.n, args.dimension)
    out: dict = {
        "n": args.n,
        "d": args.dimension,
        "facets": [sorted(f) for f in facets],
    }
    code = 0
    if args.oracle:
        oracle = hull_facets_oracle(moment_points(range(1, args.n + 1), args.dimension))
        same = set(facets) == set(oracle)
        out["oracle_agrees"] = same
        if not same:
            out["oracle_facets"] = [sorted(f) for f in oracle]
            code = 1
    _emit(out, args.format)
    return code


def _cmd_tverberg(args: argparse.Namespace) -> int:
    if (args.points is None) == (args.moment is None):
        raise ValueError("give exactly one of --points, --moment")
    if args.points is not None:
        if args.dimension is not None:
            raise ValueError("-d is for --moment; --points carry their own dimension")
        pts = _parse_points(args.points)
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points have inconsistent dimensions")
        P = PointConfiguration(dims.pop(), dict(enumerate(pts, start=1)))
    else:
        if args.dimension is None:
            raise ValueError("--moment needs -d")
        P = moment_points(_parse_fractions(args.moment), args.dimension)
    restrict = _complex_from_args(args) if _complex_flags(args) else None
    result = tverberg_search(P, args.parts, restrict_to=restrict, cap=args.cap)
    out = result.to_json_dict()
    if isinstance(result, TverbergCertificate):
        out["verified"] = result.verify(P)
    _emit(out, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    family, *params = args.names or ["all"]
    if family == "all" and params:
        raise ValueError("'all' takes no instance parameters")
    families = ALL_EXPERIMENTS if family == "all" else [family]
    tasks = [  # scheduling checks every instance before any task runs
        task
        for fam in families
        for task in experiment_tasks(fam, args.seed, args.cap, args.max_vertices, params)
    ]
    reports = run_tasks(tasks)
    _emit_reports([rep.to_json_dict() for rep in reports], args.format)
    return 0 if all(rep.verdict == "match" for rep in reports) else 1


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    output.add_argument(
        "--table",
        dest="format",
        action="store_const",
        const="table",
        help="shorthand for --format table",
    )
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP, help="search-space size cap")
    limited = argparse.ArgumentParser(add_help=False)
    limited.add_argument(
        "--max-vertices", type=int, default=DEFAULT_VERTEX_LIMIT, help="exact-solver vertex cap"
    )

    parser = argparse.ArgumentParser(
        prog="kntv",
        description="Exact chromatic numbers of disjointness hypergraphs "
        "and partition certificates for point placements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complex", parents=[output], help="build and describe a complex")
    _add_complex_args(p)
    p.set_defaults(fn=_cmd_complex)

    p = sub.add_parser("kneser", parents=[output], help="build a disjointness hypergraph")
    _add_hypergraph_args(p)
    p.set_defaults(fn=_cmd_kneser)

    p = sub.add_parser("chi", parents=[output, limited], help="exact chromatic number")
    _add_hypergraph_args(p)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("bounds", parents=[output], help="width, fractional and floor bounds")
    _add_complex_args(p)
    p.add_argument("-r", "--parts", type=int, default=2, help="tuple size (default 2)")
    p.add_argument("-d", "--dimension", type=int, help="placement dimension for the floor formula")
    p.add_argument("--greedy", action="store_true", help="also run the least-label coloring")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("gale", parents=[output], help="cyclic polytope facets by evenness")
    p.add_argument("-n", type=int, required=True, help="number of vertices")
    p.add_argument("-d", "--dimension", type=int, required=True, help="polytope dimension")
    p.add_argument("--oracle", action="store_true", help="cross-check against the hull oracle")
    p.set_defaults(fn=_cmd_gale)

    p = sub.add_parser("tverberg", parents=[output, capped], help="partition certificate search")
    p.add_argument("--points", metavar="PTS", help="points, e.g. '0,0;4,0;1,4'")
    p.add_argument("--moment", metavar="PARAMS", help="moment curve parameters, e.g. '1,2,3,4'")
    p.add_argument("-d", "--dimension", type=int, help="ambient dimension for --moment")
    p.add_argument("-r", "--parts", type=int, default=2, help="number of parts")
    _add_complex_args(p)
    p.set_defaults(fn=_cmd_tverberg)

    p = sub.add_parser(
        "verify", parents=[output, capped, limited], help="run named verification experiments"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized instances")
    p.add_argument("--jobs", type=int, default=1, help="ignored: experiments run serially")
    p.add_argument(
        "names",
        nargs="*",
        metavar="NAME [PARAM...]",
        help=f"experiment family, one of: all, {', '.join(ALL_EXPERIMENTS)}; "
        "optionally followed by instance parameters",
    )
    p.set_defaults(fn=_cmd_verify)
    return parser


def _misplaced_option(parser: argparse.ArgumentParser, argv: list[str]) -> Optional[str]:
    """The usage error for a command's option given before the command, else None.

    Left to argparse, `kntv --cap 10 tverberg` reads 10 as the command
    and names the wrong token.
    """
    if not argv or not argv[0].startswith("-"):
        return None
    option = argv[0].split("=", 1)[0]
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    readers = [name for name, p in commands.items() if option in p._option_string_actions]
    if option in parser._option_string_actions or not readers:
        return None
    return f"{option} belongs after the command ({', '.join(readers)})"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    misplaced = _misplaced_option(parser, argv)
    if misplaced:
        parser.error(misplaced)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # usage errors and refused sizes (SearchSpaceError included)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RecursionError) as exc:  # never a verdict or a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
