"""tverberg_search on its own integer points, and the integer certificate check, against the code they replaced.

The oracles are kept here verbatim:
- `per_tuple_search`: `tverberg_search` as it ran when every tuple whose
  boxes met went to the public `conv_intersect`, on `P.subset` of each
  face, with a fresh common denominator per tuple. Its boxes came from
  P scaled axis by axis. The search now scales P once by one common
  denominator L and hands each tuple's integer points to
  `geometry._hull_weights` with L; scaling the whole system by a
  positive integer moves neither the elimination's answer nor a pivot
  of the simplex, so certificates and reports must come out the same.
  The only edit is that the oracle's own check is `fraction_verify`.
- `fraction_verify`: `TverbergCertificate.verify` as it summed
  `Fraction` products. The check now clears denominators and compares
  integers; it must give the same verdict on every certificate below
  and on each mutation.
"""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import comb, lcm

import pytest

from kneser_tverberg import experiments, geometry, hypergraphs
from kneser_tverberg.experiments import (
    AVG_STABLE_INSTANCES,
    PIPELINE_INSTANCES,
    TVERBERG_INSTANCES,
    _random_draws,
    pipeline_instance,
    verify_avg_stable,
    verify_tverberg_random,
)
from kneser_tverberg.geometry import (
    DEFAULT_SEARCH_CAP,
    AbsenceReport,
    PointConfiguration,
    SearchSpaceError,
    TverbergCertificate,
    _blocks_by_side,
    _box,
    _boxes_meet,
    _curve_table,
    _scaled_integer_points,
    avg_stable_placement,
    conv_intersect,
    moment_points,
    tverberg_search,
)
from kneser_tverberg.simplicial import SimplicialComplex, _disjoint_tuples


def fraction_verify(cert, P):
    if len(cert.parts) < 2 or len(cert.parts) != len(cert.weights):
        return False
    seen: set[int] = set()
    for part, wlist in zip(cert.parts, cert.weights):
        if not part or frozenset(lab for lab, _ in wlist) != part:
            return False
        if seen & part:
            return False
        seen |= part
        if any(w < 0 for _, w in wlist):
            return False
        if sum(w for _, w in wlist) != 1:
            return False
        for j in range(P.d):
            if sum(w * P.point(lab)[j] for lab, w in wlist) != cert.point[j]:
                return False
    return True


def per_tuple_search(P, r, restrict_to=None, *, cap=DEFAULT_SEARCH_CAP, codim_pruning=False):
    if r < 2:
        raise ValueError("need r >= 2")
    d = P.d
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    # Faces come in (size, lex) order either way: faces() sorts that way,
    # and combinations of the sorted labels are lex within each size. The
    # tuple walk needs sizes that never decrease along the list.
    if restrict_to is not None:
        if set(labels) != set(range(1, restrict_to.n + 1)):
            raise ValueError("complex vertices must match the point labels 1..n")
        face_sets = [f for f in restrict_to.faces(max_size=d + 1) if f]
    else:
        face_sets = [
            frozenset(c) for size in range(1, min(d + 1, len(labels)) + 1)
            for c in combinations(labels, size)
        ]
    masks = [sum(1 << pos[lab] for lab in f) for f in face_sets]
    sizes = [len(f) for f in face_sets]
    nf = len(face_sets)

    estimate = comb(nf, r)
    if estimate > cap:
        raise SearchSpaceError(
            f"{estimate} candidate {r}-tuples from {nf} faces exceed the cap {cap}",
            estimate,
            cap,
        )

    threshold = r
    if codim_pruning:
        # total codimension sum((d+1) - size_i) must stay at most d
        threshold = max(threshold, (r - 1) * (d + 1) + 1)

    ipts = _scaled_integer_points(P)
    boxes = [_box([ipts[lab] for lab in f]) for f in face_sets]
    face_points = [P.subset(f) for f in face_sets]
    max_size = sizes[-1] if sizes else 0
    curve = _curve_table(P) if r == 2 else False
    examined = 0
    for total in range(threshold, r * max_size + 1):
        for t in _disjoint_tuples(masks, sizes, r, total):
            examined += 1
            if not _boxes_meet([boxes[i] for i in t]):
                continue
            if curve and len(_blocks_by_side(curve[1], face_sets[t[0]], face_sets[t[1]])) <= d + 1:
                continue
            witness = conv_intersect([face_points[i] for i in t])
            if witness is None:
                continue
            part_sets = [face_sets[i] for i in t]
            order = sorted(range(r), key=lambda i: tuple(sorted(part_sets[i])))
            parts = tuple(part_sets[i] for i in order)
            weights = tuple(
                tuple(zip(sorted(part_sets[i]), witness.weights[i]))
                for i in order
            )
            cert = TverbergCertificate(parts, witness.point, weights)
            if not fraction_verify(cert, P):
                raise ArithmeticError("internal certificate failed its own verification")
            return cert
    return AbsenceReport(
        r, nf, examined, threshold, restrict_to is not None, codim_pruning
    )


# -- the searches ----------------------------------------------------------


def covered(P, r, restricted):
    """Whether a theorem covers codim_pruning here, so the search honours it.

    (a) no complex and at least (r-1)(d+1)+1 points; (b) two parts at
    distinct moment-curve parameters; (c) three or more parts there with
    2n < 3(d+2). The curve is checked by taking powers.
    """
    n, d = len(P), P.d
    if not restricted and n >= (r - 1) * (d + 1) + 1:
        return True
    ts = [P.point(lab)[0] for lab in P.labels]
    on_curve = len(set(ts)) == n and all(
        P.point(lab) == tuple(t**j for j in range(1, d + 1)) for lab, t in zip(P.labels, ts)
    )
    return on_curve and (r == 2 or 2 * n < 3 * (d + 2))


def certify_draws():
    """verify_tverberg_random's draws for every certify (r, d), at seeds 0 and 1, searched from the floor."""
    counts = {(3, 2): 10}
    return [
        (P, r, None, True)
        for seed in (0, 1)
        for r, d in TVERBERG_INSTANCES
        for P in islice(_random_draws(r, d, seed), counts.get((r, d), 25))
    ]


def restricted_random_searches():
    """Unpruned searches restricted to random complexes, so tuples above the floor reach the LP.

    Unrestricted, a meeting tuple of total at most the floor (r-1)(d+1)+1
    always comes first; restricted to a few facets, many searches find
    none, and the walk hull-tests larger tuples on the simplex.
    """
    rng = random.Random(25)
    out = []
    for _ in range(100):
        # in R^1 a box test decides every tuple, so nothing above the floor reaches the LP
        d = rng.randint(2, 3)
        r = rng.choice((2, 2, 3)) if d == 2 else 2
        n = rng.randint(r * (d + 1), r * (d + 1) + 1)
        pts = {
            lab: tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(d))
            for lab in range(1, n + 1)
        }
        facets = [rng.sample(range(1, n + 1), d + 1) for _ in range(rng.randint(2, 3))]
        out.append((PointConfiguration(d, pts), r, SimplicialComplex(n, facets), False))
    return out


def pipeline_searches():
    """The restricted searches of the bound pipelines and of the avg-stable instances, seeds 0 to 2."""
    out = []
    for (name,) in PIPELINE_INSTANCES:
        K, r, P, _ = pipeline_instance(name)
        out.append((P, r, K, False))
    for r, k, n in AVG_STABLE_INSTANCES:
        d = (r * (k - 1) - 1) // (r - 1)
        for seed in range(3):
            K, P = avg_stable_placement(r, k, d, n, seed=seed)
            out.append((P, r, K, True))
    # the r = 3 placement unpruned: every tuple walked, none meets
    K, P = avg_stable_placement(3, 4, 4, 7, seed=0)
    out.append((P, 3, K, False))
    return out


def degenerate_draws():
    """Grid draws with repeated and collinear points, searched from the floor and unpruned."""
    rng = random.Random("degenerate-25")
    out = []
    for r, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        n = (r - 1) * (d + 1) + 1
        for _ in range(8):
            s = rng.randint(1, 2)
            P = PointConfiguration(
                d, {lab: tuple(rng.randint(-s, s) for _ in range(d)) for lab in range(1, n + 1)}
            )
            out += [(P, r, None, True), (P, r, None, False)]
    out += [
        (PointConfiguration(2, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (3, 3)}), 2, None, False),
        (PointConfiguration(1, {lab: (0,) for lab in range(1, 6)}), 3, None, False),
        (PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2)}), 2, None, True),
    ]
    return out


def unrelated_denominator_draws():
    """Coordinates over coprime denominators, so one tuple's common denominator is not P's."""
    rng = random.Random("denominators-25")
    out = []
    for r, d in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2)):
        n = (r - 1) * (d + 1) + 1 + rng.randint(0, 1)
        for _ in range(6):
            pts = {
                lab: tuple(
                    Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7, 11, 13)))
                    for _ in range(d)
                )
                for lab in range(1, n + 1)
            }
            P = PointConfiguration(d, pts)
            out += [(P, r, None, True), (P, r, None, False)]
    # on the moment curve at unrelated parameters, where the block rule acts too
    out.append((moment_points([Fraction(-3, 7), Fraction(1, 11), Fraction(2, 5), 1, Fraction(13, 3)], 3), 2, None, False))
    return out


SEARCHES = {
    "certify": certify_draws,
    "restricted": restricted_random_searches,
    "pipelines": pipeline_searches,
    "degenerate": degenerate_draws,
    "denominators": unrelated_denominator_draws,
}


def _same(got, want):
    """Equal outcomes, down to the type and text of every weight and coordinate."""
    if isinstance(want, AbsenceReport):
        return got == want
    return (
        isinstance(got, TverbergCertificate)
        and got == want
        and got.to_json_dict() == want.to_json_dict()
        and [type(x) for x in got.point] == [type(x) for x in want.point]
        and [type(w) for wl in got.weights for _, w in wl] == [type(w) for wl in want.weights for _, w in wl]
    )


@pytest.mark.parametrize("kind", list(SEARCHES))
def test_search_matches_the_per_tuple_loop(kind, monkeypatch):
    """Certificates (parts, point, weights) and absence reports are the per-tuple loop's."""
    floor_calls = []
    above_floor = [0]
    real = geometry._hull_weights

    def counting(parts, scale):
        floor_calls.append(sum(map(len, parts)))
        return real(parts, scale)

    monkeypatch.setattr(geometry, "_hull_weights", counting)
    outcomes = {"certificate": 0, "absence": 0}
    for P, r, K, pruning in SEARCHES[kind]():
        floor_calls.clear()
        got = tverberg_search(P, r, K, codim_pruning=pruning)
        above_floor[0] += sum(total > (r - 1) * (P.d + 1) + 1 for total in floor_calls)
        want = per_tuple_search(P, r, K, codim_pruning=pruning and covered(P, r, K is not None))
        assert _same(got, want), (P.to_json_dict(), r, pruning)
        outcomes["certificate" if isinstance(want, TverbergCertificate) else "absence"] += 1
    if kind == "certify":
        assert outcomes == {"certificate": 170, "absence": 0}
    if kind == "restricted":
        # tuples above the floor go to the simplex
        assert above_floor[0] >= 50 and outcomes["absence"] >= 20 and outcomes["certificate"] >= 20
    if kind == "pipelines":
        assert outcomes["absence"] >= 10 and outcomes["certificate"] >= 1
    if kind in ("degenerate", "denominators"):
        assert outcomes["certificate"] >= 40


# -- the certificate check --------------------------------------------------


@pytest.fixture(scope="module")
def certificates():
    """Every certificate the searches above find, with its configuration."""
    out = []
    for make in SEARCHES.values():
        for P, r, K, pruning in make():
            cert = tverberg_search(P, r, K, codim_pruning=pruning)
            if isinstance(cert, TverbergCertificate):
                out.append((P, cert))
    return out


def _scale(P):
    return lcm(*[x.denominator for lab in P.labels for x in P.point(lab)])


def _with_weights(cert, i, wlist):
    weights = list(cert.weights)
    weights[i] = tuple(wlist)
    return TverbergCertificate(cert.parts, cert.point, tuple(weights))


def mutations(P, cert, rng):
    """Broken copies of a valid certificate, each named for what it breaks."""
    L = _scale(P)
    part, wlist = cert.parts[0], list(cert.weights[0])
    lab0, w0 = wlist[0]
    out = []
    # a negative weight, the sum kept at 1
    if len(wlist) > 1:
        eps = Fraction(1, L + 1)
        bent = [(lab0, -eps)] + [(wlist[1][0], wlist[1][1] + w0 + eps)] + wlist[2:]
        out.append(("negative, sum kept", _with_weights(cert, 0, bent)))
    out.append(("negative", _with_weights(cert, 0, [(lab0, -w0 - 1)] + wlist[1:])))
    # the weights of one part do not sum to 1
    out.append(("sum", _with_weights(cert, 0, [(lab0, w0 + Fraction(1, L))] + wlist[1:])))
    out.append(("scaled", _with_weights(cert, 1, [(lab, 2 * w) for lab, w in cert.weights[1]])))
    # one coordinate of the point off by 1/L
    j = rng.randrange(P.d)
    point = list(cert.point)
    point[j] += Fraction(rng.choice((-1, 1)), L)
    out.append(("coordinate", TverbergCertificate(cert.parts, tuple(point), cert.weights)))
    # overlapping parts: a label of part 1 also in part 0, at weight 0
    lab1 = min(cert.parts[1])
    parts = (part | {lab1},) + cert.parts[1:]
    weights = (tuple(sorted(wlist + [(lab1, Fraction(0))])),) + cert.weights[1:]
    out.append(("overlap", TverbergCertificate(parts, cert.point, weights)))
    # a label set that does not match its weights
    spare = [lab for lab in P.labels if not any(lab in p for p in cert.parts)]
    if spare:
        parts = (part | {spare[0]},) + cert.parts[1:]
        out.append(("unweighted label", TverbergCertificate(parts, cert.point, cert.weights)))
    if len(part) > 1:
        out.append(("missing weight", _with_weights(cert, 0, wlist[1:])))
    # one random weight moved by a random amount
    i = rng.randrange(len(cert.parts))
    k = rng.randrange(len(cert.weights[i]))
    moved = list(cert.weights[i])
    moved[k] = (moved[k][0], moved[k][1] + Fraction(rng.randint(-3, 3), rng.randint(1, 3 * L)))
    out.append(("random", _with_weights(cert, i, moved)))
    return out


def _as_ints(cert):
    """The same certificate with every integral weight and coordinate an int."""
    def plain(x):
        return int(x) if x.denominator == 1 else x

    return TverbergCertificate(
        cert.parts,
        tuple(plain(x) for x in cert.point),
        tuple(tuple((lab, plain(w)) for lab, w in wl) for wl in cert.weights),
    )


def test_integer_check_matches_the_fraction_check_on_every_certificate(certificates):
    assert len(certificates) >= 250
    ints = 0
    for P, cert in certificates:
        assert cert.verify(P) and fraction_verify(cert, P)
        plain = _as_ints(cert)
        ints += plain != cert or any(type(x) is int for x in plain.point)
        assert plain.verify(P) and fraction_verify(plain, P)
    assert ints >= 20


def test_integer_check_matches_the_fraction_check_on_mutations(certificates):
    rng = random.Random(2025)
    seen = {}
    for P, cert in certificates:
        for name, bad in mutations(P, cert, rng):
            for form in (bad, _as_ints(bad)):
                want = fraction_verify(form, P)
                assert form.verify(P) == want, (name, P.to_json_dict(), form)
                seen.setdefault(name, set()).add(want)
    # every named mutation is rejected; the random one is too, whenever it moved a weight
    assert {name: verdicts for name, verdicts in seen.items() if name != "random"} == {
        name: {False} for name in seen if name != "random"
    }
    assert set(seen) >= {"negative", "sum", "scaled", "coordinate", "overlap", "unweighted label"}


def test_integer_check_on_hand_made_certificates():
    """int and Fraction weights and points, mixed, on a configuration with a repeated point."""
    F = Fraction
    P = PointConfiguration(2, {1: (0, 0), 2: (0, 0), 3: (2, 0), 4: (0, 2), 5: (F(1, 3), 5)})
    one, seg = (frozenset({1}), frozenset({2})), (frozenset({3, 4}), frozenset({1, 5}))
    # segment 3-4 (x + y = 2) meets segment 1-5 at (1/8, 15/8)
    cross = (((3, F(1, 16)), (4, F(15, 16))), ((1, F(5, 8)), (5, F(3, 8))))
    valid = [
        TverbergCertificate(one, (0, 0), (((1, 1),), ((2, 1),))),
        TverbergCertificate(one, (F(0), 0), (((1, F(1)),), ((2, 1),))),
        TverbergCertificate(seg, (F(1, 8), F(15, 8)), cross),
    ]
    invalid = [
        TverbergCertificate(seg, (F(1, 8), 2), cross),  # off by 1/8 in y
        TverbergCertificate(seg, (F(1, 8), F(15, 8)), (cross[0], ((1, F(5, 8)), (5, F(3, 7))))),
        TverbergCertificate(seg, (F(1, 8), F(15, 8)), (cross[0], ((1, 1), (5, 0)))),
        TverbergCertificate((frozenset({1}), frozenset({3, 4})), (1, 1), (((1, 1),), ((3, F(1, 2)), (4, F(1, 2))))),
        TverbergCertificate((frozenset({1}), frozenset({2}), frozenset({3})), (0, 0), (((1, 1),), ((2, 1),), ((3, 1),))),
        TverbergCertificate((frozenset({1}),), (0, 0), (((1, 1),),)),
        TverbergCertificate(one, (0, 0), (((1, 1),),)),
        TverbergCertificate(one, (0, 0), (((1, 1),), ((2, 0),))),
        TverbergCertificate(one, (0, 0), (((1, 2),), ((2, 1),))),
        TverbergCertificate(one, (0, 0), (((1, F(-1)),), ((2, 1),))),
        TverbergCertificate((frozenset(), frozenset({2})), (0, 0), ((), ((2, 1),))),
        TverbergCertificate((frozenset({1, 2}), frozenset({2})), (0, 0), (((1, 0), (2, 1)), ((2, 1),))),
    ]
    assert [cert.verify(P) for cert in valid] == [fraction_verify(cert, P) for cert in valid] == [True] * 3
    assert [cert.verify(P) for cert in invalid] == [fraction_verify(cert, P) for cert in invalid]
    assert not any(cert.verify(P) for cert in invalid)


def test_a_point_of_another_dimension_fails_the_check():
    P = PointConfiguration(2, {1: (0, 0), 2: (0, 0)})
    cert = TverbergCertificate((frozenset({1}), frozenset({2})), (0, 0), (((1, 1),), ((2, 1),)))
    assert cert.verify(P)
    for point in ((0,), (0, 0, 0)):
        assert not TverbergCertificate(cert.parts, point, cert.weights).verify(P)


def test_random_draws_are_checked_twice(monkeypatch):
    """tverberg-random keeps both checks of each certificate: the search's own and the experiment's."""
    calls = []
    real = TverbergCertificate.verify

    def counting(self, P):
        calls.append(self)
        return real(self, P)

    monkeypatch.setattr(TverbergCertificate, "verify", counting)
    rep = verify_tverberg_random(2, 2, count=5, seed=0)
    assert rep.verdict == "match"
    assert len(calls) == 10 and calls[0::2] == calls[1::2]


# -- the avg-stable family, filtered once ------------------------------------


def test_avg_stable_filters_the_family_once(monkeypatch):
    calls = []
    real = hypergraphs.is_t_stable_on_average

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(hypergraphs, "is_t_stable_on_average", counting)
    monkeypatch.setattr(geometry, "is_t_stable_on_average", counting)
    assert verify_avg_stable(2, 4, 10).verdict == "match"
    assert len(calls) == comb(10, 4) == len(set(calls))


def _outcome(fn):
    try:
        return "report", fn().to_json_dict(include_runtime=False)
    except ValueError as exc:
        return "error", str(exc)


def test_avg_stable_reports_and_errors_match_the_public_placement(monkeypatch):
    """verify_avg_stable as it ran, placing through the public avg_stable_placement, is the oracle.

    Reports and ValueErrors must be the same over a grid of (r, k, n),
    valid and not, in the same order: the hypergraph's checks first, the
    placement's after.
    """
    # (3, 4, 11) and (4, 4, 10) are left out for time: seconds of solver and of capped sweep
    grid = [
        (r, k, n) for r in (1, 2, 3, 4, 6) for k in (1, 2, 3, 4, 5) for n in range(1, 12 if r == 2 else 10)
    ]
    grid += [(3, 5, 4), (2, 5, 3), (4, 4, 3), (2, 6, 11), (3, 6, 9)]
    got = [_outcome(lambda: verify_avg_stable(r, k, n)) for r, k, n in grid]
    monkeypatch.setattr(
        experiments,
        "_avg_stable_placement",
        lambda r, k, d, n, seed, stable: avg_stable_placement(r, k, d, n, seed=seed),
    )
    want = [_outcome(lambda: verify_avg_stable(r, k, n)) for r, k, n in grid]
    assert got == want
    kinds = {kind for kind, _ in got}
    messages = {msg for kind, msg in got if kind == "error"}
    assert kinds == {"report", "error"} and len(messages) >= 5
