"""The certified Kneser lower bound against the solver's own refutation.

`verify_kneser` starts the exact solver at the floor-formula bound that an
absence sweep certifies on the moment curve, instead of refuting chi - 1
by exhaustive search. That refutation stays here as the oracle: both
paths must give the same chi and the same witness coloring, and the
sweep must check every pair of disjoint faces.
"""

from math import comb

import pytest

from kneser_tverberg.coloring import LowerBound, certified_lower_bound, chromatic_number
from kneser_tverberg.experiments import pipeline_instance, verify_kneser
from kneser_tverberg.geometry import TverbergCertificate, moment_points
from kneser_tverberg.hypergraphs import (
    intersection_hypergraph,
    kneser_hypergraph,
    s_stable_subsets,
)
from kneser_tverberg.simplicial import simplex_complex

INSTANCES = [(2, n) for n in range(4, 12)] + [(3, n) for n in range(6, 10)]
MAX_VERTICES = 84  # KG(9,3)


def kneser_bound(k, n):
    """The (k-2)-skeleton of the simplex on 1..n at moment-curve points in R^(2k-3)."""
    K = simplex_complex(n - 1).skeleton(k - 2)
    return certified_lower_bound(K, moment_points(range(1, n + 1), 2 * k - 3), 2)


def disjoint_pairs(k, n):
    """Unordered pairs of disjoint nonempty subsets of 1..n, each of size at most k - 1."""
    ordered = sum(comb(n, a) * comb(n - a, b) for a in range(1, k) for b in range(1, k))
    return ordered // 2


def test_closed_form_pair_counts():
    assert [disjoint_pairs(2, n) for n in range(4, 12)] == [comb(n, 2) for n in range(4, 12)]
    assert disjoint_pairs(3, 7) == 231


@pytest.mark.parametrize("k,n", INSTANCES)
def test_certified_path_matches_the_refutation(k, n):
    H = kneser_hypergraph(2, k, n)
    lower = kneser_bound(k, n)
    assert isinstance(lower, LowerBound)
    assert lower.bound == n - 2 * k + 2
    assert lower.absence.restricted and not lower.absence.codim_pruning
    assert lower.absence.tuples_examined == disjoint_pairs(k, n)

    solver = chromatic_number(H, max_vertices=MAX_VERTICES)
    certified = chromatic_number(H, max_vertices=MAX_VERTICES, lower=lower)
    assert certified.chi == solver.chi == lower.bound
    assert certified.coloring == solver.coloring
    assert certified.lower_bound is lower
    assert certified.refuted_k is None
    assert certified.search_nodes <= solver.search_nodes

    rep = verify_kneser(k, n, max_vertices=MAX_VERTICES)
    assert rep.verdict == "match"
    assert rep.computed["chi"] == solver.chi
    assert rep.computed["chi_source"] == "certified_bound"
    assert rep.computed["lower_bound"] == lower.bound
    assert rep.computed["search_nodes"] == certified.search_nodes


def test_k_one_stays_on_the_solver():
    rep = verify_kneser(1, 4)
    assert rep.verdict == "match"
    assert rep.computed["chi_source"] == "solver"
    assert "lower_bound" not in rep.computed


@pytest.mark.parametrize(
    "H",
    [
        intersection_hypergraph(s_stable_subsets(2, 7, 2), 2),  # SG(7,2)
        kneser_hypergraph(2, 2, 7).induced(range(20)),
        kneser_hypergraph(3, 2, 7),
    ],
    ids=["schrijver-2-7", "induced", "arity-3"],
)
def test_bound_for_another_hypergraph_is_refused(H):
    with pytest.raises(ValueError):
        chromatic_number(H, lower=kneser_bound(2, 7))


def test_meeting_faces_give_a_certificate_not_a_bound():
    K, r, P, _ = pipeline_instance("k5-plane")
    out = certified_lower_bound(K, P, r)
    assert isinstance(out, TverbergCertificate)
    assert out.verify(P)


def test_result_json_shows_the_bound():
    lower = kneser_bound(2, 6)
    out = chromatic_number(kneser_hypergraph(2, 2, 6), lower=lower).to_json_dict()
    assert "refutation" not in out
    assert out["lower_bound"]["bound"] == 4
    assert out["lower_bound"]["absence"]["tuples_examined"] == 15
