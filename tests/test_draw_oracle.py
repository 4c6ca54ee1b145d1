"""The single draws of tverberg-random and avg-stable against the old redraw loop.

Both searches once redrew every seeded configuration until it passed the
strong general position scan. Neither needs the scan: the random draws
are partitioned by construction, Radon's null space at two parts, pairs
around the median on the line and Sarkaria's lifting, solved by a
colourful pivot walk, everywhere else; where the walk gives up they are
searched from the floor, which Tverberg's theorem with Caratheodory's
covers (see tverberg_partition, which gives each proof), and on the
moment curve tverberg_search checks for itself whether a theorem covers
its prune (see avg_stable_placement). The old loop is
kept here as the oracle, verbatim but for reading the scan's verdict
off its report, with its own bound of SGP_ATTEMPTS draws. At seeds 0 to 4 every first draw passed it, so the single draws,
the placements and the reports must all come out the same. The loop ran
only at SGP_PAIRS, the tverberg-random instances before (4, 2), so the
draws are compared there.
"""

import functools
import random
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

import pytest

from kneser_tverberg import experiments
from kneser_tverberg.experiments import (
    AVG_STABLE_INSTANCES,
    _random_draws,
    verify_avg_stable,
    verify_tverberg_random,
)
from kneser_tverberg.geometry import (
    PointConfiguration,
    avg_stable_placement,
    moment_points,
    strong_general_position_report,
)

SEEDS = range(5)
# the (r, d) the old loop drew at; its scan never ran at (4, 2)
SGP_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2))

# Draws before the old loop gave up with an error instead of looping on.
SGP_ATTEMPTS = 24


def draw_until_sgp(draw: Callable[[], PointConfiguration], r: int) -> PointConfiguration:
    """The first of up to SGP_ATTEMPTS draws in strong general position for r parts.

    Fails closed: after that many failed draws it raises ValueError
    rather than looping on. draw is called once per attempt and nothing
    else is drawn in between, so a seeded draw gives the same sequence
    of configurations wherever it is used.
    """
    for _ in range(SGP_ATTEMPTS):
        P = draw()
        if strong_general_position_report(P, r)[0]:
            return P
    raise ValueError(
        f"no strong general position configuration found in {SGP_ATTEMPTS} attempts"
    )


def _random_sgp_draws(r: int, d: int, seed: int) -> Iterator[PointConfiguration]:
    """The configurations verify_tverberg_random searches, in order, without end.

    Each has (r-1)(d+1)+1 points with coordinates k/64, |k| <= 4096,
    and is resampled until it passes the strong general position test.
    """
    rng = random.Random(seed)
    n_points = (r - 1) * (d + 1) + 1

    def draw() -> PointConfiguration:
        return PointConfiguration(
            d,
            {
                lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(d))
                for lab in range(1, n_points + 1)
            },
        )

    while True:
        yield draw_until_sgp(draw, r)


@functools.lru_cache(maxsize=None)
def sgp_placement(r: int, k: int, d: int, n: int, *, seed: int = 0):
    """avg_stable_placement with the old redraw loop at every r.

    Memoized: two tests place each (r, k, d, n, seed), and each of its
    scans walks every tuple, so each runs once in this module.
    """
    K, _ = avg_stable_placement(r, k, d, n, seed=seed)
    rng = random.Random(seed)

    def draw() -> PointConfiguration:
        params = [Fraction(i) + Fraction(rng.randrange(0, 2048), 4096) for i in range(1, n + 1)]
        return moment_points(params, d)

    return K, draw_until_sgp(draw, r)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("r, d", SGP_PAIRS)
def test_random_draws_match_the_sgp_loop(r, d, seed):
    assert list(islice(_random_draws(r, d, seed), 25)) == list(
        islice(_random_sgp_draws(r, d, seed), 25)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("r, k, n", AVG_STABLE_INSTANCES)
def test_placements_match_the_sgp_loop(r, k, n, seed):
    d = (r * (k - 1) - 1) // (r - 1)
    assert avg_stable_placement(r, k, d, n, seed=seed) == sgp_placement(r, k, d, n, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_the_sgp_loop(seed, monkeypatch):
    def reports():
        out = [verify_tverberg_random(r, d, seed=seed) for r, d in SGP_PAIRS]
        out += [verify_avg_stable(r, k, n, seed=seed) for r, k, n in AVG_STABLE_INSTANCES]
        return [rep.to_json_dict(include_runtime=False) for rep in out]

    got = reports()
    monkeypatch.setattr(experiments, "_random_draws", _random_sgp_draws)
    # verify_avg_stable places through the private form, which takes the filtered family too
    monkeypatch.setattr(
        experiments,
        "_avg_stable_placement",
        lambda r, k, d, n, seed, stable: sgp_placement(r, k, d, n, seed=seed),
    )
    want = reports()
    assert got == want
    assert all(rep["verdict"] == "match" for rep in got)
