"""The random subsets of dismantle and roundtrip against the rng.sample expression they replace.

`_random_subset(rng, n)` reads the generator's bits itself instead of
calling `rng.sample(range(1, n + 1), rng.randint(1, n))`. The oracle is
that expression: every draw must give the same set and leave the
generator in the same state, on both sides of n = 21, where sample
stops taking its pool branch for every size. The seed-0 families of the
benchmark sizes, drawn by a copy of the old loops, must also come out
the same.
"""

import random

from kneser_tverberg import experiments
from kneser_tverberg.experiments import _random_subset, verify_dismantle, verify_roundtrip
from kneser_tverberg.hypergraphs import minimize_system


def sample_subset(rng, n):
    return frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))


def test_draws_and_generator_states_match_sample():
    for seed in range(200):
        old, new = random.Random(seed), random.Random(seed)
        for n in range(1, 25):
            for _ in range(2):
                assert _random_subset(new, n) == sample_subset(old, n)
                assert new.getstate() == old.getstate()


def old_dismantle_families(count, max_ground, seed):
    """verify_dismantle's draws as its loop made them before the helper."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, max_ground)
        m = rng.randint(1, 18)
        yield [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)]


def old_roundtrip_families(count, max_ground, seed):
    """verify_roundtrip's antichains and ground sizes as its loop made them before the helper."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, max_ground)
        rng.randint(2, 3)
        m = rng.randint(1, 2 * n)
        fam = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(m)]
        yield list(minimize_system(fam)), n


def test_dismantle_families_are_unchanged(monkeypatch):
    """Each iteration builds the full family's graph first, then the minimized one's."""
    seen = []
    real = experiments.intersection_hypergraph

    def recording(fam, r):
        seen.append(list(fam))
        return real(fam, r)

    monkeypatch.setattr(experiments, "intersection_hypergraph", recording)
    assert verify_dismantle(1000, 9, 0).verdict == "match"
    assert seen[::2] == list(old_dismantle_families(1000, 9, 0))


def test_roundtrip_families_are_unchanged(monkeypatch):
    seen = []
    real = experiments.complex_from_forbidden

    def recording(G, n):
        seen.append((list(G), n))
        return real(G, n)

    monkeypatch.setattr(experiments, "complex_from_forbidden", recording)
    assert verify_roundtrip(200, 12, 0).verdict == "match"
    assert seen == list(old_roundtrip_families(200, 12, 0))
