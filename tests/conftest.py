import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

# every property test draws the same examples on every run, so a run's
# outcome depends on the code alone; the per-test @settings keep their
# max_examples and deadlines
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_pd_matrix(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T / d + 0.2 * np.eye(d))


def random_feasible_instance(rng, d, K, rho_hi=0.4, margin_gap=0.05):
    """A belief plus a point x with every robust margin strictly satisfied."""
    from robust_recourse.model import ComponentMoments, MixtureBelief

    for _ in range(200):
        comps = []
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        for _ in range(K):
            mean = base * rng.uniform(0.8, 1.5) + 0.2 * rng.normal(size=d)
            comps.append(
                ComponentMoments(mean, random_pd_matrix(rng, d), rng.uniform(0.0, rho_hi))
            )
        weights = rng.dirichlet(np.ones(K))
        belief = MixtureBelief(tuple(comps), weights)
        x = base * rng.uniform(1.0, 3.0) + 0.1 * rng.normal(size=d)
        slacks = [
            c.mean @ x - c.radius * np.linalg.norm(x) for c in belief.components
        ]
        if min(slacks) > margin_gap:
            return belief, x
    raise AssertionError("could not draw a feasible instance")
