"""Property-based checks of the closed-form invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import var_nonparametric
from robust_recourse.errors import InfeasibleMargin
from robust_recourse.feasibility import FeasibleSetSpec, _project_l1_ball, project_feasible
from robust_recourse.model import ComponentMoments, Cost, MixtureBelief
from robust_recourse.objective import eval_gaussian, eval_nonparametric
from robust_recourse.worst_case import closed_form


def probs(a, b, c):
    """closed_form's (nonparametric, gaussian) values at the triple (a, b, c)."""
    return tuple(float(closed_form(a, b, c, gaussian)[0]) for gaussian in (False, True))


# triples (a, b, c) with a + c < 0, i.e. inside the strict robust margin
feasible_triples = st.tuples(
    st.floats(0.05, 10.0),  # -a
    st.floats(0.01, 10.0),  # b
    st.floats(0.0, 0.999),  # c as a fraction of |a|
).map(lambda t: (-t[0], t[1], t[0] * t[2]))


@given(feasible_triples, st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_scale_invariance(triple, scale):
    scaled = probs(*(scale * v for v in triple))
    for p_scaled, p in zip(scaled, probs(*triple)):
        assert abs(p_scaled - p) <= 1e-10


@given(feasible_triples)
@settings(max_examples=200, deadline=None)
def test_probability_ranges(triple):
    p_np, p_g = probs(*triple)
    assert 0.0 <= p_np <= 1.0
    assert 0.0 <= p_g < 0.5  # deep tails may underflow to zero
    assert p_np >= p_g - 1e-12  # the moment ball contains the gaussian ball


@given(feasible_triples, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_ambiguity_radius(triple, shrink):
    a, b, c = triple
    for p_smaller, p in zip(probs(a, b, c * shrink), probs(a, b, c)):
        assert p_smaller <= p + 1e-12


@given(feasible_triples)
@settings(max_examples=100, deadline=None)
def test_probability_is_var_root(triple):
    # the closed form solves var(beta) = 0
    beta = probs(*triple)[0]
    assert abs(var_nonparametric(*triple, beta)) <= 1e-7 * max(1.0, abs(triple[0]))


@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
@settings(max_examples=100, deadline=None)
def test_saturation_outside_margin(neg_a, c_extra):
    # a + c >= 0, here (a, b, c) = (-neg_a, 1, neg_a + c_extra) at x = (1, 0),
    # is outside both regimes' closed forms: the evaluator reports the margin
    belief = MixtureBelief((ComponentMoments([neg_a, 0.0], np.eye(2), neg_a + c_extra),), [1.0])
    for evaluator in (eval_nonparametric, eval_gaussian):
        with pytest.raises(InfeasibleMargin):
            evaluator([1.0, 0.0], belief)


vectors = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6).map(np.array)


@given(vectors, st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_l1_ball_projection_properties(v, radius):
    w = _project_l1_ball(v[None], radius)[0]
    assert np.abs(w).sum() <= radius + 1e-9
    again = _project_l1_ball(w[None], radius)[0]
    assert np.allclose(w, again, atol=1e-12)
    if np.abs(v).sum() <= radius:
        assert np.array_equal(w, v)


@given(vectors, st.floats(0.0, 0.9), st.floats(0.01, 0.5))
@settings(max_examples=200, deadline=None)
def test_cone_projection_feasible_and_idempotent(v, rho_frac, margin):
    theta = np.zeros_like(v)
    theta[0] = 1.0
    rho = rho_frac  # strictly below ||theta|| = 1
    # the margin set alone: no cost ball, no bounds
    spec = FeasibleSetSpec(np.zeros((1, v.size)), None, Cost.L2, margin, theta[None],
                           np.array([[rho]]), np.full((1, v.size), -np.inf),
                           np.full((1, v.size), np.inf))
    y = project_feasible(v, spec)
    assert rho * np.linalg.norm(y) - y[0] <= -margin + 1e-9
    z = project_feasible(y, spec)
    assert np.linalg.norm(z - y) <= 1e-9
