"""Property-based checks of the closed-form invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import var_nonparametric
from robust_recourse.feasibility import _project_cone_known, _project_l1_ball
from robust_recourse.worst_case import (
    ABCTriple,
    AT_OR_ABOVE_HALF,
    prob_gaussian,
    prob_nonparametric,
)

# triples with a + c < 0, i.e. inside the strict robust margin
feasible_triples = st.tuples(
    st.floats(0.05, 10.0),  # -a
    st.floats(0.01, 10.0),  # b
    st.floats(0.0, 0.999),  # c as a fraction of |a|
).map(lambda t: ABCTriple(-t[0], t[1], t[0] * t[2]))


@given(feasible_triples, st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_scale_invariance(triple, scale):
    scaled = ABCTriple(triple.a * scale, triple.b * scale, triple.c * scale)
    assert abs(prob_nonparametric(scaled) - prob_nonparametric(triple)) <= 1e-10
    assert abs(prob_gaussian(scaled) - prob_gaussian(triple)) <= 1e-10


@given(feasible_triples)
@settings(max_examples=200, deadline=None)
def test_probability_ranges(triple):
    p_np = prob_nonparametric(triple)
    p_g = prob_gaussian(triple)
    assert 0.0 <= p_np <= 1.0
    assert 0.0 <= p_g < 0.5  # deep tails may underflow to zero
    assert p_np >= p_g - 1e-12  # the moment ball contains the gaussian ball


@given(feasible_triples, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_ambiguity_radius(triple, shrink):
    smaller = ABCTriple(triple.a, triple.b, triple.c * shrink)
    assert prob_nonparametric(smaller) <= prob_nonparametric(triple) + 1e-12
    assert prob_gaussian(smaller) <= prob_gaussian(triple) + 1e-12


@given(feasible_triples)
@settings(max_examples=100, deadline=None)
def test_probability_is_var_root(triple):
    # the closed form solves var(beta) = 0
    beta = prob_nonparametric(triple)
    assert abs(var_nonparametric(triple, beta)) <= 1e-7 * max(1.0, abs(triple.a))


@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
@settings(max_examples=100, deadline=None)
def test_saturation_outside_margin(neg_a, c_extra):
    # a + c >= 0 saturates both regimes
    triple = ABCTriple(-neg_a, 1.0, neg_a + c_extra)
    assert prob_nonparametric(triple) == 1.0
    assert prob_gaussian(triple) is AT_OR_ABOVE_HALF


vectors = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6).map(np.array)


@given(vectors, st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_l1_ball_projection_properties(v, radius):
    w = _project_l1_ball(v, radius)
    assert np.abs(w).sum() <= radius + 1e-9
    again = _project_l1_ball(w, radius)
    assert np.allclose(w, again, atol=1e-12)
    if np.abs(v).sum() <= radius:
        assert np.array_equal(w, v)


@given(vectors, st.floats(0.0, 0.9), st.floats(0.01, 0.5))
@settings(max_examples=200, deadline=None)
def test_cone_projection_feasible_and_idempotent(v, rho_frac, margin):
    theta = np.zeros_like(v)
    theta[0] = 1.0
    rho = rho_frac  # strictly below ||theta|| = 1
    y = _project_cone_known(v, theta, rho, 1.0, margin)
    assert rho * np.linalg.norm(y) - y[0] <= -margin + 1e-9
    z = _project_cone_known(y, theta, rho, 1.0, margin)
    assert np.linalg.norm(z - y) <= 1e-9
