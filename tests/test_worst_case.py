import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import random_feasible_instance, random_pd_matrix
from oracles import (
    BetaOutOfRange,
    triple,
    var_gaussian,
    var_nonparametric,
    wc_prob_gaussian_bisect,
    wc_prob_nonparametric_bisect,
)
from robust_recourse.errors import InfeasibleMargin, ZeroAction
from robust_recourse.model import ComponentMoments, MixtureBelief
from robust_recourse.objective import _component_stats, eval_gaussian, eval_nonparametric, moments
from robust_recourse.worst_case import closed_form


def prob(a, b, c, gaussian=False):
    """closed_form's value at the one triple (a, b, c)."""
    return float(closed_form(a, b, c, gaussian)[0])


def wc(x, comp, gaussian=False):
    """The evaluator's worst-case probability of x under the one component comp."""
    belief = MixtureBelief((comp,), [1.0])
    return (eval_gaussian if gaussian else eval_nonparametric)(x, belief).value


class TestABC:
    """The evaluator's reduction of (x, component) to the triple (a, b, c)."""

    @staticmethod
    def assert_reduces_to(x, comp, t):
        for gaussian in (False, True):
            assert wc(x, comp, gaussian) == prob(*t, gaussian)

    def test_unit_case(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        self.assert_reduces_to([1.0, 0.0], comp, (-1.0, 1.0, 0.0))

    def test_with_radius(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.5)
        self.assert_reduces_to([1.0, 0.0], comp, (-1.0, 1.0, 0.5))

    def test_quadratic_forms(self):
        comp = ComponentMoments([1.0, 0.0], np.diag([4.0, 1.0]), 0.5)
        self.assert_reduces_to([2.0, 0.0], comp, (-2.0, 4.0, 1.0))

    def test_zero_action_gives_zeros(self):
        # (0, 0, 0) has a + c = 0: outside the closed forms
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 1.0)
        means, covs, radii = moments(MixtureBelief((comp,), [1.0]))
        for gaussian in (False, True):
            assert _component_stats(np.zeros((1, 2)), means, covs, radii[None], gaussian)[2].all()


class TestVaR:
    def test_nonparametric_at_half(self):
        assert var_nonparametric(-1, 1, 0, 0.5) == pytest.approx(0.0)

    def test_nonparametric_at_fifth(self):
        assert var_nonparametric(-1, 1, 0, 0.2) == pytest.approx(1.0)

    def test_nonparametric_with_radius(self):
        expected = -1.0 + math.sqrt(3.0) + 1.0
        assert var_nonparametric(-1, 1, 0.5, 0.25) == pytest.approx(expected)

    def test_nonparametric_beta_range(self):
        for beta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(BetaOutOfRange):
                var_nonparametric(-1, 1, 0, beta)

    def test_gaussian_at_half(self):
        assert var_gaussian(-1, 1, 0.5, 0.5) == pytest.approx(-0.5)

    def test_gaussian_z_equals_one(self):
        beta = float(1.0 - ndtr(1.0))
        assert var_gaussian(-1, 1, 0, beta) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_zero_radius_zero_beta_half(self):
        assert var_gaussian(-2.5, 1.7, 0.0, 0.5) == pytest.approx(-2.5)

    def test_gaussian_beta_range(self):
        with pytest.raises(BetaOutOfRange):
            var_gaussian(-1, 1, 0, 0.6)


# x = (1, 0) under unit covariance: (a, b, c) = (1, 1, 0) and (-1, 1, 1), a + c >= 0
OUTSIDE_MARGIN = [ComponentMoments([-1.0, 0.0], np.eye(2), 0.0),
                  ComponentMoments([1.0, 0.0], np.eye(2), 1.0)]


class TestClosedForms:
    def test_cantelli_case(self):
        assert prob(-1, 1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_saturates_at_one(self):
        # the nonparametric value reaches 1 at a + c = 0; beyond, the
        # evaluator reports the margin instead of a value
        assert prob(-1.0, 1.0, 1.0) == 1.0
        for comp in OUTSIDE_MARGIN:
            with pytest.raises(InfeasibleMargin):
                wc([1.0, 0.0], comp)

    def test_hand_value_with_radius(self):
        # a^2 + b^2 - c^2 = 4, value ((2 + 2)/5)^2
        assert prob(-2, 1, 1) == pytest.approx(0.64, abs=1e-12)

    def test_gaussian_unit(self):
        assert prob(-1, 1, 0, True) == pytest.approx(1.0 - ndtr(1.0), abs=1e-12)

    def test_gaussian_hand_value(self):
        assert prob(-2, 1, 1, True) == pytest.approx(1.0 - ndtr(0.75), abs=1e-12)

    def test_gaussian_sentinel(self):
        # at a + c >= 0 the gaussian value would be >= 1/2, where the closed
        # form does not apply: the evaluator reports the margin
        for comp in OUTSIDE_MARGIN:
            with pytest.raises(InfeasibleMargin):
                wc([1.0, 0.0], comp, gaussian=True)

    def test_zero_action_rejected(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        with pytest.raises(ZeroAction):
            wc([0.0, 0.0], comp)
        with pytest.raises(ZeroAction):
            wc([0.0, 0.0], comp, gaussian=True)

    def test_gaussian_sanity_identity_rho_zero(self, rng):
        # with no ambiguity the value is the plain gaussian tail probability
        for _ in range(25):
            d = rng.integers(2, 6)
            comp = ComponentMoments(rng.normal(size=d), random_pd_matrix(rng, d), 0.0)
            x = rng.normal(size=d)
            if not np.any(x) or comp.mean @ x <= 0:
                continue
            expected = 1.0 - ndtr(comp.mean @ x / math.sqrt(x @ comp.cov @ x))
            assert wc(x, comp, gaussian=True) == pytest.approx(expected, abs=1e-12)

    def test_theorem_style_gaussian_expression_matches(self, rng):
        # same closed form written in (theta^T x, cov, rho, ||x||) terms
        for _ in range(25):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1)
            comp = belief.components[0]
            tx = float(comp.mean @ x)
            q = float(x @ comp.cov @ x)
            nrm = float(np.linalg.norm(x))
            num = tx**2 - comp.radius**2 * nrm**2
            den = tx * math.sqrt(q) + comp.radius * nrm * math.sqrt(
                max(tx**2 + q - comp.radius**2 * nrm**2, 0.0)
            )
            expected = 1.0 - ndtr(num / den)
            assert eval_gaussian(x, belief).value == pytest.approx(expected, abs=1e-12)


class TestOracleEquivalence:
    def test_nonparametric_matches_bisection(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=1.0)
            assert eval_nonparametric(x, belief).value == pytest.approx(
                wc_prob_nonparametric_bisect(*triple(x, belief.components[0])), abs=1e-8
            )

    def test_gaussian_matches_bisection(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=1.0)
            assert eval_gaussian(x, belief).value == pytest.approx(
                wc_prob_gaussian_bisect(*triple(x, belief.components[0])), abs=1e-8
            )


class TestProperties:
    def test_scale_invariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1)
            comp = belief.components[0]
            p_np = wc(x, comp)
            p_g = wc(x, comp, gaussian=True)
            for t in (0.5, 2.0, 10.0):
                assert wc(t * x, comp) == pytest.approx(p_np, abs=1e-10)
                assert wc(t * x, comp, gaussian=True) == pytest.approx(p_g, abs=1e-10)

    def test_monotone_in_radius(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=0.0)
            comp = belief.components[0]
            radii = np.linspace(0.0, 0.9 * comp.mean @ x / np.linalg.norm(x), 8)
            vals_np = [wc(x, ComponentMoments(comp.mean, comp.cov, r)) for r in radii]
            vals_g = [wc(x, ComponentMoments(comp.mean, comp.cov, r), gaussian=True)
                      for r in radii]
            assert all(b >= a - 1e-12 for a, b in zip(vals_np, vals_np[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(vals_g, vals_g[1:]))

    def test_nonparametric_dominates_gaussian(self, rng):
        # the moment ball contains the gaussian ball, so its worst case is worse
        for _ in range(40):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=0.6)
            comp = belief.components[0]
            assert wc(x, comp) >= wc(x, comp, gaussian=True) - 1e-12

    def test_boundary_continuity(self):
        # as a + c approaches 0 from below, the nonparametric value tends to 1
        a, b = -1.0, 0.7
        values = [prob(a, b, -a - gap) for gap in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-4)
