import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import random_feasible_instance, random_pd_matrix
from oracles import (
    BetaOutOfRange,
    var_gaussian,
    var_nonparametric,
    wc_prob_gaussian_bisect,
    wc_prob_nonparametric_bisect,
)
from robust_recourse.errors import ZeroAction
from robust_recourse.model import ComponentMoments
from robust_recourse.worst_case import (
    ABCTriple,
    AT_OR_ABOVE_HALF,
    abc,
    prob_gaussian,
    prob_nonparametric,
    wc_prob_gaussian,
    wc_prob_nonparametric,
)


class TestABC:
    def test_unit_case(self):
        t = abc([1.0, 0.0], ComponentMoments([1.0, 0.0], np.eye(2), 0.0))
        assert (t.a, t.b, t.c) == (-1.0, 1.0, 0.0)

    def test_with_radius(self):
        t = abc([1.0, 0.0], ComponentMoments([1.0, 0.0], np.eye(2), 0.5))
        assert (t.a, t.b, t.c) == (-1.0, 1.0, 0.5)

    def test_quadratic_forms(self):
        t = abc([2.0, 0.0], ComponentMoments([1.0, 0.0], np.diag([4.0, 1.0]), 1.0))
        assert (t.a, t.b, t.c) == (-2.0, 4.0, 2.0)

    def test_zero_action_gives_zeros(self):
        t = abc([0.0, 0.0], ComponentMoments([1.0, 0.0], np.eye(2), 1.0))
        assert (t.a, t.b, t.c) == (0.0, 0.0, 0.0)


class TestVaR:
    def test_nonparametric_at_half(self):
        assert var_nonparametric(ABCTriple(-1, 1, 0), 0.5) == pytest.approx(0.0)

    def test_nonparametric_at_fifth(self):
        assert var_nonparametric(ABCTriple(-1, 1, 0), 0.2) == pytest.approx(1.0)

    def test_nonparametric_with_radius(self):
        expected = -1.0 + math.sqrt(3.0) + 1.0
        assert var_nonparametric(ABCTriple(-1, 1, 0.5), 0.25) == pytest.approx(expected)

    def test_nonparametric_beta_range(self):
        for beta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(BetaOutOfRange):
                var_nonparametric(ABCTriple(-1, 1, 0), beta)

    def test_gaussian_at_half(self):
        assert var_gaussian(ABCTriple(-1, 1, 0.5), 0.5) == pytest.approx(-0.5)

    def test_gaussian_z_equals_one(self):
        beta = float(1.0 - ndtr(1.0))
        assert var_gaussian(ABCTriple(-1, 1, 0), beta) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_zero_radius_zero_beta_half(self):
        assert var_gaussian(ABCTriple(-2.5, 1.7, 0.0), 0.5) == pytest.approx(-2.5)

    def test_gaussian_beta_range(self):
        with pytest.raises(BetaOutOfRange):
            var_gaussian(ABCTriple(-1, 1, 0), 0.6)


class TestClosedForms:
    def test_cantelli_case(self):
        assert prob_nonparametric(ABCTriple(-1, 1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_saturates_at_one(self):
        assert prob_nonparametric(ABCTriple(1, 1, 0)) == 1.0
        assert prob_nonparametric(ABCTriple(-1, 1, 1)) == 1.0

    def test_hand_value_with_radius(self):
        # a^2 + b^2 - c^2 = 4, value ((2 + 2)/5)^2
        assert prob_nonparametric(ABCTriple(-2, 1, 1)) == pytest.approx(0.64, abs=1e-12)

    def test_gaussian_unit(self):
        assert prob_gaussian(ABCTriple(-1, 1, 0)) == pytest.approx(1.0 - ndtr(1.0), abs=1e-12)

    def test_gaussian_hand_value(self):
        assert prob_gaussian(ABCTriple(-2, 1, 1)) == pytest.approx(
            1.0 - ndtr(0.75), abs=1e-12
        )

    def test_gaussian_sentinel(self):
        assert prob_gaussian(ABCTriple(1, 1, 0)) is AT_OR_ABOVE_HALF
        assert prob_gaussian(ABCTriple(-1, 1, 1)) is AT_OR_ABOVE_HALF

    def test_zero_action_rejected(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        with pytest.raises(ZeroAction):
            wc_prob_nonparametric([0.0, 0.0], comp)
        with pytest.raises(ZeroAction):
            wc_prob_gaussian([0.0, 0.0], comp)

    def test_gaussian_sanity_identity_rho_zero(self, rng):
        # with no ambiguity the value is the plain gaussian tail probability
        for _ in range(25):
            d = rng.integers(2, 6)
            comp = ComponentMoments(rng.normal(size=d), random_pd_matrix(rng, d), 0.0)
            x = rng.normal(size=d)
            if not np.any(x) or comp.mean @ x <= 0:
                continue
            expected = 1.0 - ndtr(comp.mean @ x / math.sqrt(x @ comp.cov @ x))
            assert wc_prob_gaussian(x, comp) == pytest.approx(expected, abs=1e-12)

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
            assert wc_prob_gaussian(x, comp) == pytest.approx(expected, abs=1e-12)


class TestOracleEquivalence:
    def test_nonparametric_matches_bisection(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=1.0)
            comp = belief.components[0]
            t = abc(x, comp)
            assert prob_nonparametric(t) == pytest.approx(
                wc_prob_nonparametric_bisect(t.a, t.b, t.c), abs=1e-8
            )

    def test_gaussian_matches_bisection(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 8))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=1.0)
            comp = belief.components[0]
            t = abc(x, comp)
            assert prob_gaussian(t) == pytest.approx(
                wc_prob_gaussian_bisect(t.a, t.b, t.c), abs=1e-8
            )


class TestProperties:
    def test_scale_invariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1)
            comp = belief.components[0]
            p_np = wc_prob_nonparametric(x, comp)
            p_g = wc_prob_gaussian(x, comp)
            for t in (0.5, 2.0, 10.0):
                assert wc_prob_nonparametric(t * x, comp) == pytest.approx(p_np, abs=1e-10)
                assert wc_prob_gaussian(t * x, comp) == pytest.approx(p_g, abs=1e-10)

    def test_monotone_in_radius(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=0.0)
            comp = belief.components[0]
            radii = np.linspace(0.0, 0.9 * comp.mean @ x / np.linalg.norm(x), 8)
            vals_np = [
                wc_prob_nonparametric(x, ComponentMoments(comp.mean, comp.cov, r))
                for r in radii
            ]
            vals_g = [
                wc_prob_gaussian(x, ComponentMoments(comp.mean, comp.cov, r))
                for r in radii
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals_np, vals_np[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(vals_g, vals_g[1:]))

    def test_nonparametric_dominates_gaussian(self, rng):
        # the moment ball contains the gaussian ball, so its worst case is worse
        for _ in range(40):
            d = int(rng.integers(2, 6))
            belief, x = random_feasible_instance(rng, d, 1, rho_hi=0.6)
            comp = belief.components[0]
            assert wc_prob_nonparametric(x, comp) >= wc_prob_gaussian(x, comp) - 1e-12

    def test_boundary_continuity(self):
        # as a + c approaches 0 from below, the nonparametric value tends to 1
        a, b = -1.0, 0.7
        values = [prob_nonparametric(ABCTriple(a, b, -a - gap)) for gap in
                  (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-4)
