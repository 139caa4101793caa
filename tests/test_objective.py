import math

import numpy as np
import pytest

from conftest import random_feasible_instance
from oracles import fd_gradient, weight_robust_grid
from robust_recourse.errors import InfeasibleMargin, ZeroAction
from robust_recourse.model import ComponentMoments, Divergence, MixtureBelief
from robust_recourse.objective import (
    _chi2_eta,
    _weight_dual,
    eval_gaussian,
    eval_nonparametric,
    eval_weight_robust,
    eval_worst_component,
    phi_conjugate,
)
from robust_recourse.worst_case import wc_prob_gaussian, wc_prob_nonparametric


def single_component_belief(mean, cov, radius):
    return MixtureBelief((ComponentMoments(mean, cov, radius),), [1.0])


class TestMixtureObjectives:
    def test_single_component_cantelli(self):
        belief = single_component_belief([1.0, 0.0], np.eye(2), 0.0)
        ev = eval_nonparametric([1.0, 0.0], belief)
        assert ev.value == pytest.approx(0.5, abs=1e-12)

    def test_two_identical_components_collapse(self):
        comp = ComponentMoments([1.0, 0.3], np.eye(2), 0.1)
        one = MixtureBelief((comp,), [1.0])
        two = MixtureBelief((comp, comp), [0.5, 0.5])
        x = np.array([2.0, 0.4])
        assert eval_nonparametric(x, two).value == pytest.approx(
            eval_nonparametric(x, one).value, abs=1e-14
        )

    def test_gaussian_single_component(self):
        belief = single_component_belief([1.0, 0.0], np.eye(2), 0.0)
        ev = eval_gaussian([1.0, 0.0], belief)
        assert ev.value == pytest.approx(0.15865525393145707, abs=1e-9)

    def test_values_are_weighted_component_probs(self, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        ev = eval_nonparametric(x, belief)
        expected = sum(
            w * wc_prob_nonparametric(x, c)
            for w, c in zip(belief.weights, belief.components)
        )
        assert ev.value == pytest.approx(expected, abs=1e-14)
        evg = eval_gaussian(x, belief)
        expectedg = sum(
            w * wc_prob_gaussian(x, c)
            for w, c in zip(belief.weights, belief.components)
        )
        assert evg.value == pytest.approx(expectedg, abs=1e-14)

    def test_zero_action(self):
        belief = single_component_belief([1.0, 0.0], np.eye(2), 0.0)
        with pytest.raises(ZeroAction):
            eval_nonparametric([0.0, 0.0], belief)

    def test_infeasible_margin_lists_components(self):
        good = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        bad = ComponentMoments([-1.0, 0.0], np.eye(2), 0.0)
        belief = MixtureBelief((good, bad), [0.5, 0.5])
        with pytest.raises(InfeasibleMargin) as err:
            eval_nonparametric([1.0, 0.0], belief)
        assert err.value.components == (1,)


class TestGradients:
    MODES = ["nonparametric", "gaussian", "weight_robust_kl", "weight_robust_chi2",
             "worst_component", "worst_component_gaussian"]

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_finite_differences(self, mode, rng):
        checked = 0
        while checked < 20:
            d = int(rng.integers(2, 6))
            K = int(rng.integers(1, 4))
            belief, x = random_feasible_instance(rng, d, K)

            def evaluator(y):
                if mode == "nonparametric":
                    return eval_nonparametric(y, belief)
                if mode == "gaussian":
                    return eval_gaussian(y, belief)
                if mode == "weight_robust_kl":
                    return eval_weight_robust(y, belief, 0.15, Divergence.KL)
                if mode == "weight_robust_chi2":
                    return eval_weight_robust(y, belief, 0.15, Divergence.CHI2)
                if mode == "worst_component":
                    return eval_worst_component(y, belief)
                return eval_worst_component(y, belief, gaussian=True)

            if mode.startswith("worst_component") and K > 1:
                ev = evaluator(x)
                ordered = np.sort(ev.component_values)
                if ordered[-1] - ordered[-2] < 1e-3:
                    continue  # near-tie: subgradient point, skip
            ev = evaluator(x)
            fd = fd_gradient(lambda y: evaluator(y).value, x)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            rel = float(np.max(np.abs(ev.gradient - fd))) / scale
            assert rel <= 1e-5, f"{mode}: rel error {rel}"
            checked += 1


class TestPhiConjugate:
    def test_kl_values(self):
        assert phi_conjugate(Divergence.KL, 0.0) == pytest.approx(0.0)
        assert phi_conjugate(Divergence.KL, 1.0) == pytest.approx(math.e - 1.0)

    def test_chi2_values(self):
        assert phi_conjugate(Divergence.CHI2, 2.0) == pytest.approx(3.0)
        assert phi_conjugate(Divergence.CHI2, -3.0) == -1.0
        assert phi_conjugate(Divergence.CHI2, -2.0) == pytest.approx(-1.0)

    def test_conjugate_inequality(self, rng):
        # phi*(s) >= t*s - phi(t) for all t >= 0 (KL case)
        for _ in range(50):
            s = rng.uniform(-3, 3)
            t = rng.uniform(0, 5)
            phi_t = t * math.log(t) - t + 1.0 if t > 0 else 1.0
            assert phi_conjugate(Divergence.KL, s) >= t * s - phi_t - 1e-12


class TestWeightRobust:
    def test_zero_budget_is_nominal_exactly(self, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        assert eval_weight_robust(x, belief, 0.0).value == pytest.approx(
            eval_nonparametric(x, belief).value, abs=0
        )

    def test_huge_budget_is_worst_component(self, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        wr = eval_weight_robust(x, belief, 1e3, Divergence.KL)
        wc = eval_worst_component(x, belief)
        assert wr.value == pytest.approx(wc.value, abs=1e-4)

    @pytest.mark.parametrize("divergence", [Divergence.KL, Divergence.CHI2])
    def test_matches_simplex_grid(self, divergence, rng):
        for _ in range(25):
            K = int(rng.integers(2, 4))
            f = rng.uniform(0.0, 1.0, size=K)
            p_hat = rng.dirichlet(np.ones(K))
            eps = float(rng.uniform(1e-3, 1.0))
            value, lam, eta, w = _weight_dual(f, p_hat, eps, divergence)
            grid = weight_robust_grid(f, p_hat, eps, divergence.value)
            assert value == pytest.approx(grid, abs=1e-4)

    def test_known_two_point_case(self):
        # f=(0.2, 0.6), uniform weights, KL budget 0.1
        value, _, _, _ = _weight_dual(
            np.array([0.2, 0.6]), np.array([0.5, 0.5]), 0.1, Divergence.KL
        )
        grid = weight_robust_grid([0.2, 0.6], [0.5, 0.5], 0.1, "kl")
        assert value == pytest.approx(grid, abs=1e-4)

    def test_value_between_nominal_and_max(self, rng):
        for _ in range(20):
            belief, x = random_feasible_instance(rng, 3, 2)
            for divergence in Divergence:
                wr = eval_weight_robust(x, belief, 0.2, divergence)
                nominal = eval_nonparametric(x, belief).value
                worst = eval_worst_component(x, belief).value
                assert wr.value >= nominal - 1e-10
                assert wr.value <= worst + 1e-8

    def test_worst_weights_are_probability_vector(self, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        ev = eval_weight_robust(x, belief, 0.3, Divergence.CHI2)
        assert ev.inner_dual is not None
        lam, eta = ev.inner_dual
        assert lam >= 0.0

    def test_bracket_perturbation_agrees(self, rng):
        # convexity of the inner problem: perturbed outer brackets land on
        # the same value
        import robust_recourse.objective as obj

        belief, x = random_feasible_instance(rng, 3, 3)
        base = eval_weight_robust(x, belief, 0.25, Divergence.KL).value
        original = (obj._LOG_LAMBDA_LO, obj._LOG_LAMBDA_HI)
        try:
            for shift in (-1.5, -0.7, 0.4, 0.9, 2.0):
                obj._LOG_LAMBDA_LO = original[0] + shift
                obj._LOG_LAMBDA_HI = original[1] + abs(shift)
                val = eval_weight_robust(x, belief, 0.25, Divergence.KL).value
                assert val == pytest.approx(base, abs=1e-8)
        finally:
            obj._LOG_LAMBDA_LO, obj._LOG_LAMBDA_HI = original

    def test_bracket_extends_past_initial_edge(self):
        # a tiny KL budget puts the dual minimizer at lam ~ 82.9, beyond the
        # initial bracket edge e^4, so the search must extend to the right
        f = np.array([0.2, 0.35, 0.5])
        p = np.array([0.5, 0.3, 0.2])
        eps = 1e-6
        value, lam, eta, w = _weight_dual(f, p, eps, Divergence.KL)
        assert lam > math.exp(4.0)
        assert abs(float(w @ f) - value) <= 1e-9
        kl = float(np.sum(w * np.log(w / p)))
        assert abs(kl / eps - 1.0) <= 1e-3

    def test_gaussian_flavor_uses_gaussian_components(self, rng):
        belief, x = random_feasible_instance(rng, 3, 2)
        ev = eval_weight_robust(x, belief, 0.0, gaussian=True)
        assert ev.value == pytest.approx(eval_gaussian(x, belief).value, abs=0)


class TestWorstComponent:
    def test_singleton_equals_mixture(self, rng):
        belief, x = random_feasible_instance(rng, 3, 1)
        assert eval_worst_component(x, belief).value == pytest.approx(
            eval_nonparametric(x, belief).value, abs=0
        )
        assert eval_worst_component(x, belief, gaussian=True).value == pytest.approx(
            eval_gaussian(x, belief).value, abs=0
        )

    def test_max_of_component_values(self, rng):
        belief, x = random_feasible_instance(rng, 4, 3)
        ev = eval_worst_component(x, belief)
        assert ev.value == ev.component_values.max()
        assert ev.value >= eval_nonparametric(x, belief).value - 1e-14

    def test_weight_invariance(self, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        other = MixtureBelief(belief.components, rng.dirichlet(np.ones(3)))
        assert eval_worst_component(x, belief).value == eval_worst_component(x, other).value

    def test_argmax_scale_invariant(self, rng):
        for _ in range(10):
            belief, x = random_feasible_instance(rng, 3, 3)
            k0 = int(np.argmax(eval_worst_component(x, belief).component_values))
            for t in (0.5, 2.0, 10.0):
                kt = int(np.argmax(eval_worst_component(t * x, belief).component_values))
                assert kt == k0


class TestMonotoneInRadius:
    def test_all_modes_nondecreasing(self, rng):
        belief, x = random_feasible_instance(rng, 3, 2, rho_hi=0.0)
        slack = min(
            c.mean @ x / np.linalg.norm(x) for c in belief.components
        )
        radii = np.linspace(0.0, 0.8 * slack, 6)
        evaluators = [
            lambda b: eval_nonparametric(x, b).value,
            lambda b: eval_gaussian(x, b).value,
            lambda b: eval_weight_robust(x, b, 0.1).value,
            lambda b: eval_worst_component(x, b).value,
        ]
        for evaluate in evaluators:
            vals = [evaluate(belief.with_radius(r)) for r in radii]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestChi2Eta:
    @pytest.mark.parametrize("lam", [54.6, 8.9e6])
    def test_rounding_below_lowest_segment_is_clamped(self, lam):
        # sum(p) rounds to 1 - 1ulp, so 2*lam*(1 - P) pushes the lowest
        # segment's root below f.min(); the exact root is f.min() itself
        f = np.array([0.3, 0.3, 0.3])
        p = np.array([0.1, 0.2, 0.7])
        eta = _chi2_eta(lam, f, p)
        assert eta == 0.3
        resid = 1.0 - float(p @ np.maximum(1.0 + (f - eta) / (2.0 * lam), 0.0))
        assert resid == 0.0
