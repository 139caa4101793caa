import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feasible_instance
from oracles import fd_gradient, weight_robust_grid
from robust_recourse.errors import (
    DualSolveFailed,
    InfeasibleMargin,
    ObjectiveOverflow,
    ZeroAction,
)
from robust_recourse import objective
from robust_recourse.model import ComponentMoments, Divergence, MixtureBelief, Mode
from robust_recourse.objective import (
    _component_stats,
    _weight_dual,
    eval_gaussian,
    eval_nonparametric,
    eval_weight_robust,
    eval_worst_component,
    evaluate,
    moments,
)


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
        for evaluator in (eval_nonparametric, eval_gaussian):
            expected = sum(
                w * evaluator(x, MixtureBelief((c,), [1.0])).value
                for w, c in zip(belief.weights, belief.components)
            )
            assert evaluator(x, belief).value == pytest.approx(expected, abs=1e-14)

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

    @pytest.mark.parametrize("mode", [Mode.NONPARAMETRIC, Mode.GAUSSIAN])
    def test_overflowing_scalars_are_a_typed_error(self, mode):
        # x^T S x and |x|^2 overflow at the second row; the others keep
        # their bits and their own errors, with no warning on the way
        means, covs, radii = moments(single_component_belief([1.0, 0.0], np.eye(2), 0.1))
        X = np.array([[1.0, 0.5], [1e200, 1e200], [0.0, 0.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, grads, _, errors = evaluate(X, means, covs, np.tile(radii, (4, 1)),
                                                np.ones(1), mode)
            alone = evaluate(X[:1], means, covs, radii[None], np.ones(1), mode)
        assert [type(errors.get(i)) for i in range(4)] == [
            type(None), ObjectiveOverflow, ZeroAction, InfeasibleMargin]
        assert values[0] == alone[0][0] and grads[0].tobytes() == alone[1][0].tobytes()


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

    def test_bracket_extends_past_initial_edge(self):
        # a tiny KL budget puts the root at lam ~ 82.9, above e^4: the Newton
        # search on beta = 1/lam keeps a bracket that starts as (0, inf), so
        # no fixed edge may cap lam from above
        f = np.array([0.2, 0.35, 0.5])
        p = np.array([0.5, 0.3, 0.2])
        eps = 1e-6
        value, lam, eta, w = _weight_dual(f, p, eps, Divergence.KL)
        assert lam > math.exp(4.0)
        assert abs(float(w @ f) - value) <= 1e-9
        kl = float(np.sum(w * np.log(w / p)))
        assert abs(kl / eps - 1.0) <= 1e-3

    @pytest.mark.parametrize("divergence", [Divergence.KL, Divergence.CHI2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_value_is_rejected(self, divergence, bad):
        # evaluate turns only DualSolveFailed into a row error: any other
        # exception would end the whole block
        f, p = np.array([bad, 0.5, 0.2]), np.array([0.2, 0.5, 0.3])
        with pytest.raises(DualSolveFailed, match="not all finite"):
            _weight_dual(f, p, 0.1, divergence)

    SOLVERS = [(Divergence.KL, "_kl_weights"), (Divergence.CHI2, "_chi2_weights")]

    @pytest.mark.parametrize("divergence, solver", SOLVERS)
    def test_weights_of_no_finite_value_are_rejected(self, monkeypatch, divergence, solver):
        # the weights' normalization turns a NaN weight into a NaN value
        monkeypatch.setattr(objective, solver, lambda h, p, eps: (0.0, 0.0, [math.nan] * len(h)))
        f, p = np.array([0.2, 0.5, 0.3]), np.array([0.2, 0.5, 0.3])
        with pytest.raises(DualSolveFailed, match="no usable optimum"):
            _weight_dual(f, p, 0.1, divergence)

    @pytest.mark.parametrize("divergence, solver", SOLVERS)
    def test_weights_below_the_nominal_value_are_rejected(self, monkeypatch, divergence, solver):
        # all mass on the least component value: 0.2 against the nominal 0.38
        monkeypatch.setattr(objective, solver, lambda h, p, eps: (0.0, 0.0, [1.0, 0.0, 0.0]))
        f, p = np.array([0.2, 0.5, 0.3]), np.array([0.2, 0.5, 0.3])
        with pytest.raises(DualSolveFailed, match="fell below the nominal mixture value"):
            _weight_dual(f, p, 0.1, divergence)

    @pytest.mark.parametrize("divergence", [Divergence.KL, Divergence.CHI2])
    def test_zero_weight_component_is_left_out(self, divergence, rng):
        belief, x = random_feasible_instance(rng, 3, 3)
        X = np.stack([x, 1.5 * x])
        # the zero-weight component is the worst one at both rows, so any
        # mass it received would raise the value
        order = np.argsort(eval_worst_component(x, belief).component_values, kind="stable")
        belief = MixtureBelief(tuple(belief.components[k] for k in order), [0.5, 0.5, 0.0])
        means, covs, radii = moments(belief)
        args = (means, covs, radii[None], belief.weights, Mode.WEIGHT_ROBUST, 0.2, divergence)
        values, grads, v, errors = evaluate(X, *args)
        g = _component_stats(X, means, covs, radii[None], False)[1]
        assert not errors
        for i in range(2):
            value, _, _, w = _weight_dual(v[i, :2], belief.weights[:2], 0.2, divergence)
            assert values[i] == min(value, 1.0) < v[i, 2]
            # the gradient is sum_k w_k grad f_k: nothing of the third
            assert np.all(g[i, 2] != 0.0)
            assert grads[i].tobytes() == (w[0] * g[i, 0] + w[1] * g[i, 1]).tobytes()
            alone = evaluate(X[i:i + 1], *args)
            assert alone[0].tobytes() == values[i:i + 1].tobytes()
            assert alone[1].tobytes() == grads[i:i + 1].tobytes()

    def test_negative_budget_is_rejected(self, rng):
        belief, x = random_feasible_instance(rng, 3, 2)
        with pytest.raises(DualSolveFailed, match="weight budget must be >= 0"):
            eval_weight_robust(x, belief, -0.1, Divergence.KL)

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


def divergence_of(w, p, divergence):
    if divergence is Divergence.KL:
        nz = w > 0.0
        return float(np.sum(w[nz] * np.log(w[nz] / p[nz])))
    return float(np.sum((w - p) ** 2 / p))


def dual_bound(f, p, eps, lam, eta, divergence):
    """eta + eps*lam + lam * sum_k p_k phi*((f_k - eta)/lam): an upper bound
    on the worst-case value for every lam > 0 and eta (weak duality), and
    max f in the limit lam -> 0 at eta = max f."""
    if lam == 0.0:
        return float(f.max())
    s = (f - eta) / lam
    if divergence is Divergence.KL:
        conjugate = np.expm1(s)
    else:
        conjugate = np.where(s >= -2.0, s + 0.25 * s * s, -1.0)
    return eta + eps * lam + lam * float(p @ conjugate)


@st.composite
def dual_inputs(draw):
    """K in 1..8, f in [0, 1], p ~ Dirichlet(1, ..., 1) as normalized
    Exp(1) draws, eps log-uniform in [1e-6, 30]."""
    K = draw(st.integers(1, 8))
    f = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K)))
    u = np.array(draw(st.lists(st.floats(1e-12, 1.0, exclude_max=True),
                               min_size=K, max_size=K)))
    g = -np.log(u)
    eps = 10.0 ** draw(st.floats(-6.0, math.log10(30.0)))
    return f, g / g.sum(), eps


class TestWeightDualCertificate:
    @pytest.mark.parametrize("divergence", [Divergence.KL, Divergence.CHI2])
    @given(inputs=dual_inputs())
    @settings(max_examples=300, deadline=None)
    def test_kkt_certificate(self, divergence, inputs):
        f, p, eps = inputs
        value, lam, eta, w = _weight_dual(f, p, eps, divergence)
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        assert abs(value - float(w @ f)) <= 1e-12
        D = divergence_of(w, p, divergence)
        assert D <= eps * (1.0 + 1e-9)
        if lam > 0.0:
            assert abs(D / eps - 1.0) <= 1e-9
        # the multipliers certify optimality: zero duality gap
        assert dual_bound(f, p, eps, lam, eta, divergence) - value <= 1e-9

    @pytest.mark.parametrize("divergence, eps, expected", [
        (Divergence.CHI2, 2.0, 0.49994782196186954),
        (Divergence.KL, 1.0, 0.4999557093914851),
    ], ids=["chi2", "kl"])
    def test_near_tie_with_small_lambda(self, divergence, eps, expected):
        # the top two components nearly tie and the budget is generous, so
        # lam* ~ 2e-4 < e^-8; expected is an SLSQP primal solve
        f = np.array([0.5, 0.499, 0.1])
        p = np.array([0.3, 0.5, 0.2])
        value, lam, eta, w = _weight_dual(f, p, eps, divergence)
        assert 0.0 < lam < math.exp(-8.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert abs(divergence_of(w, p, divergence) / eps - 1.0) <= 1e-9
        assert dual_bound(f, p, eps, lam, eta, divergence) - value <= 1e-12

    @pytest.mark.parametrize("eps", [1e-6, 0.1, 54.6, 8.9e6])
    def test_all_tied_with_mass_off_by_rounding(self, eps):
        # sum(p) rounds to 1 - 1ulp in the second order; every component
        # ties, so the value is exactly the common f and the weights sum to
        # 1 up to the rounding of their normalization
        f = np.array([0.3, 0.3, 0.3])
        for p in (np.array([0.1, 0.2, 0.7]), np.array([0.7, 0.2, 0.1])):
            value, lam, eta, w = _weight_dual(f, p, eps, Divergence.CHI2)
            assert value == 0.3
            assert lam == 0.0
            assert abs(w.sum() - 1.0) <= 2.0 * np.finfo(float).eps

    def test_root_far_beyond_a_flat_newton_step(self):
        # the top component carries 5e-17 of the nominal mass and nearly
        # ties with the next, so KL(w||p) = eps needs beta ~ 1.6e17; a Newton
        # step from a flat slope overshoots to ~1e44, and halving that
        # bracket arithmetically took the whole iteration budget
        f = np.array([0.9999999999999998, 0.0, 0.0, 1.0])
        p = np.array([6.6666666666666674e-01, 1.6666666666666669e-01, 1.6666666666666669e-01,
                      5.3390441730248631e-17])
        value, lam, eta, w = _weight_dual(f, p, 10.0, Divergence.KL)
        assert abs(divergence_of(w, p, Divergence.KL) / 10.0 - 1.0) <= 1e-9
        assert dual_bound(f, p, 10.0, lam, eta, Divergence.KL) - value <= 1e-9
