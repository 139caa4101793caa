from dataclasses import replace

import numpy as np
import pytest

from robust_recourse import feasibility as fz
from robust_recourse.errors import BudgetTooSmall
from robust_recourse.estimation import bootstrap_parameters, fit_mixture_moments, train_logistic
from robust_recourse.harness import (
    ProblemTemplate,
    SyntheticConfig,
    generate_recourses,
    generate_synthetic,
)
from robust_recourse.model import (
    ComponentMoments,
    Cost,
    Divergence,
    FeatureVector,
    MixtureBelief,
    Mode,
    RecourseProblem,
)
from robust_recourse.objective import ObjectiveEval
from robust_recourse.optimizer import (
    SolverConfig,
    make_objective,
    pgd_minimize,
    solve,
    stationarity,
)


def toy_problem(rho=0.1, mode=Mode.NONPARAMETRIC, cost=Cost.L1, delta_add=1.0, **kw):
    x0 = FeatureVector.from_features([-1.2, -0.8])
    belief = MixtureBelief(
        (ComponentMoments([1.0, 0.9, 0.2], 0.05 * np.eye(3), rho),), [1.0]
    )
    prob = RecourseProblem(
        x0=x0, belief=belief, delta=0.0, margin=1e-3, cost=cost, mode=mode, **kw
    )
    spec = fz.FeasibleSetSpec.from_problem(prob)
    dmin = fz.delta_min(spec)
    return replace(prob, delta=dmin + delta_add), dmin


class TestSolve:
    def test_descends_and_converges(self):
        prob, dmin = toy_problem()
        trace = []
        res = solve(
            prob,
            SolverConfig(restarts=1),
            known_delta_min=dmin,
            callback=lambda t, x, v: trace.append(v),
        )
        assert res.converged
        assert res.stationarity <= 1e-4
        assert res.objective < trace[0]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_action_is_feasible_with_margin(self):
        prob, dmin = toy_problem()
        res = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
        spec = fz.FeasibleSetSpec.from_problem(prob)
        assert fz.is_feasible(res.action.values, spec, 1e-7)
        comp = prob.belief.components[0]
        x = res.action.values
        assert comp.mean @ x - comp.radius * np.linalg.norm(x) >= prob.margin - 1e-7

    def test_iterates_feasible(self):
        prob, dmin = toy_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        seen = []
        solve(
            prob,
            SolverConfig(restarts=1),
            known_delta_min=dmin,
            callback=lambda t, x, v: seen.append(x.copy()),
        )
        assert seen
        for x in seen:
            assert fz.is_feasible(x, spec, 1e-7)

    def test_budget_too_small(self):
        prob, dmin = toy_problem()
        with pytest.raises(BudgetTooSmall):
            solve(replace(prob, delta=max(dmin - 0.1, 0.0)), SolverConfig(restarts=1))

    def test_delta_min_reported(self):
        prob, dmin = toy_problem()
        res = solve(prob, SolverConfig(restarts=1))
        assert res.delta_min == pytest.approx(dmin, abs=1e-9)

    def test_modes_all_run(self):
        for mode in Mode:
            prob, dmin = toy_problem(mode=mode, weight_budget=0.1)
            res = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
            assert 0.0 <= res.objective <= 1.0
            assert res.component_probs.shape == (1,)

    def test_deterministic(self):
        prob, dmin = toy_problem()
        cfg = SolverConfig(restarts=3, seed=11)
        a = solve(prob, cfg, known_delta_min=dmin)
        b = solve(prob, cfg, known_delta_min=dmin)
        assert np.array_equal(a.action.values, b.action.values)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.stationarity == b.stationarity

    def test_delta_add_zero_returns_min_cost_point(self):
        prob, dmin = toy_problem(delta_add=0.0)
        res = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
        assert res.converged
        assert res.iterations == 0
        cost = float(np.abs(res.action.values - prob.x0.values).sum())
        assert cost == pytest.approx(dmin, abs=1e-6)

    def test_pinned_budget_runs_the_distance_program_once(self, monkeypatch):
        prob, dmin = toy_problem(delta_add=0.0)
        want = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
        calls = []
        original = fz.min_cost_point

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fz, "min_cost_point", counted)
        got = solve(prob, SolverConfig(restarts=1))
        assert len(calls) == 1
        assert np.array_equal(got.action.values, want.action.values)
        assert got.objective == want.objective and got.iterations == 0

    def test_gaussian_probs_below_half(self):
        prob, dmin = toy_problem(mode=Mode.GAUSSIAN)
        res = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
        assert np.all(res.component_probs < 0.5)

    def test_trial_points_stay_within_the_budget(self, monkeypatch):
        # every projected point lies within max(zeta*||g||, delta) of the
        # iterate it steps from, and some trial steps are longer than zeta
        prob, dmin = toy_problem(rho=0.2, delta_add=2.0)
        cfg = SolverConfig()
        fn = make_objective(prob)
        here = {}
        moves = []
        original = fz.project_feasible

        def recording(y, *args):
            if "x" in here:
                gnorm = float(np.linalg.norm(fn(here["x"]).gradient))
                moves.append((float(np.linalg.norm(y - here["x"])), gnorm))
            return original(y, *args)

        monkeypatch.setattr(fz, "project_feasible", recording)
        res = solve(
            prob, cfg, known_delta_min=dmin,
            callback=lambda t, x, v: here.update(x=x.copy()),
        )
        assert res.converged and moves
        for move, gnorm in moves:
            assert move <= max(cfg.zeta * gnorm, prob.delta) * (1.0 + 1e-12)
        assert any(move > 2.0 * cfg.zeta * gnorm for move, gnorm in moves)

    def test_restarts_never_worse(self):
        prob, dmin = toy_problem(rho=0.2)
        single = solve(prob, SolverConfig(restarts=1, seed=3), known_delta_min=dmin)
        multi = solve(prob, SolverConfig(restarts=4, seed=3), known_delta_min=dmin)
        assert multi.objective <= single.objective + 1e-12


class TestSolverConfig:
    def test_default_is_single_start(self):
        assert SolverConfig().restarts == 1

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", -1), ("max_backtracks", -1), ("restarts", 0), ("station_tol", 0.0)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


def slow_start_problem():
    """A rho=0 halfspace at a narrow angle to the pinned bias coordinate:
    Dykstra needs 184 cycles to project x0."""
    x0 = FeatureVector.from_features([-1.2, -0.8])
    belief = MixtureBelief((ComponentMoments([0.3, 0.2, -1.0], 1e-3 * np.eye(3), 0.0),), [1.0])
    prob = RecourseProblem(x0=x0, belief=belief, delta=0.0, margin=1e-3, cost=Cost.L1)
    dmin = fz.delta_min(fz.FeasibleSetSpec.from_problem(prob), 1e-10)
    return replace(prob, delta=dmin + 1.0), dmin


def kernel_start(prob):
    """The start generate_recourses hands to solve for prob."""
    return fz.project_starts([fz.FeasibleSetSpec.from_problem(prob)], 1e-10)[0]


class TestStartRule:
    """Every descent starts at the projection of x0: the kernel's, computed
    for a whole block, or project_feasible's when none is given."""

    def _first_point(self, prob, **kw):
        seen = []
        solve(prob, SolverConfig(restarts=1), callback=lambda t, x, v: seen.append(x.copy()),
              **kw)
        return seen[0]

    def test_block_starts_match_lone_runs_and_the_projection(self):
        # curved (rho > 0) and flat boundaries, both costs, two blocks
        problems = [toy_problem(rho=rho, cost=cost, delta_add=add)[0]
                    for rho in (0.0, 0.1, 0.3) for cost in Cost for add in (0.2, 1.0)]
        problems.append(slow_start_problem()[0])
        specs = [fz.FeasibleSetSpec.from_problem(p) for p in problems]
        block = fz.project_starts(specs, 1e-10)
        cfg = SolverConfig()
        for spec, got in zip(specs, block):
            assert np.array_equal(got, fz.project_starts([spec], 1e-10)[0])
            assert fz.is_feasible(got, spec, 1e-9)
            projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
            assert np.linalg.norm(got - projected) <= 1e-4

    def test_descent_fires_first_at_the_given_start(self):
        prob, dmin = toy_problem(rho=0.2)
        start = kernel_start(prob)
        assert np.array_equal(self._first_point(prob, known_delta_min=dmin, start=start), start)

    def test_converged_start_is_the_projection(self):
        prob, dmin = toy_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        cfg = SolverConfig(restarts=1)
        projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
        assert np.array_equal(self._first_point(prob, known_delta_min=dmin), projected)

    def test_kernel_start_beats_the_projected_start(self):
        prob, dmin = slow_start_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        cfg = SolverConfig(restarts=1)
        res = solve(prob, cfg, known_delta_min=dmin, start=kernel_start(prob))
        assert res.converged
        assert fz.is_feasible(res.action.values, spec)
        projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
        assert res.objective <= make_objective(prob)(projected).value + 1e-10

    @pytest.mark.parametrize("make", [slow_start_problem, toy_problem])
    def test_anchor_computed_when_not_given(self, make):
        # without a start, solve projects x0 itself
        prob, dmin = make()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        cfg = SolverConfig(restarts=1)
        projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
        a = solve(prob, cfg, known_delta_min=dmin)
        b = solve(prob, cfg, known_delta_min=dmin, start=projected)
        assert np.array_equal(a.action.values, b.action.values)
        assert (a.objective, a.iterations, a.converged) == (b.objective, b.iterations, b.converged)

    def test_pinned_budget_returns_the_start(self):
        prob, dmin = toy_problem(delta_add=0.0)
        cheapest = fz.delta_min(fz.FeasibleSetSpec.from_problem(prob), 1e-10, with_point=True)[1]
        res = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin, start=cheapest)
        assert np.array_equal(res.action.values, cheapest) and res.iterations == 0


class TestPgdCore:
    def test_quadratic_reaches_interior_minimizer(self):
        prob, dmin = toy_problem(delta_add=5.0)
        spec = fz.FeasibleSetSpec.from_problem(prob)
        xbar = fz.project_feasible(np.array([1.0, 1.0, 1.0]), spec)
        xbar = xbar + np.array([0.05, 0.05, 0.0])  # interior nudge
        assert fz.is_feasible(xbar, spec, 1e-9)

        def quad(x):
            return ObjectiveEval(float(np.sum((x - xbar) ** 2)), 2.0 * (x - xbar), np.zeros(1))

        proj = lambda y: fz.project_feasible(y, spec, 10000, 1e-8)
        x, value, _, iters, converged, station = pgd_minimize(
            quad, proj, SolverConfig(station_tol=1e-8, max_iter=500), proj(spec.x0)
        )
        assert converged
        assert np.linalg.norm(x - xbar) <= 1e-6

    def test_ill_conditioned_quadratic_in_few_iterations(self):
        # curvature 2 and 0.02 on the free coordinates: a fixed unit trial
        # step contracts the flat direction by about 1% per iteration and
        # needs hundreds of them; the spectral step adapts to both
        prob, dmin = toy_problem(delta_add=5.0)
        spec = fz.FeasibleSetSpec.from_problem(prob)
        xbar = fz.project_feasible(np.array([1.0, 1.0, 1.0]), spec)
        xbar = xbar + np.array([0.05, 0.05, 0.0])  # interior nudge
        assert fz.is_feasible(xbar, spec, 1e-9)
        h = np.array([1.0, 0.01, 1.0])

        def quad(x):
            r = x - xbar
            return ObjectiveEval(float(r @ (h * r)), 2.0 * h * r, np.zeros(1))

        proj = lambda y: fz.project_feasible(y, spec, 10000, 1e-8)
        x, value, _, iters, converged, station = pgd_minimize(
            quad, proj, SolverConfig(station_tol=1e-8, max_iter=50), proj(spec.x0)
        )
        assert converged
        assert np.linalg.norm(x - xbar) <= 1e-6

    def test_zero_gradient_stationarity(self):
        prob, dmin = toy_problem(delta_add=2.0)
        spec = fz.FeasibleSetSpec.from_problem(prob)
        # strictly interior point: every projection is the identity on it
        x = fz.project_feasible(np.array([0.8, 0.8, 1.0]), spec)
        x = x + 0.02 * (spec.x0 - x)
        assert fz.is_feasible(x, spec, 0.0)

        def flat(y):
            return ObjectiveEval(1.0, np.zeros_like(y), np.zeros(1))

        proj = lambda y: fz.project_feasible(y, spec, 10000, 1e-8)
        got, value, _, iters, converged, station = pgd_minimize(
            flat, proj, SolverConfig(), x
        )
        assert station == 0.0
        assert iters == 0


class TestStationarity:
    def test_converged_solution_is_stationary(self):
        prob, dmin = toy_problem()
        cfg = SolverConfig(restarts=1)
        res = solve(prob, cfg, known_delta_min=dmin)
        post_hoc = stationarity(res.action.values, prob, cfg)
        assert post_hoc <= cfg.station_tol * 1.5

    def test_far_point_not_stationary(self):
        prob, dmin = toy_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        x_start = fz.project_feasible(prob.x0.values, spec)
        assert stationarity(x_start, prob, SolverConfig()) > 1e-3

    def test_finite_diff_mode_agrees(self):
        prob, dmin = toy_problem()
        res_a = solve(prob, SolverConfig(restarts=1), known_delta_min=dmin)
        res_f = solve(
            prob, SolverConfig(restarts=1, finite_diff=True), known_delta_min=dmin
        )
        assert res_f.objective == pytest.approx(res_a.objective, abs=1e-6)


@pytest.fixture(scope="module")
def synthetic_beliefs():
    """K=1 and K=3 bootstrap beliefs on seeded synthetic data, with 20
    rejected points of the training data."""
    original, _ = generate_synthetic(SyntheticConfig(n_per_class=300, n_shifts=0, seed=707))
    theta0 = train_logistic(original)
    sample = bootstrap_parameters(original, B=40, seed=707)
    X = original.augmented()
    negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0.0][:20]]
    beliefs = {K: fit_mixture_moments(sample, K=K, seed=707).with_radius(0.1) for K in (1, 3)}
    return beliefs, negatives


class TestConvergesAtDefaults:
    @pytest.mark.parametrize(
        "K, mode, cost, divergence",
        [
            (1, Mode.NONPARAMETRIC, Cost.L1, Divergence.KL),
            (1, Mode.NONPARAMETRIC, Cost.L2, Divergence.KL),
            (3, Mode.NONPARAMETRIC, Cost.L1, Divergence.KL),
            (3, Mode.GAUSSIAN, Cost.L1, Divergence.KL),
            (3, Mode.WEIGHT_ROBUST, Cost.L1, Divergence.KL),
            (3, Mode.WEIGHT_ROBUST, Cost.L1, Divergence.CHI2),
        ],
    )
    def test_reaches_stationarity_within_200_iterations(
        self, synthetic_beliefs, K, mode, cost, divergence
    ):
        beliefs, negatives = synthetic_beliefs
        template = ProblemTemplate(
            belief=beliefs[K],
            delta_add=1.0,
            cost=cost,
            mode=mode,
            weight_budget=0.1 if mode is Mode.WEIGHT_ROBUST else 0.0,
            divergence=divergence,
            config=SolverConfig(restarts=1, max_iter=200),
        )
        results, errors = generate_recourses(template, negatives)
        assert not any(errors)
        assert sum(r.converged for r in results) >= 0.95 * len(results)
