import warnings
from dataclasses import replace

import numpy as np
import pytest

from robust_recourse import feasibility as fz
from robust_recourse import objective, optimizer
from robust_recourse.errors import (
    BadBudget,
    BudgetTooSmall,
    DualSolveFailed,
    EmptyFeasibleSet,
    InfeasibleMargin,
    MaxIterExceeded,
    Unattainable,
)
from robust_recourse.estimation import bootstrap_parameters, fit_mixture_moments, train_logistic
from robust_recourse.harness import (
    ProblemTemplate,
    SyntheticConfig,
    generate_recourses,
    generate_synthetic,
)
from robust_recourse.model import (
    ActionabilitySpec,
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
    STEP_MAX,
    SolverConfig,
    make_objective,
    pgd_minimize,
    solve,
    solve_block,
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
            callback=lambda t, x, v: trace.append(v),
        )
        assert res.converged
        assert res.stationarity <= 1e-4
        assert res.objective < trace[0]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_action_is_feasible_with_margin(self):
        prob, dmin = toy_problem()
        res = solve(prob, SolverConfig(restarts=1))
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
            callback=lambda t, x, v: seen.append(x.copy()),
        )
        assert seen
        for x in seen:
            assert fz.is_feasible(x, spec, 1e-7)

    def test_budget_too_small(self):
        prob, dmin = toy_problem()
        with pytest.raises(BudgetTooSmall):
            solve(replace(prob, delta=max(dmin - 0.1, 0.0)), SolverConfig(restarts=1))

    def test_budget_within_the_slack_below_delta_min_is_pinned(self):
        # far inputs have a delta_min of about 2e4, whose slack,
        # fz.budget_slack, is above 1e-9: a budget within it below delta_min
        # counts as delta_min, as fz.budget_pinned says, and is answered by
        # the cheapest point; a budget below the slack is too small
        prob, _ = toy_problem()
        prob = replace(prob, x0=FeatureVector.from_features([-1.2e4, -0.8e4]))
        dmin, point = cheapest_pair(prob)
        slack = fz.budget_slack(dmin)
        assert dmin > 1e4 and slack > 5e-9 and fz.budget_pinned(dmin - 5e-9, dmin)
        res = solve(replace(prob, delta=dmin - 5e-9), SolverConfig())
        assert res.iterations == 0 and res.converged
        assert res.action.values.tobytes() == point.tobytes()
        with pytest.raises(BudgetTooSmall):
            solve(replace(prob, delta=dmin - 2.0 * slack), SolverConfig())

    def test_delta_min_reported(self):
        prob, dmin = toy_problem()
        res = solve(prob, SolverConfig(restarts=1))
        assert res.delta_min == pytest.approx(dmin, abs=1e-9)

    def test_modes_all_run(self):
        for mode in Mode:
            prob, dmin = toy_problem(mode=mode, weight_budget=0.1)
            res = solve(prob, SolverConfig(restarts=1))
            assert 0.0 <= res.objective <= 1.0
            assert res.component_probs.shape == (1,)

    def test_deterministic(self):
        prob, dmin = toy_problem()
        cfg = SolverConfig(restarts=3, seed=11)
        a = solve(prob, cfg)
        b = solve(prob, cfg)
        assert np.array_equal(a.action.values, b.action.values)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.stationarity == b.stationarity

    def test_delta_add_zero_returns_min_cost_point(self):
        prob, dmin = toy_problem(delta_add=0.0)
        res = solve(prob, SolverConfig(restarts=1))
        assert res.converged
        assert res.iterations == 0
        cost = float(np.abs(res.action.values - prob.x0.values).sum())
        assert cost == pytest.approx(dmin, abs=1e-6)

    def test_pinned_budget_runs_the_distance_program_once(self, monkeypatch):
        prob, dmin = toy_problem(delta_add=0.0)
        want = solve(prob, SolverConfig(restarts=1))
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
        res = solve(prob, SolverConfig(restarts=1))
        assert np.all(res.component_probs < 0.5)

    def test_trial_points_stay_within_the_budget(self, monkeypatch, synthetic_beliefs):
        # every projected point lies within max(zeta*||g||, 2*delta) of the
        # iterate x it steps from, 2*delta the cost ball's diameter; those
        # sent to the kernel's projection program within max(zeta*||g||,
        # delta), since a farther one the first cycle does not close is
        # rejected; and some accepted trial lies farther than that
        beliefs, negatives = synthetic_beliefs
        cfg = SolverConfig()
        box = ActionabilitySpec(box=[[-np.inf, -2.5], [-np.inf, np.inf], [-np.inf, np.inf]])
        here, targets, fallback, accepted = {}, [], [], []
        row_projection, run_blocks = fz.RowProjection.__call__, fz._run_blocks

        def reach(y):  # (||y - x||, the bound at zeta, delta) at the iterate x
            x = here["x"]
            return (float(np.linalg.norm(y - x)),
                    cfg.zeta * float(np.linalg.norm(here["fn"](x).gradient)), here["delta"])

        def recording(self, Y, rows, far=None):
            here["Y"] = Y
            if "x" in here:
                targets.extend(map(reach, Y))
            return row_projection(self, Y, rows, far)

        def counted(spec, targets=None):
            if targets is not None:  # projection programs, not distance programs
                fallback.extend(map(reach, targets))
            return run_blocks(spec, targets)

        def step(t, x, value):
            if t:  # the round's last projected point is the accepted trial
                accepted.append(reach(here["Y"][-1]))
            here["x"] = x.copy()

        monkeypatch.setattr(fz.RowProjection, "__call__", recording)
        monkeypatch.setattr(fz, "_run_blocks", counted)
        for act in (ActionabilitySpec(), box):
            template = ProblemTemplate(belief=beliefs[1], actionability=act)
            for x0 in negatives[:4]:
                if act.box is not None and x0.values[0] >= -2.5:
                    continue
                spec = fz.FeasibleSetSpec.from_problem(template.problem_for(x0, 0.0))
                problem = template.problem_for(x0, fz.delta_min(spec) + template.delta_add)
                here.clear()
                here.update(fn=make_objective(problem), delta=problem.delta)
                assert solve(problem, cfg, callback=step).converged
        assert targets and fallback and accepted
        tol = 1.0 + 1e-12
        for move, at_zeta, delta in targets:
            assert move <= max(at_zeta, 2.0 * delta) * tol
        for move, at_zeta, delta in fallback:
            assert move <= max(at_zeta, delta) * tol
        assert any(move > max(at_zeta, delta) * tol for move, at_zeta, delta in accepted)

    def test_far_trial_that_leaves_the_first_cycle_is_rejected(self, monkeypatch):
        # the worst_component setting of the pipeline: a far trial (beyond
        # max(zeta, delta/||g||)) that the first cycle does not close is
        # rejected without the kernel's projection program, and the row
        # backtracks from the same iterate along the same direction
        original, _ = generate_synthetic(SyntheticConfig(n_per_class=200, n_shifts=0, seed=707))
        theta0 = train_logistic(original)
        belief = fit_mixture_moments(bootstrap_parameters(original, B=30, seed=707), K=3,
                                     seed=707).with_radius(0.1)
        X = original.augmented()
        negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0.0][:20]]
        template = ProblemTemplate(belief=belief, mode=Mode.WORST_COMPONENT)
        cfg = template.config
        events, fallback = [], []
        row_projection, run_blocks = fz.RowProjection.__call__, fz._run_blocks

        def counted(spec, targets=None):
            if targets is not None:  # projection programs, not distance programs
                fallback.extend(targets)
            return run_blocks(spec, targets)

        def recording(self, Y, rows, far=None):
            points, errors = row_projection(self, Y, rows, far)
            rejected = [j for j, exc in errors.items() if exc is None]
            assert all(far[j] for j in rejected)
            if not rows.any():  # a lone row, whose trial is the call's last position
                assert rejected in ([], [len(Y) - 1])
                events.append(("proj", Y[-1].copy(), rejected))
            return points, errors

        monkeypatch.setattr(fz.RowProjection, "__call__", recording)
        monkeypatch.setattr(fz, "_run_blocks", counted)
        block, errors = generate_recourses(template, negatives)
        assert not any(errors) and not fallback
        rejections = 0
        for x0, res in zip(negatives, block):
            events.clear()
            alone = solve(template.problem_for(x0, res.delta_min + template.delta_add), cfg,
                          callback=lambda t, x, v: events.append(("step", x.copy(), None)))
            assert_same_answer(res, alone)
            x = None
            for (kind, y, rejected), after in zip(events, events[1:]):
                if kind == "step":
                    x = y
                elif rejected:
                    assert after[0] == "proj" and x is not None
                    np.testing.assert_allclose(x - after[1], cfg.lambda_ls * (x - y), rtol=1e-12)
                    rejections += 1
        assert rejections and not fallback

    @pytest.mark.parametrize("cost", list(Cost))
    def test_huge_budget_raises_no_warning(self, cost):
        # budget/||g|| overflows to inf, which the step clamp absorbs
        prob, _ = toy_problem(cost=cost)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(replace(prob, delta=1e308), SolverConfig())
        assert res.converged

    def test_restarts_never_worse(self):
        prob, dmin = toy_problem(rho=0.2)
        single = solve(prob, SolverConfig(restarts=1, seed=3))
        multi = solve(prob, SolverConfig(restarts=4, seed=3))
        assert multi.objective <= single.objective + 1e-12


class TestSolverConfig:
    def test_default_is_single_start(self):
        assert SolverConfig().restarts == 1

    def test_zeta_up_to_the_step_clamp(self):
        assert SolverConfig(zeta=STEP_MAX).zeta == STEP_MAX

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", -1), ("max_backtracks", -1), ("restarts", 0), ("station_tol", 0.0),
         ("zeta", STEP_MAX * (1.0 + 1e-15)), ("finite_diff", True)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


def slow_start_problem():
    """A rho=0 halfspace at a narrow angle to the pinned bias coordinate:
    the first cycle does not close the projection of x0."""
    x0 = FeatureVector.from_features([-1.2, -0.8])
    belief = MixtureBelief((ComponentMoments([0.3, 0.2, -1.0], 1e-3 * np.eye(3), 0.0),), [1.0])
    prob = RecourseProblem(x0=x0, belief=belief, delta=0.0, margin=1e-3, cost=Cost.L1)
    dmin = fz.delta_min(fz.FeasibleSetSpec.from_problem(prob), 1e-10)
    return replace(prob, delta=dmin + 1.0), dmin


def cheapest_pair(prob):
    """The (delta_min, cheapest point) pair generate_recourses hands to solve_block for prob."""
    return fz.min_cost_point(fz.FeasibleSetSpec.from_problem(prob), 1e-10)[0]


def block_inputs(problems):
    """(problems, spec, cheapest): solve_block's inputs, each row as solve makes it."""
    spec = fz.FeasibleSetSpec.stack([fz.FeasibleSetSpec.from_problem(prob) for prob in problems])
    return problems, spec, fz.min_cost_point(spec, 1e-10)


class TestStartRule:
    """Every descent starts at the cheapest point, the one that attains
    delta_min."""

    def test_descent_fires_first_at_the_given_start(self):
        prob, dmin = toy_problem(rho=0.2)
        seen = []
        solve(prob, SolverConfig(restarts=1), callback=lambda t, x, v: seen.append(x.copy()))
        assert np.array_equal(seen[0], cheapest_pair(prob)[1])

    def test_zero_iterations_return_the_cheapest_point(self):
        """The cheapest point has the bias exactly at 1, so solve can return
        it as an action."""
        prob, _ = slow_start_problem()
        res = solve(prob, SolverConfig(max_iter=0, restarts=1))
        assert np.array_equal(res.action.values, cheapest_pair(prob)[1])
        assert res.action.values[-1] == 1.0
        assert fz.is_feasible(res.action.values, fz.FeasibleSetSpec.from_problem(prob))

    def test_kernel_start_beats_the_projected_start(self):
        # the distance program's point, not the projection of x0, starts
        # the descent; the answer is still no worse than the latter
        prob, dmin = slow_start_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        cfg = SolverConfig(restarts=1)
        res = solve(prob, cfg)
        assert res.converged
        assert fz.is_feasible(res.action.values, spec)
        projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
        assert res.objective <= make_objective(prob)(projected).value + 1e-10

    def test_pinned_budget_returns_the_start(self):
        prob, dmin = toy_problem(delta_add=0.0)
        pair = cheapest_pair(prob)
        res = solve(prob, SolverConfig(restarts=1))
        assert np.array_equal(res.action.values, pair[1]) and res.iterations == 0

    @pytest.mark.parametrize("rho", [0.0, 0.2])
    @pytest.mark.parametrize("cost", list(Cost))
    @pytest.mark.parametrize("K, mode", [(1, Mode.NONPARAMETRIC), (3, Mode.WEIGHT_ROBUST)])
    def test_lone_solve_equals_the_block_answer(self, synthetic_beliefs, K, mode, cost, rho):
        beliefs, negatives = synthetic_beliefs
        template = ProblemTemplate(
            belief=beliefs[K].with_radius(rho), delta_add=1.0, cost=cost, mode=mode,
            weight_budget=0.1 if mode is Mode.WEIGHT_ROBUST else 0.0,
            config=SolverConfig(restarts=1))
        instances = negatives[:4]
        results, errors = generate_recourses(template, instances)
        assert not any(errors)
        for x0, res in zip(instances, results):
            alone = solve(template.problem_for(x0, res.delta_min + template.delta_add),
                          template.config)
            assert alone.action.values.tobytes() == res.action.values.tobytes()
            assert (alone.objective, alone.iterations, alone.converged) == (
                res.objective, res.iterations, res.converged)


class TestPgdCore:
    def test_trial_outside_the_margin_is_skipped(self):
        # the unit trial step lands at 2a, where the objective is undefined;
        # the line search moves on to the next, shorter trial
        a = np.array([1.0, 0.0])
        raised = []

        def fn(x):
            if x[0] > 1.5:
                raised.append(x.copy())
                raise InfeasibleMargin("component 0")
            return ObjectiveEval(float((x - a) @ (x - a)), 2.0 * (x - a), np.zeros(1))

        x, value, _, iters, converged, _ = pgd_minimize(
            fn, lambda y: y, SolverConfig(station_tol=1e-8), np.zeros(2))
        assert np.array_equal(raised[0], 2.0 * a)
        assert converged and iters >= 1
        assert np.linalg.norm(x - a) <= 1e-8

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
        x = x + 0.02 * (spec.x0[0] - x)
        assert fz.is_feasible(x, spec, 0.0)

        def flat(y):
            return ObjectiveEval(1.0, np.zeros_like(y), np.zeros(1))

        proj = lambda y: fz.project_feasible(y, spec, 10000, 1e-8)
        got, value, _, iters, converged, station = pgd_minimize(
            flat, proj, SolverConfig(), x
        )
        assert station == 0.0
        assert iters == 0


class TestErrorPaths:
    def test_failed_trial_projection_retires_the_row(self, monkeypatch):
        # no candidate decreases the value, so the row backtracks; the
        # trials at zeta (the measuring projection) and 0.7*zeta close in
        # the first cycle, the one at 0.49*zeta leaves the box (x_0 <= 0.3)
        # and goes to the kernel, stubbed to fail
        spec = fz.FeasibleSetSpec(np.array([[0.0, 0.5]]), np.ones(1), Cost.L1, 0.1,
                                  np.array([[0.0, 1.0]]), np.zeros((1, 1)),
                                  np.full((1, 2), -np.inf), np.array([[0.3, np.inf]]))
        proj = fz.RowProjection(spec)
        calls = []

        def failed(spec, targets=None):
            calls.append(len(spec.x0))
            return [(fz.FAILED, None)] * len(spec.x0)

        def fn(X, rows):
            moved = ~(X == spec.x0).all(-1)
            return moved.astype(float), np.tile([-2.0, -2.6], (len(X), 1)), np.zeros(len(X)), {}

        monkeypatch.setattr(fz, "_run_blocks", failed)
        X, _, _, iterations, converged, _, errors = optimizer._descend(
            fn, proj, SolverConfig(), spec.x0, proj.delta)
        assert calls == [1, 1]  # without the ball, then with it
        assert list(errors) == [0] and isinstance(errors[0], MaxIterExceeded)
        assert np.array_equal(X[0], spec.x0[0]) and iterations[0] == 0 and not converged[0]

    def test_objective_error_retires_the_row_and_is_raised(self):
        # unlike InfeasibleMargin, any other error at a candidate ends the descent
        a = np.array([1.0, 0.0])
        raised = []

        def fn(x):
            if raised:
                raise AssertionError("a retired row was evaluated again")
            if x[0] > 1.5:
                raised.append(x.copy())
                raise DualSolveFailed("no usable optimum")
            return ObjectiveEval(float((x - a) @ (x - a)), 2.0 * (x - a), np.zeros(1))

        with pytest.raises(DualSolveFailed):
            pgd_minimize(fn, lambda y: y, SolverConfig(station_tol=1e-8), np.zeros(2))
        assert np.array_equal(raised[0], 2.0 * a)

    def test_spec_error_is_raised(self):
        # a non-decreasing feature whose upper bound lies below its input
        prob, _ = toy_problem()
        act = ActionabilitySpec(non_decreasing=[0],
                                box=[[-np.inf, -2.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        with pytest.raises(EmptyFeasibleSet):
            solve(replace(prob, actionability=act))

    def test_distance_error_is_raised(self):
        # an ambiguity radius above ||theta|| leaves the margin set empty
        prob, _ = toy_problem()
        belief = MixtureBelief((ComponentMoments([1.0, 0.9, 0.2], 0.05 * np.eye(3), 2.0),), [1.0])
        with pytest.raises(Unattainable):
            solve(replace(prob, belief=belief))

    def test_descent_error_is_raised(self, monkeypatch):
        # the weight dual answers at the start and fails at the first candidate
        prob, _ = toy_problem(mode=Mode.WEIGHT_ROBUST, weight_budget=0.1)
        weight_dual, calls = objective._weight_dual, []

        def failing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise DualSolveFailed("stubbed failure")
            return weight_dual(*args)

        monkeypatch.setattr(objective, "_weight_dual", failing)
        with pytest.raises(DualSolveFailed, match="stubbed failure"):
            solve(prob, SolverConfig(restarts=1))
        assert len(calls) == 2


class TestStationarity:
    def test_converged_solution_is_stationary(self):
        prob, dmin = toy_problem()
        cfg = SolverConfig(restarts=1)
        res = solve(prob, cfg)
        post_hoc = stationarity(res.action.values, prob, cfg)
        assert post_hoc <= cfg.station_tol * 1.5

    def test_far_point_not_stationary(self):
        prob, dmin = toy_problem()
        spec = fz.FeasibleSetSpec.from_problem(prob)
        x_start = fz.project_feasible(prob.x0.values, spec)
        assert stationarity(x_start, prob, SolverConfig()) > 1e-3


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


class TestTenFeatures:
    def test_budget_face_rows_converge_in_few_iterations(self):
        # ten features plus the bias: rows that slide along a face of the l1
        # cost ball, whose trials a cap of delta/||g|| held to half the
        # progress a 2*delta cap allows (86 iterations at the median)
        d = 10
        original, _ = generate_synthetic(SyntheticConfig(
            mu0=(-1.0,) * d, mu1=(1.0,) * d, sigma0=tuple(map(tuple, np.eye(d))),
            sigma1=tuple(map(tuple, np.eye(d))), n_per_class=300, n_shifts=0, seed=707))
        theta0 = train_logistic(original)
        belief = fit_mixture_moments(bootstrap_parameters(original, B=50, seed=707), K=1,
                                     seed=707).with_radius(0.1)
        X = original.augmented()
        negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0.0][:25]]
        results, errors = generate_recourses(ProblemTemplate(belief=belief), negatives)
        assert not any(errors) and all(r.converged for r in results)
        assert np.median([r.iterations for r in results]) <= 55


def assert_same_answer(a, b):
    """Bitwise: action, objective, iterations and converged flag."""
    assert a.action.values.tobytes() == b.action.values.tobytes()
    assert (a.objective, a.iterations, a.converged) == (b.objective, b.iterations, b.converged)


class TestBlock:
    """A row of a lock-step block gets the bytes of its lone solve."""

    def lone(self, template, results):
        return [solve(template.problem_for(x0, res.delta_min + template.delta_add),
                      template.config) for x0, res in zip(self.instances, results)]

    @pytest.fixture(autouse=True)
    def _data(self, synthetic_beliefs):
        self.beliefs, negatives = synthetic_beliefs
        self.instances = negatives[:4]

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    @pytest.mark.parametrize("cost", list(Cost))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_mode_matches_lone_solves(self, mode, cost, rho):
        template = ProblemTemplate(belief=self.beliefs[3].with_radius(rho), cost=cost, mode=mode,
                                   weight_budget=0.1, config=SolverConfig())
        results, errors = generate_recourses(template, self.instances)
        assert not any(errors)
        for block, alone in zip(results, self.lone(template, results)):
            assert_same_answer(block, alone)

    @pytest.mark.parametrize("cost", list(Cost))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_two_radii_in_one_block(self, mode, cost):
        # the rows differ in ambiguity radius as well as in x0
        problems = []
        for rho in (0.0, 0.1):
            template = ProblemTemplate(belief=self.beliefs[3].with_radius(rho), cost=cost,
                                       mode=mode, weight_budget=0.1)
            for x0 in self.instances:
                spec = fz.FeasibleSetSpec.from_problem(template.problem_for(x0, 0.0))
                problems.append(template.problem_for(x0, fz.delta_min(spec) + 1.0))
        for block, problem in zip(solve_block(*block_inputs(problems), SolverConfig()), problems):
            assert_same_answer(block, solve(problem, SolverConfig()))

    @pytest.mark.parametrize("mode", [Mode.NONPARAMETRIC, Mode.WEIGHT_ROBUST])
    def test_restarts_match_lone_solves(self, mode):
        template = ProblemTemplate(belief=self.beliefs[3], mode=mode, weight_budget=0.1,
                                   config=SolverConfig(restarts=3, seed=4))
        results, errors = generate_recourses(template, self.instances)
        assert not any(errors)
        single, _ = generate_recourses(replace(template, config=SolverConfig()), self.instances)
        for block, alone, one in zip(results, self.lone(template, results), single):
            assert_same_answer(block, alone)
            assert block.objective <= one.objective

    def test_pinned_and_free_rows_in_one_block(self):
        template = ProblemTemplate(belief=self.beliefs[1], config=SolverConfig())
        dmins = [fz.delta_min(fz.FeasibleSetSpec.from_problem(template.problem_for(x0, 0.0)))
                 for x0 in self.instances]
        problems = [template.problem_for(x0, dmin + (1.0 if i % 2 else 0.0))
                    for i, (x0, dmin) in enumerate(zip(self.instances, dmins))]
        answers = solve_block(*block_inputs(problems), template.config)
        assert [a.iterations == 0 for a in answers] == [True, False, True, False]
        for block, problem in zip(answers, problems):
            assert_same_answer(block, solve(problem, template.config))

    def test_invalid_result_is_that_rows_error(self, monkeypatch):
        # a component value of 1.0 fails RecourseResult's own check: row 1
        # ends in that BadBudget, the other rows keep their answers
        template = ProblemTemplate(belief=self.beliefs[1], config=SolverConfig())
        want, errors = generate_recourses(template, self.instances)
        assert not any(errors)
        problems = [template.problem_for(x0, res.delta_min + template.delta_add)
                    for x0, res in zip(self.instances, want)]
        rows_objective = optimizer._rows_objective

        def stubbed(problem, radii):
            fn = rows_objective(problem, radii)

            def one_at_row_1(X, rows):
                values, grads, comps, errs = fn(X, rows)
                comps[rows == 1] = 1.0
                return values, grads, comps, errs

            return one_at_row_1

        monkeypatch.setattr(optimizer, "_rows_objective", stubbed)
        answers = solve_block(*block_inputs(problems), template.config)
        assert isinstance(answers[1], BadBudget)
        for i in (0, 2, 3):
            assert_same_answer(answers[i], want[i])

    def test_rows_whose_first_cycle_does_not_close(self, monkeypatch):
        # feature 0 may not exceed -2.5: the box cuts the cost ball, so the
        # first cycle does not close some projections; the kernel projects
        # a round's unclosed rows together, each row as if alone
        instances = [x0 for x0 in self.instances if x0.values[0] < -2.5]
        assert len(instances) >= 2
        act = ActionabilitySpec(box=[[-np.inf, -2.5], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = ProblemTemplate(belief=self.beliefs[1], actionability=act,
                                   config=SolverConfig())
        projecting, calls = [], []  # the row count of each projection _cone_lp call
        run_blocks, cone_lp = fz._run_blocks, fz._cone_lp

        def blocks(spec, targets=None):
            projecting.append(targets is not None)
            try:
                return run_blocks(spec, targets)
            finally:
                projecting.pop()

        def counted(c, G, H, sizes):
            if projecting[-1]:
                calls.append(len(H))
            return cone_lp(c, G, H, sizes)

        monkeypatch.setattr(fz, "_run_blocks", blocks)
        monkeypatch.setattr(fz, "_cone_lp", counted)
        results, errors = generate_recourses(template, instances)
        assert not any(errors) and max(calls) > 1
        for x0, block in zip(instances, results):
            spec = fz.FeasibleSetSpec.from_problem(
                template.problem_for(x0, block.delta_min + template.delta_add))
            assert fz.is_feasible(block.action.values, spec)
            assert_same_answer(block, solve(template.problem_for(
                x0, block.delta_min + template.delta_add), template.config))
