import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    actionability_bounds_loop,
    cost_ball_numpy,
    grid_delta_min,
    grid_project,
    l1_ball_numpy,
    projection_close,
)
from robust_recourse import feasibility
from robust_recourse.errors import (
    DegenerateDirection,
    EmptyFeasibleSet,
    MaxIterExceeded,
    RecourseError,
    Unattainable,
)
from robust_recourse.feasibility import (
    FeasibleSetSpec,
    RowProjection,
    _project_l1_ball,
    cost_of,
    delta_min,
    is_feasible,
    project_feasible,
)
from robust_recourse.model import (
    ActionabilitySpec,
    ComponentMoments,
    Cost,
    FeatureVector,
    MixtureBelief,
    RecourseProblem,
)


def raw_spec(
    x0,
    thetas,
    radii,
    margin=0.01,
    delta=None,
    cost=Cost.L2,
    lower=None,
    upper=None,
):
    """The one-row spec of these arrays."""
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    return FeasibleSetSpec(
        x0=x0[None],
        delta=None if delta is None else np.array([delta], dtype=float),
        cost=cost,
        margin=margin,
        thetas=np.atleast_2d(np.asarray(thetas, dtype=float)),
        radii=np.atleast_1d(np.asarray(radii, dtype=float))[None],
        lower=(np.full(d, -np.inf) if lower is None else np.asarray(lower, float))[None],
        upper=(np.full(d, np.inf) if upper is None else np.asarray(upper, float))[None],
    )


def with_delta(spec, delta):
    """The one-row spec with the cost budget delta, None for no ball."""
    return spec.take([0], None if delta is None else [delta])


def project_cone(xp, theta, rho, margin):
    """The projection onto the one margin set {y : rho*||y|| - theta.y <=
    -margin}: project_feasible of a spec with no cost ball and no bounds."""
    xp = np.asarray(xp, dtype=float)
    return project_feasible(xp, raw_spec(np.zeros(xp.size), [theta], [rho], margin=margin))


def project_cost_ball(xp, x0, delta, cost):
    """The projection onto the cost ball alone: project_feasible of a spec
    whose margin set holds every point, with no bounds."""
    x0 = np.asarray(x0, dtype=float)
    return project_feasible(np.asarray(xp, dtype=float), raw_spec(
        x0, [np.eye(x0.size)[0]], [0.0], margin=-np.inf, delta=delta, cost=cost))


def random_2d_spec(rng, with_delta, cost):
    K = int(rng.integers(1, 3))
    base = rng.normal(size=2)
    base /= np.linalg.norm(base)
    thetas = np.array(
        [(base + 0.3 * rng.normal(size=2)) * rng.uniform(0.5, 2.0) for _ in range(K)]
    )
    radii = rng.uniform(0.0, 0.4, size=K)
    if np.any(radii >= np.linalg.norm(thetas, axis=1) - 0.05):
        return None
    x0 = -base * rng.uniform(0.5, 2.0) + 0.3 * rng.normal(size=2)
    delta = None
    if with_delta:
        probe = raw_spec(x0, thetas, radii, cost=cost)
        delta = delta_min(probe) + float(rng.uniform(0.3, 1.5))
    return raw_spec(x0, thetas, radii, delta=delta, cost=cost)


class TestSingleSetProjections:
    def test_halfspace_example(self):
        assert np.allclose(project_cone([-1.0, 0.0], [1.0, 0.0], 0.0, 0.1), [0.1, 0.0])

    def test_feasible_point_unchanged(self):
        xp = np.array([2.0, 0.3])
        assert np.array_equal(project_cone(xp, [1.0, 0.0], 0.0, 0.1), xp)
        assert np.array_equal(project_cone(xp, [1.0, 0.0], 0.3, 0.1), xp)

    def test_degenerate_direction(self):
        spec = raw_spec([1.0, 0.0], [[0.0, 0.0]], [0.1], margin=0.1)
        assert isinstance(spec.defect(0), DegenerateDirection)

    def test_radius_swallows_direction(self):
        spec = raw_spec([1.0, 0.0], [[1.0, 0.0]], [1.5], margin=0.1)
        assert isinstance(spec.defect(0), EmptyFeasibleSet)

    def test_cone_matches_grid(self):
        spec = raw_spec([0.0, 0.0], [[1.0, 0.0]], [0.5], margin=0.1)
        got = project_cone([0.0, 1.0], [1.0, 0.0], 0.5, 0.1)
        want = grid_project([0.0, 1.0], spec, span=3.0)
        assert projection_close(got, want, [0.0, 1.0])

    def test_cone_result_is_active(self, rng):
        for _ in range(30):
            theta = rng.normal(size=3)
            rho = float(rng.uniform(0.0, 0.5 * np.linalg.norm(theta)))
            xp = rng.normal(size=3) * 2.0
            y = project_cone(xp, theta, rho, 0.05)
            violation = rho * np.linalg.norm(y) - theta @ y + 0.05
            assert violation <= 1e-9

    def test_l2_ball(self):
        assert np.allclose(project_cost_ball([2.0, 0.0], [0.0, 0.0], 1.0, Cost.L2), [1.0, 0.0])

    def test_l1_ball_soft_threshold(self):
        got = project_cost_ball([1.0, 1.0], [0.0, 0.0], 1.0, Cost.L1)
        assert np.allclose(got, [0.5, 0.5], atol=1e-12)

    def test_ball_interior_unchanged(self):
        xp = np.array([0.2, -0.1])
        for cost in Cost:
            assert np.array_equal(project_cost_ball(xp, [0.0, 0.0], 1.0, cost), xp)

    def test_l1_ball_matches_l2_grid_oracle(self, rng):
        for _ in range(10):
            xp = rng.normal(size=2) * 2
            x0 = rng.normal(size=2)
            delta = float(rng.uniform(0.2, 1.5))
            got = project_cost_ball(xp, x0, delta, Cost.L1)
            spec = raw_spec(x0, [[1.0, 1.0]], [0.0], margin=-1e9, delta=delta, cost=Cost.L1)
            want = grid_project(xp, spec, span=4.0)
            assert np.linalg.norm(got - want) <= 1e-4


class TestIsFeasible:
    def test_input_point_zero_cost(self):
        spec = raw_spec([1.0, 0.5], [[1.0, 0.0]], [0.0], margin=0.01, delta=1.0)
        assert is_feasible(spec.x0, spec)

    def test_margin_violation(self):
        spec = raw_spec([1.0, 0.5], [[1.0, 0.0]], [0.0], margin=0.01, delta=1.0)
        x = np.array([0.01 - 3e-8, 0.5])
        assert not is_feasible(x, spec, tol=1e-8)

    def test_cost_boundary_inclusive(self):
        spec = raw_spec([0.0, 0.0], [[1.0, 0.0]], [0.0], margin=-10.0, delta=1.0, cost=Cost.L2)
        assert is_feasible([1.0, 0.0], spec, tol=1e-9)

    @pytest.mark.parametrize("cost, direction", [(Cost.L1, [0.5, 0.5]), (Cost.L2, [0.6, 0.8])])
    def test_cost_ball_edge_at_delta_plus_tol(self, cost, direction):
        # direction has unit cost; the margin and the box hold all along it
        spec = raw_spec([1.0, 0.5], [[1.0, 0.0]], [0.0], margin=0.01, delta=1.0, cost=cost)
        for gap, inside in ((-1e-10, True), (1e-10, False)):
            x = spec.x0 + (1.0 + 1e-8 + gap) * np.array(direction)
            assert is_feasible(x, with_delta(spec, None), tol=1e-8)
            assert is_feasible(x, spec, tol=1e-8) is inside


class TestProjectFeasible:
    def test_single_halfspace_matches_cone(self):
        spec = raw_spec([-1.0, 0.0], [[1.0, 0.0]], [0.0], margin=0.1, delta=50.0)
        got = project_feasible(spec.x0, spec)
        want = project_cone(spec.x0, [1.0, 0.0], 0.0, 0.1)
        assert np.linalg.norm(got - want) <= 1e-7

    def test_idempotent(self, rng):
        spec = random_2d_spec(rng, with_delta=True, cost=Cost.L2)
        xp = rng.normal(size=2) * 2
        once = project_feasible(xp, spec)
        twice = project_feasible(once, spec)
        assert np.linalg.norm(once - twice) <= 1e-7

    def test_feasible_input_returned(self, rng):
        spec = random_2d_spec(rng, with_delta=True, cost=Cost.L1)
        inside = project_feasible(rng.normal(size=2), spec)
        again = project_feasible(inside, spec)
        assert np.linalg.norm(inside - again) <= 1e-7

    def test_output_feasible(self, rng):
        count = 0
        while count < 20:
            spec = random_2d_spec(rng, with_delta=True, cost=Cost.L1 if count % 2 else Cost.L2)
            if spec is None:
                continue
            xp = rng.normal(size=2) * 3
            got = project_feasible(xp, spec, max_iter=20000)
            assert is_feasible(got, spec, 1e-7)
            count += 1

    def test_matches_grid_oracle(self, rng):
        count = 0
        while count < 12:
            spec = random_2d_spec(rng, with_delta=True, cost=Cost.L2 if count % 2 else Cost.L1)
            if spec is None:
                continue
            xp = rng.normal(size=2) * 2.5
            got = project_feasible(xp, spec, max_iter=20000)
            want = grid_project(xp, spec)
            assert is_feasible(got, spec, 1e-7)
            assert projection_close(got, want, xp)
            count += 1

    def test_nonexpansive(self, rng):
        spec = random_2d_spec(rng, with_delta=True, cost=Cost.L2)
        for _ in range(10):
            u = rng.normal(size=2) * 2
            v = rng.normal(size=2) * 2
            pu = project_feasible(u, spec, max_iter=20000)
            pv = project_feasible(v, spec, max_iter=20000)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-6

    def test_empty_set_detected(self):
        spec = raw_spec([-1.0, 0.0], [[1.0, 0.0]], [0.0], margin=0.1, delta=0.5, cost=Cost.L2)
        with pytest.raises((EmptyFeasibleSet, MaxIterExceeded)):
            project_feasible(spec.x0, spec)

    def test_far_input_is_not_reported_empty(self):
        # a far-away input whose set is not empty
        spec = raw_spec(
            [-2.5849567668813442, -2.3157771751156933, 1.0],
            [[2.4096902892845744, 1.9304971812614447, -0.4364082396442593]],
            [0.1],
            margin=1e-3,
            delta=5.759957391612041,
            cost=Cost.L1,
            lower=[-np.inf, -np.inf, 1.0],
            upper=[np.inf, np.inf, 1.0],
        )
        xp = np.array([355.3356419915161, 464.5165471484372, -83.40228815698494])
        got = project_feasible(xp, spec, 20000, 1e-10)
        assert is_feasible(got, spec, 1e-9)
        # the grid oracle's projection
        assert np.allclose(got, [-1.836684, 2.695908, 1.0], atol=1e-5)

    @pytest.mark.parametrize(
        "scale, cost, want",
        [
            # the corner of the halfspace and the l1 ball's upper-right edge
            (1e5, Cost.L1, [-1e5 + 2e-3, 2e5 - 2e-3]),
            # the upper meeting point of the halfspace's line and the circle
            (1e7, Cost.L2, [-9999999.999, 2e7]),
        ],
        ids=["l1-1e5", "l2-1e7"],
    )
    def test_large_scale_set_is_answered(self, monkeypatch, scale, cost, want):
        # {[1, 0.5].x >= 1e-3} within the cost ball of radius 2*scale around
        # [-scale, 0] is not empty, and the ball's point misses it: the
        # conic kernel answers, to a relative tolerance, first without the
        # ball and then, since its point leaves the ball, with it
        spec = raw_spec([-scale, 0.0], [[1.0, 0.5]], [0.0], margin=1e-3, delta=2 * scale,
                        cost=cost)
        xp = np.array([-3 * scale, 2 * scale])
        kernel_rows = []
        inner = feasibility._cone_lp

        def counted(c, G, H, sizes):
            kernel_rows.append(len(H))
            return inner(c, G, H, sizes)

        monkeypatch.setattr(feasibility, "_cone_lp", counted)
        got = project_feasible(xp, spec, 3000, 1e-10)
        assert kernel_rows == [1, 1]
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert is_feasible(got, spec, 1e-10 * scale)

    def test_still_cycles_end_in_the_kernel(self):
        # at this scale no absolute tolerance is within rounding; the
        # kernel's is relative
        spec = raw_spec([-1e8, 0.0], [[1.0, 0.5]], [0.0], margin=1e-3, delta=2e8)
        got = project_feasible(np.array([-3e8, 2e8]), spec, 10**4, 1e-10)
        assert np.allclose(got, [-99999999.999, 2e8], rtol=1e-10, atol=0.0)

    def test_two_halfspace_closed_form(self, rng):
        # with zero radii the margin sets are halfspaces; the projection
        # must agree with the grid oracle
        for _ in range(5):
            t1 = np.array([1.0, 0.1 * rng.normal()])
            t2 = np.array([0.2 * rng.normal(), 1.0])
            spec = raw_spec(rng.normal(size=2) * 2, [t1, t2], [0.0, 0.0], margin=0.05)
            xp = rng.normal(size=2) * 2
            got = project_feasible(xp, spec, max_iter=20000)
            want = grid_project(xp, spec)
            assert is_feasible(got, spec, 1e-7)
            assert projection_close(got, want, xp)

    def test_slack_l1_ball_is_left_out(self, monkeypatch):
        # the benchmark's k1 start of block 1545, row 15, at seed 707: the
        # projection program with this slack l1 ball stalls (its lift
        # variables float) at a dual residual of 2.9e-9, above CONE_ACCEPT;
        # without the ball the kernel solves it, and its point lies inside
        spec = raw_spec([-3.355756527651077, -2.245306335524816, 1.0],
                        [[2.4085265546380406, 1.9315958223483645, -0.44075446774118743]],
                        [0.1], margin=1e-3, delta=6.47460063644365, cost=Cost.L1,
                        lower=[-np.inf, -np.inf, 1.0], upper=[np.inf, np.inf, 1.0])
        [(status, _)] = feasibility._run_blocks(spec, spec.x0)
        assert status == feasibility.FAILED
        deltas, inner = [], feasibility._run_blocks

        def recorded(spec, targets=None):
            deltas.append(spec.delta)
            return inner(spec, targets)

        monkeypatch.setattr(feasibility, "_run_blocks", recorded)
        got = project_feasible(spec.x0, spec)
        assert deltas == [None]
        assert is_feasible(got, spec, 1e-9)
        assert cost_of(got, spec.x0[0], spec.cost) < spec.delta[0] - 0.5

    def test_both_cones_and_the_l1_ball_bind(self):
        # alternating projections that stop once the iterate barely moves
        # end here at distance 8.7254; the projection lies at 8.6226
        spec = raw_spec([-1.2202, -0.4346], [[0.6513, 0.9346], [0.5252, 0.3676]],
                        [0.1985, 0.0415], margin=0.01, delta=2.7492, cost=Cost.L1)
        xp = np.array([-9.7514, 4.0367])
        got = project_feasible(xp, spec)
        assert is_feasible(got, spec)
        assert projection_close(got, grid_project(xp, spec), xp)


class TestActionabilityBounds:
    def problem(self, **kw):
        belief = MixtureBelief(
            (ComponentMoments([1.0, 0.4, 0.1], 0.05 * np.eye(3), 0.1),), [1.0]
        )
        defaults = dict(
            x0=FeatureVector.from_features([-1.0, 0.5]),
            belief=belief,
            delta=4.0,
            margin=1e-3,
            cost=Cost.L1,
        )
        defaults.update(kw)
        return RecourseProblem(**defaults)

    def test_bias_is_pinned(self):
        spec = FeasibleSetSpec.from_problem(self.problem())
        got = project_feasible(np.array([0.5, 0.5, 3.0]), spec)
        assert got[-1] == 1.0

    def test_immutable_feature_held(self):
        prob = self.problem(actionability=ActionabilitySpec(immutable={1}))
        spec = FeasibleSetSpec.from_problem(prob)
        got = project_feasible(np.array([2.0, 3.0, 1.0]), spec)
        assert got[1] == pytest.approx(0.5, abs=1e-12)
        assert is_feasible(got, spec, 1e-7)

    def test_non_decreasing_clamped(self):
        prob = self.problem(actionability=ActionabilitySpec(non_decreasing={1}))
        spec = FeasibleSetSpec.from_problem(prob)
        got = project_feasible(np.array([2.0, -3.0, 1.0]), spec)
        assert got[1] >= 0.5 - 1e-9

    def test_conflicting_box_raises(self):
        act = ActionabilitySpec(box=np.array([[0.0, 0.5], [0.0, 1.0], [1.0, 1.0]]))
        prob = self.problem(
            x0=FeatureVector.from_features([0.9, 0.5]), actionability=act
        )
        # x0[0]=0.9 > hi=0.5 combined with non-decreasing makes it empty
        prob2 = self.problem(
            x0=FeatureVector.from_features([0.9, 0.5]),
            actionability=ActionabilitySpec(
                non_decreasing={0}, box=np.array([[0.0, 0.5], [0.0, 1.0], [1.0, 1.0]])
            ),
        )
        with pytest.raises(EmptyFeasibleSet):
            FeasibleSetSpec.from_problem(prob2)


class TestPinnedBall:
    """The cost ball and the pinned coordinates are one set of the first
    cycle, projected onto in closed form."""

    X0 = np.array([-3.0, -2.5, 1.0])  # the last coordinate is the bias

    def spec(self, cost, lower=(-np.inf, -np.inf, 1.0), upper=(np.inf, np.inf, 1.0)):
        base = raw_spec(self.X0, [[2.4, 1.9, -0.4], [2.0, 2.2, -0.1]], [0.1, 0.2],
                        margin=1e-3, cost=cost, lower=lower, upper=upper)
        return with_delta(base, delta_min(base) + 1.0)

    # targets whose answer lies inside both margin sets: only the ball binds
    FREE_BALL = [(Cost.L1, [1.0, 3.0, 7.0]), (Cost.L2, [4.0, 5.0, -2.0]),
                 (Cost.L2, [1.0, 3.0, 7.0])]

    @pytest.mark.parametrize("cost, xp", FREE_BALL)
    def test_matches_the_closed_form(self, cost, xp):
        spec, xp = self.spec(cost), np.array(xp)
        want = self.X0.copy()
        want[:2] = cost_ball_numpy(xp[:2], self.X0[:2], spec.delta[0], cost)
        margins = spec.thetas @ want - spec.radii * np.linalg.norm(want) - spec.margin
        assert margins.min() > 0.1
        got = project_feasible(xp, spec, 20000, 1e-10)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @staticmethod
    def kernel_rows(monkeypatch):
        """The row count of each _cone_lp call made from here on."""
        rows, inner = [], feasibility._cone_lp

        def counted(c, G, H, sizes):
            rows.append(len(H))
            return inner(c, G, H, sizes)

        monkeypatch.setattr(feasibility, "_cone_lp", counted)
        return rows

    @pytest.mark.parametrize("cost, xp", FREE_BALL)
    def test_one_cycle(self, monkeypatch, cost, xp):
        spec = self.spec(cost)
        kernel = self.kernel_rows(monkeypatch)
        got = project_feasible(np.array(xp), spec, 20000, 1e-10)
        assert kernel == []  # the first cycle closes: the kernel is not reached
        assert is_feasible(got, spec, 1e-9)

    @pytest.mark.parametrize(
        "cost, xp, lower, upper",
        [(Cost.L1, [-1.0, 6.0, -5.0], (-np.inf, -np.inf, 1.0), (np.inf, np.inf, 1.0)),
         (Cost.L2, [3.0, -4.0, 2.0], (-np.inf, -np.inf, 1.0), (np.inf, np.inf, 1.0)),
         (Cost.L1, [3.0, -4.0, 2.0], (-3.0, -np.inf, 1.0), (-3.0, np.inf, 1.0))],
        ids=["l1", "l2", "l1-immutable"],
    )
    def test_many_cycles_keep_the_pins_exact(self, monkeypatch, cost, xp, lower, upper):
        """A margin set binds against the pins, so the first cycle does not
        close; the kernel's point has the pins exactly at x0."""
        spec = self.spec(cost, lower, upper)
        kernel = self.kernel_rows(monkeypatch)
        got = project_feasible(np.array(xp), spec, 20000, 1e-10)
        assert kernel
        pins = spec.lower[0] == spec.upper[0]
        assert np.array_equal(got[pins], self.X0[pins])
        assert is_feasible(got, spec, 1e-9)

    @pytest.mark.parametrize("cost", [Cost.L1, Cost.L2])
    @pytest.mark.parametrize(
        "lower, upper",
        [((-3.0, -np.inf, 1.0), (np.inf, np.inf, 1.0)),  # non-decreasing first feature
         ((-np.inf, -2.0, 1.0), (np.inf, -2.0, 1.0))],  # second feature boxed away from x0
        ids=["non-decreasing", "pin-off-x0"],
    )
    def test_other_bounds_keep_the_clip(self, cost, lower, upper):
        # the kernel's points are clipped to the bounds
        spec, xp = self.spec(cost, lower, upper), np.array([-5.0, 5.0, -2.0])
        [(status, want)] = feasibility._run_blocks(spec, xp[None])
        assert status == feasibility.SOLVED
        got = project_feasible(xp, spec, 20000, 1e-10)
        assert is_feasible(got, spec, 1e-9)
        assert np.abs(got - want).max() <= 1e-9


class TestDeltaMin:
    def test_halfspace_distance(self):
        spec = raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.0, 0.0]], [0.0], margin=0.1, cost=Cost.L2)
        assert delta_min(spec) == pytest.approx(1.1, abs=1e-6)

    def test_zero_when_input_feasible(self):
        spec = raw_spec([2.0, 0.0], [[1.0, 0.0]], [0.1], margin=0.01, cost=Cost.L1)
        assert delta_min(spec) == 0.0

    def test_matches_grid(self, rng):
        count = 0
        while count < 12:
            spec = random_2d_spec(rng, with_delta=False, cost=Cost.L1 if count % 2 else Cost.L2)
            if spec is None:
                continue
            got = delta_min(spec)
            want = grid_delta_min(spec)
            assert abs(got - want) <= 1e-3
            count += 1

    def test_unattainable(self):
        spec = raw_spec([1.0, 0.0], [[1.0, 0.0]], [2.0], margin=0.1)
        with pytest.raises(Unattainable):
            delta_min(spec)

    def test_zero_direction_raises_degenerate(self):
        spec = raw_spec([1.0, 0.0], [[0.0, 0.0]], [0.0], margin=0.1)
        with pytest.raises(DegenerateDirection):
            delta_min(spec)

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    @pytest.mark.parametrize("rho", [0.0, 0.1])
    def test_input_in_raw_units_is_reachable(self, scale, rho):
        # the l1 distance from (-s, -s) to {x1 + x2 >= margin} is 2s + margin
        belief = MixtureBelief((ComponentMoments([1.0, 1.0, 0.0], np.eye(3), rho),), [1.0])
        spec = FeasibleSetSpec.from_problem(RecourseProblem(
            x0=FeatureVector.from_features([-scale, -scale]), belief=belief, delta=0.0,
            margin=1e-3, cost=Cost.L1))
        dmin, point = feasibility.min_cost_point(spec)[0]
        assert is_feasible(point, with_delta(spec, None), 1e-9 * scale)
        assert dmin == cost_of(point, spec.x0[0], Cost.L1)
        if rho == 0.0:
            assert dmin == pytest.approx(2.0 * scale + 1e-3, rel=1e-9, abs=0.0)
        else:  # the cone lies inside the halfspace
            assert dmin > 2.0 * scale + 1e-3

    def test_consistency_with_projection(self, rng):
        count = 0
        while count < 8:
            spec = random_2d_spec(rng, with_delta=False, cost=Cost.L2)
            if spec is None:
                continue
            dm = delta_min(spec)
            if dm <= 1e-2:
                continue
            project_feasible(spec.x0, with_delta(spec, dm + 1e-4), max_iter=20000)
            with pytest.raises((EmptyFeasibleSet, MaxIterExceeded)):
                project_feasible(spec.x0, with_delta(spec, dm - 1e-2), max_iter=2000)
            count += 1


def fail_kernel(monkeypatch):
    """Every row of every _cone_lp call reports FAILED."""
    inner = feasibility._cone_lp

    def failed(c, G, H, sizes):
        status, V, Z = inner(c, G, H, sizes)
        return np.full_like(status, feasibility.FAILED), V, Z

    monkeypatch.setattr(feasibility, "_cone_lp", failed)


class TestConicKernel:
    """The conic kernel behind delta_min and the projection backstop."""

    def test_unconverged_distance_program_is_unattainable(self, monkeypatch):
        spec = raw_spec([-1.0, 0.0], [[1.0, 0.5]], [0.1])
        fail_kernel(monkeypatch)
        [got] = feasibility.min_cost_point(spec)
        assert isinstance(got, Unattainable) and "did not converge" in str(got)
        with pytest.raises(Unattainable, match="did not converge"):
            delta_min(spec)

    def test_unconverged_backstop_raises_max_iter(self, monkeypatch):
        # the first cycle does not close (test_large_scale_set_is_answered)
        # and the kernel does not solve the projection program
        spec = raw_spec([-1e5, 0.0], [[1.0, 0.5]], [0.0], margin=1e-3, delta=2e5, cost=Cost.L1)
        fail_kernel(monkeypatch)
        with pytest.raises(MaxIterExceeded, match="the projection program did not converge"):
            project_feasible(np.array([-3e5, 2e5]), spec, 30, 1e-10)

    def test_emptiness_comes_with_a_farkas_certificate(self):
        # the halfspace x >= 0.1 misses the l2 ball of radius 0.5 around -1
        spec = raw_spec([-1.0, 0.0], [[1.0, 0.0]], [0.0], margin=0.1, delta=0.5, cost=Cost.L2)
        c, G, H, sizes, _ = feasibility._conic_program(spec, spec.x0)
        status, _, Z = feasibility._cone_lp(c, G, H, sizes)
        assert status[0] == feasibility.INFEASIBLE
        z = Z[0]
        # z in K (every cone, 1-row ones included), h.z < 0 and G^T z ~ 0:
        # G v + s = h with s in K would give h.z = (G^T z).v + s.z >= -|G^T z||v|,
        # so every feasible v would have |v| >= |h|/accept here (the tighter
        # CONE_TOL can lie below what rounding lets G^T z reach)
        heads = np.cumsum(sizes) - sizes
        for head, size in zip(heads, sizes):
            assert z[head] >= np.linalg.norm(z[head + 1 : head + size])
        assert H[0] @ z < 0.0
        tol = feasibility.CONE_ACCEPT * np.linalg.norm(c) / np.linalg.norm(H[0])
        assert np.linalg.norm(G.T @ z) <= tol * abs(H[0] @ z)
        with pytest.raises(EmptyFeasibleSet, match="Farkas"):
            project_feasible(spec.x0, spec)

    def test_empty_margin_and_bounds_set_is_unattainable(self):
        # an immutable first coordinate keeps theta.x below the margin
        spec = raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.0, 0.0]], [0.1], margin=0.1, cost=Cost.L1,
                        lower=[-1.0, -np.inf, 1.0], upper=[-1.0, np.inf, 1.0])
        with pytest.raises(Unattainable, match="Farkas"):
            delta_min(spec)

    @pytest.mark.parametrize("cost", list(Cost))
    def test_block_rows_match_single_runs_bitwise(self, monkeypatch, rng, cost):
        thetas = np.array([[1.0, 0.4, 0.2], [0.8, 0.7, -0.1]])
        specs = []
        for margin in (1e-3, 0.5):
            rows = []
            for i in range(5):
                x0 = np.array([*(rng.normal(size=2) - 2.0), 1.0])
                upper = [np.inf, 0.5, 1.0]
                if i == 2:  # a different pinned set: its own group
                    upper[1] = x0[1]
                rows.append(raw_spec(x0, thetas, [0.1, 0.2], margin=margin, cost=cost,
                                     lower=[-np.inf, x0[1], 1.0], upper=upper))
            specs.append(FeasibleSetSpec.stack(rows))
        # a block whose l1 distance programs meet an exact zero pivot: the
        # normal equations split into single-row solves
        belief = MixtureBelief((ComponentMoments([1.0, 0.9, 0.2], 0.05 * np.eye(3), 0.1),), [1.0])
        spec, _ = FeasibleSetSpec.block([[-1.2, -0.8, 1.0], [-1.0, -1.0, 1.0], [-2.0, 0.5, 1.0]],
                                        belief, ActionabilitySpec().with_bias_pinned(3), Cost.L1,
                                        1e-3)
        specs.append(spec)
        split, inner = [], feasibility._solve

        def recorded(A, b):
            if recorded.depth:  # a call made inside another: a row of a split block
                split.append(len(A))
            recorded.depth += 1
            try:
                return inner(A, b)
            finally:
                recorded.depth -= 1

        recorded.depth = 0
        monkeypatch.setattr(feasibility, "_solve", recorded)
        blocks = [feasibility.min_cost_point(spec, 1e-10) for spec in specs]
        assert split and set(split) == {1}
        for spec, block in zip(specs, blocks):
            for n, got in enumerate(block):
                row = spec.take([n])
                alone = feasibility.min_cost_point(row, 1e-10)[0]
                assert got[0] == alone[0] and np.array_equal(got[1], alone[1])
                assert is_feasible(got[1], row, 1e-9)
                assert got[0] == cost_of(got[1], row.x0[0], spec.cost)


_INF = np.inf
_BIAS = dict(lower=[-_INF, -_INF, 1.0], upper=[_INF, _INF, 1.0])


def _counted_kernel(monkeypatch):
    """The row counts of every _cone_lp call from now on."""
    calls, inner = [], feasibility._cone_lp

    def counted(c, G, H, sizes):
        calls.append(len(H))
        return inner(c, G, H, sizes)

    monkeypatch.setattr(feasibility, "_cone_lp", counted)
    return calls


class TestOneCoordinateMove:
    """The l1 distance program in closed form, where a move of one
    coordinate is certified optimal, with the kernel as backstop."""

    # each reaches one refusal of the certificate
    REFUSED = {
        # |theta_0| = |theta_1|: both moves cost the same, |g_j| is no strict max
        "tie": raw_spec([-1.0, -1.0, 1.0], [[1.0, 1.0, 0.0]], [0.0], 1e-3, cost=Cost.L1, **_BIAS),
        # both halfspaces end at x_0 = 0.5 along the move of x_0
        "two-cones": raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.5, 0.0], [1.0, -0.5, 0.0]], [0.0, 0.0],
                              0.5, cost=Cost.L1, **_BIAS),
        # the upper bound on x_0 is where the move of x_0 meets the halfspace
        "bound": raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.5, 0.0]], [0.0], 0.5, cost=Cost.L1,
                          lower=[-_INF, -_INF, 1.0], upper=[0.5, _INF, 1.0]),
        "l2": raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.5, 0.0]], [0.1], 0.5, cost=Cost.L2, **_BIAS),
    }

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused_rows_get_the_kernel_answer(self, monkeypatch, case):
        spec = self.REFUSED[case]
        if spec.l1:
            assert feasibility._one_coordinate_moves(spec)[1].tolist() == [False]
        [(status, want)] = feasibility._run_blocks(spec)
        assert status == feasibility.SOLVED
        calls = _counted_kernel(monkeypatch)
        dmin, point = feasibility.min_cost_point(spec)[0]
        assert calls == [1]
        assert point.tobytes() == want.tobytes()
        assert dmin == cost_of(want, spec.x0[0], spec.cost)

    def test_cone_intervals_against_a_grid(self, rng):
        # every branch: halfspaces (b = 0 too), half-lines |b| > rho,
        # bounded and empty intervals |b| < rho, and |b| = rho left in doubt
        b = np.array([1.0, -1.0, 0.0, 0.0, 0.7, -0.7, 0.2, -0.2, 0.0, 0.5])
        rho = np.array([0.0, 0.0, 0.0, 0.0, 0.3, 0.3, 0.6, 0.6, 0.4, 0.5])
        c = rng.uniform(-2.0, 2.0, size=(200, 1))
        r2 = rng.uniform(0.0, 3.0, size=(200, 1))
        with np.errstate(all="ignore"):  # as its one caller runs it
            lo, hi = feasibility._cone_intervals(b, rho, c, r2)
        s = np.linspace(-30.0, 30.0, 6001)[:, None, None]
        inside = b * s - rho * np.sqrt(r2 + s * s) >= c
        doubt = np.abs(b) == rho
        assert np.isnan(lo[:, doubt & (rho > 0)]).all() and np.isnan(hi[:, doubt & (rho > 0)]).all()
        lo, hi = lo[:, ~doubt | (rho == 0)], hi[:, ~doubt | (rho == 0)]
        inside = inside[:, :, ~doubt | (rho == 0)]
        gap = 1e-9 * (1.0 + np.abs(s))  # grid points at an end may fall either way
        assert not (inside & ((s < lo - gap) | (s > hi + gap))).any()
        assert not (~inside & (s > lo + gap) & (s < hi - gap)).any()

    def test_halfspace_distance_in_closed_form(self, monkeypatch):
        # l1 distance to theta.x >= m: the violation over |theta|_inf, moving
        # the coordinate of largest |theta_j| (Mangasarian, 1999)
        spec = raw_spec([-1.0, 0.0, 1.0], [[1.0, 0.5, 0.0]], [0.0], 0.5, cost=Cost.L1, **_BIAS)
        calls = _counted_kernel(monkeypatch)
        dmin, point = feasibility.min_cost_point(spec)[0]
        assert calls == []
        assert dmin == 1.5 and point.tolist() == [0.5, 0.0, 1.0]

    def test_rounded_move_is_stepped_into_the_margin_set(self):
        # the root of this row rounds to a point just outside its halfspace
        spec = raw_spec([-0.22, -2.83, 1.0], [[0.167, 0.109, -1.227]], [0.0], 1e-3,
                        cost=Cost.L1, **_BIAS)
        (theta,), (x0,) = spec.thetas, spec.x0
        # the move of x_0, the largest |theta_j|, up to the halfspace's end
        rest = theta[1] * x0[1] + theta[2] * x0[2]
        lo, _ = feasibility._cone_intervals(theta[0], 0.0, spec.margin - rest, x0[1:] @ x0[1:])
        root = np.array([lo, *x0[1:]])
        assert not is_feasible(root, spec, 0.0)
        [x], [ok] = feasibility._one_coordinate_moves(spec)
        assert ok and is_feasible(x, spec, 0.0)
        assert np.count_nonzero(x != x0) == 1 and x[0] != root[0]

    def test_row_bytes_alone_and_in_a_mixed_call(self):
        theta = [[0.9, 0.35, -0.2]]
        row = raw_spec([-1.3, -0.4, 1.0], theta, [0.1], 1e-3, cost=Cost.L1, **_BIAS)
        [moved], [ok] = feasibility._one_coordinate_moves(row)
        assert ok
        # rows of other radii, pins and bounds, one of them a tie that the
        # kernel answers
        others = [
            raw_spec([-1.0, -2.0, 1.0], theta, [0.3], 1e-3, cost=Cost.L1, **_BIAS),
            raw_spec([-2.0, -1.0, 1.0], theta, [0.0], 1e-3, cost=Cost.L1,
                     lower=[-2.0, -np.inf, 1.0], upper=[-2.0, np.inf, 1.0]),
            raw_spec([-0.5, -3.0, 1.0], theta, [0.1], 1e-3, cost=Cost.L1,
                     lower=[-np.inf, -3.0, 1.0], upper=[np.inf, np.inf, 1.0]),
        ]
        alone = feasibility.min_cost_point(row)[0]
        mixed = FeasibleSetSpec.stack([others[0], row, *others[1:], row])
        block = feasibility.min_cost_point(mixed)
        for got in (block[1], block[-1]):
            assert got[0] == alone[0] and got[1].tobytes() == alone[1].tobytes()
        assert alone[1].tobytes() == moved.tobytes()


_THETA = st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0]) | st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def _distance_cases(draw):
    """An l1 spec with d up to 10, K up to 3, radii 0 or below |theta_k|,
    pinned, non-decreasing and boxed coordinates, the bias pinned."""
    d, K = draw(st.integers(2, 10)), draw(st.integers(1, 3))
    x0 = np.array([draw(_COORD) for _ in range(d - 1)] + [1.0])
    thetas = np.array([[draw(_THETA) for _ in range(d)] for _ in range(K)])
    radii = np.array([draw(st.sampled_from([0.0, 0.05, 0.3, 0.7])) for _ in range(K)])
    radii *= np.linalg.norm(thetas, axis=1)
    lower, upper = _draw_bounds(draw, x0)
    return raw_spec(x0, thetas, radii, draw(st.sampled_from([1e-3, 0.5])), cost=Cost.L1,
                    lower=lower, upper=upper)


def _draw_bounds(draw, x0):
    """(lower, upper): each coordinate but the pinned bias free, pinned,
    non-decreasing or boxed."""
    d = x0.size
    lower, upper = np.full(d, -np.inf), np.full(d, np.inf)
    for j in range(d - 1):
        kind = draw(st.sampled_from(["free", "pinned", "non-decreasing", "box"]))
        if kind == "pinned":
            lower[j] = upper[j] = x0[j]
        elif kind == "non-decreasing":
            lower[j] = x0[j]
        elif kind == "box":
            lower[j], upper[j] = sorted([draw(_BOUND), draw(_BOUND)])
            if lower[j] == upper[j] and not np.isfinite(lower[j]):
                lower[j], upper[j] = -np.inf, np.inf
    lower[-1] = upper[-1] = 1.0
    return lower, upper


@settings(max_examples=300, deadline=None)
@given(_distance_cases())
def test_one_coordinate_move_matches_the_kernel(spec):
    """A certified row lies in its set and has the kernel's distance to
    1e-12 relative; every other row gets the kernel's answer bit for bit."""
    if spec.defect(0) or is_feasible(spec.x0, spec, 1e-8) or np.any(spec.lower > spec.upper):
        return
    [moved], [certified] = feasibility._one_coordinate_moves(spec)
    [(status, x)] = feasibility._run_blocks(spec)
    got = feasibility.min_cost_point(spec)[0]
    if certified:
        assert is_feasible(moved, spec, 0.0)
        assert got[1].tobytes() == moved.tobytes()
        assert got[0] == cost_of(moved, spec.x0[0], Cost.L1)
        if status == feasibility.SOLVED:
            want = cost_of(x, spec.x0[0], Cost.L1)
            assert abs(got[0] - want) <= 1e-12 * want
    elif status == feasibility.SOLVED:
        assert got[0] == cost_of(x, spec.x0[0], Cost.L1) and got[1].tobytes() == x.tobytes()
    else:
        assert isinstance(got, Unattainable)


def _cost_one_row(diff, l1):
    return float(np.abs(diff).sum()) if l1 else math.sqrt(float(diff @ diff))


def _member_one_row(x, spec, tol):
    """The membership test of one row, as x @ x and thetas @ x compute its
    products: the reference for _members."""
    if spec.delta is not None and _cost_one_row(x - spec.x0[0], spec.l1) > spec.delta[0] + tol:
        return False
    if (spec.thetas @ x - spec.radii[0] * math.sqrt(float(x @ x)) - spec.margin < -tol).any():
        return False
    return not ((x < spec.lower[0] - tol).any() or (x > spec.upper[0] + tol).any())


_WIDTH = st.sampled_from([0.0, 0.5, np.inf])


def _near(draw, value):
    """value, or the next float up or down from it."""
    return np.nextafter(value, draw(st.sampled_from([-np.inf, value, np.inf])))


@st.composite
def _membership_cases(draw):
    """Rows of specs that share thetas, the cost and whether they have a
    ball, each with its own x0, radii, margin, bounds and budget, and a
    point per row that keeps its pins and non-decreasing coordinates and
    lies in its box.  Every constraint holds with room, but one: a margin
    set, a bound or the budget, set at the point's own value or one float
    away, so that rounding decides."""
    d, K, N = draw(st.integers(2, 10)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    thetas = np.array([[draw(_THETA) for _ in range(d)] for _ in range(K)])
    cost, ball = draw(st.sampled_from(list(Cost))), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs, X = [], []
    for _ in range(N):
        x0 = np.array([draw(_COORD) for _ in range(d)])
        x = x0 + draw(st.sampled_from([0.0, 1e-6, 1.0])) * rng.normal(size=d)
        lower, upper = np.full(d, -np.inf), np.full(d, np.inf)
        for j in range(d):
            kind = draw(st.sampled_from(["free", "free", "pinned", "non-decreasing", "box"]))
            if kind == "pinned":
                x[j] = lower[j] = upper[j] = x0[j]
            elif kind == "non-decreasing":
                x[j], lower[j] = max(x[j], x0[j]), x0[j]
            elif kind == "box":
                lower[j], upper[j] = x[j] - draw(_WIDTH), x[j] + draw(_WIDTH)
        radii = np.array([draw(st.sampled_from([0.0, 0.05, 0.3, 0.7])) for _ in range(K)])
        radii *= np.linalg.norm(thetas, axis=1)
        slack = thetas @ x - radii * math.sqrt(float(x @ x))
        spent = _cost_one_row(x - x0, cost is Cost.L1)
        margin, delta = slack.min() - 1.0, spent + 1.0 if ball else None
        ties = ["margin", "lower", "upper"] + ["budget"] * (3 if ball else 0)
        tie, j = draw(st.sampled_from(ties)), draw(st.integers(0, d - 1))
        if tie == "margin":
            margin = _near(draw, slack[draw(st.integers(0, K - 1))])
        elif tie == "lower":
            lower[j] = _near(draw, x[j])
        elif tie == "upper":
            upper[j] = _near(draw, x[j])
        else:
            delta = _near(draw, spent)
        specs.append(raw_spec(x0, thetas, radii, margin, delta, cost, lower, upper))
        X.append(x)
    return specs, np.array(X), draw(st.sampled_from([0.0, 0.0, 1e-10]))


@settings(max_examples=300, deadline=None)
@given(_membership_cases())
def test_row_wise_membership_matches_each_row_alone(case):
    """_members over a block of rows equals, bit for bit, the one-row test
    of each row: is_feasible and the reference."""
    specs, X, tol = case
    s0 = specs[0]

    def stacked(name):
        return np.concatenate([getattr(s, name) for s in specs])

    got = feasibility._members(
        X, tol, s0.thetas, stacked("radii"), np.array([[s.margin] for s in specs]),
        stacked("lower"), stacked("upper"), stacked("x0"),
        None if s0.delta is None else stacked("delta"), s0.l1)
    want = [_member_one_row(x, spec, tol) for x, spec in zip(X, specs)]
    assert got.tolist() == want == [is_feasible(x, spec, tol) for x, spec in zip(X, specs)]


def test_row_products_are_the_one_row_products(rng):
    """The products and costs _members takes for a block of rows equal,
    bit for bit, thetas @ x, x @ x and the costs of each row alone, on
    shapes where X @ thetas.T and np.einsum round differently."""
    for _ in range(300):
        K, d, N = int(rng.integers(1, 6)), int(rng.integers(2, 40)), int(rng.integers(1, 30))
        thetas = rng.normal(size=(K, d))
        X = rng.normal(size=(N, d)) * rng.uniform(0.1, 10.0)
        assert feasibility._mv(thetas, X).tobytes() == np.array([thetas @ x for x in X]).tobytes()
        assert feasibility._dots(X).tobytes() == np.array([x @ x for x in X]).tobytes()
        for l1 in (True, False):
            want = [_cost_one_row(x, l1) for x in X]
            assert feasibility._costs(X, l1).tolist() == want
            assert [float(feasibility._costs(x, l1)) for x in X] == want


def test_min_cost_point_mixes_defect_rows_without_a_warning():
    """Normal rows among a radius of |theta| and radii of 1e308, l1 and l2,
    K = 1 and 2, and rows of a zero direction, each spec's rows in one
    call: no row with a defect is evaluated, and each row's answer or error
    is its lone call's."""
    one, two = [[0.9, 0.35, -0.2]], [[1.0, 0.4, 0.2], [0.8, 0.7, -0.1]]
    out = [-1.0, 0.0, 1.0]
    groups = [  # thetas, cost, margin, and per row x0 and radii
        (one, Cost.L1, 1e-3, [([-1.3, -0.4, 1.0], [0.1]), ([1.0, 1.0, 1.0], [0.1]),  # x0 inside
                              (out, [np.linalg.norm(one)])]),
        (one, Cost.L2, 1e-3, [([-1.3, -0.4, 1.0], [0.1]), (out, [1e308])]),
        (two, Cost.L1, 0.5, [([-2.0, -1.0, 1.0], [0.1, 0.2]), (out, [1e308, 0.1])]),
        (two, Cost.L2, 0.5, [([-2.0, -1.0, 1.0], [0.1, 0.2])]),
        ([[0.0, 0.0, 0.0], two[0]], Cost.L2, 1e-3, [(out, [0.0, 0.1]), (out, [0.1, 0.1])]),
    ]
    kinds = []
    for thetas, cost, margin, cases in groups:
        rows = [raw_spec(x0, thetas, radii, margin, cost=cost, **_BIAS) for x0, radii in cases]
        order = [*range(len(rows))][::-1] + [0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = feasibility.min_cost_point(FeasibleSetSpec.stack([rows[i] for i in order]))
            alone = [feasibility.min_cost_point(row)[0] for row in rows]
        kinds += [type(best).__name__ for best in alone]
        for i, got in zip(order, block):
            want = alone[i]
            if isinstance(want, tuple):
                assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
            else:
                assert (type(got), str(got)) == (type(want), str(want))
    assert kinds == (["tuple"] * 2 + ["Unattainable"] + ["tuple", "Unattainable"] * 2 + ["tuple"]
                     + ["DegenerateDirection", "Unattainable"])


class TestCostOf:
    def test_l1_l2(self):
        assert cost_of([1.0, -2.0], [0.0, 0.0], Cost.L1) == pytest.approx(3.0)
        assert cost_of([3.0, 4.0], [0.0, 0.0], Cost.L2) == pytest.approx(5.0)


class TestCachedInvariants:
    """The checks that depend only on the spec are cached on it, yet every
    projection still raises them."""

    def _raises_twice(self, spec, error):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                project_feasible(spec.x0, spec)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_empty_margin_set_raises_on_every_call(self):
        spec = raw_spec([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [0.1, 2.0], delta=1.0)
        self._raises_twice(spec, EmptyFeasibleSet)
        self._raises_twice(with_delta(spec, 3.0), EmptyFeasibleSet)
        self._raises_twice(with_delta(spec, None), EmptyFeasibleSet)
        with pytest.raises(EmptyFeasibleSet, match=r"components \[1\]"):
            project_feasible(spec.x0, spec)

    def test_zero_direction_raises_on_every_call(self):
        spec = raw_spec([1.0, 0.0], [[0.0, 0.0]], [0.0], delta=1.0)
        self._raises_twice(spec, DegenerateDirection)
        self._raises_twice(with_delta(spec, None), DegenerateDirection)

    def test_spec_pickles_after_projection(self):
        import pickle

        spec = raw_spec([-1.0, 0.0], [[1.0, 0.2]], [0.1], delta=2.0, cost=Cost.L1)
        xp = np.array([2.0, 3.0])
        want = project_feasible(xp, spec)
        again = pickle.loads(pickle.dumps(spec))
        assert np.array_equal(project_feasible(xp, again), want)

    def test_min_cost_point_unattainable_for_empty_margin_set(self):
        spec = raw_spec([1.0, 0.0], [[1.0, 0.0]], [2.0])
        for _ in range(2):
            with pytest.raises(Unattainable):
                delta_min(spec)


def _l1_test_vectors(rng, d):
    """Seeded vectors with ties, zeros and mixed signs, paired with radii
    that include 0 and the vector's own l1 norm."""
    for _ in range(40):
        v = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        if d > 1:
            v[rng.integers(d)] = 0.0
            v[rng.integers(d)] = -v[rng.integers(d)]  # a tie in |v|
        norm1 = float(np.abs(v).sum())
        for radius in (0.0, 0.3 * norm1, norm1, 2.0 * norm1, float(rng.uniform(0.0, norm1))):
            yield v, radius
    yield np.zeros(d), 0.0
    yield np.full(d, 1.5), 1.0


@pytest.mark.parametrize("d", [1, 2, 3, 8, 50])
class TestL1BallMatchesNumpyOracle:
    """The plain-float threshold search is bit-identical to the NumPy sort
    and cumsum construction."""

    def test_l1_ball_bit_identical(self, rng, d):
        for v, radius in _l1_test_vectors(rng, d):
            assert np.array_equal(_project_l1_ball(v[None], radius)[0], l1_ball_numpy(v, radius))

    def test_cost_ball_bit_identical(self, rng, d):
        # l1 bit for bit.  The l2 row path sums d.d with np.add.reduce, the
        # oracle's np.linalg.norm with a dot product: the two sums of d
        # terms round apart by at most d ulps, which moves a coordinate by
        # at most d ulps of the radius, and its last addition by one ulp
        eps = np.finfo(float).eps
        for v, radius in _l1_test_vectors(rng, d):
            x0 = rng.normal(size=d)
            for cost in Cost:
                got = project_cost_ball(x0 + v, x0, radius, cost)
                want = cost_ball_numpy(x0 + v, x0, radius, cost)
                if cost is Cost.L1:
                    assert np.array_equal(got, want)
                else:
                    assert np.all(np.abs(got - want) <= d * eps * radius + eps * np.abs(want))


class TestL1RowGather:
    """The l1 ball over the rows of a block gathers each row's threshold
    directly: every row is its lone projection, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_rows_match_lone_projections(self, rng, d):
        # radius 0, rows the ball holds, ties in |v|, and a pinned bias that
        # moves by nothing
        V, radii = (np.array(a) for a in zip(*_l1_test_vectors(rng, d)))
        V[::3, -1] = 0.0
        got = _project_l1_ball(V, radii)
        for v, radius, row in zip(V, radii, got):
            assert row.tobytes() == _project_l1_ball(v[None], radius)[0].tobytes()
            assert np.array_equal(row, l1_ball_numpy(v, radius))

    def test_row_projection_matches_the_pinned_ball(self, rng):
        # the margin set holds every point whose bias is 1 and there is no
        # other bound, so the first cycle closes every row: each answer is
        # the l1 ball's projection of the row with its bias at 1, and
        # project_feasible's
        d = 4
        lower, upper = np.r_[np.full(d - 1, -np.inf), 1.0], np.r_[np.full(d - 1, np.inf), 1.0]
        rows = []
        for v, radius in _l1_test_vectors(rng, d):
            x0 = np.r_[rng.normal(size=d - 1), 1.0]
            rows.append((x0, x0 + v, radius))
        specs = [raw_spec(x0, [0.0] * (d - 1) + [1.0], 0.0, cost=Cost.L1, lower=lower,
                          upper=upper) for x0, _, _ in rows]
        Y, deltas = np.array([y for _, y, _ in rows]), [r for _, _, r in rows]
        spec = FeasibleSetSpec.stack(specs).take(np.arange(len(rows)), deltas)
        got, errors = RowProjection(spec)(Y, np.arange(len(rows)))
        assert not errors
        pins = np.r_[np.zeros(d - 1, bool), True]
        for (x0, y, radius), one, row in zip(rows, specs, got):
            assert row[-1] == 1.0
            pinned = np.where(pins, x0, y)
            assert row.tobytes() == cost_ball_numpy(pinned, x0, radius, Cost.L1).tobytes()
            assert row.tobytes() == project_feasible(y, with_delta(one, radius)).tobytes()


_COORD = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0)
_BOUND = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf])


@st.composite
def _block_cases(draw):
    """A template's belief and actionability and a block of inputs: box,
    immutable and non-decreasing features, K = 1-3, radii including 0 and
    ones that empty a margin set, directions including zero."""
    d, K, n = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    X0 = [[draw(_COORD) for _ in range(d - 1)] + [1.0] for _ in range(n)]
    comps = tuple(ComponentMoments([draw(st.sampled_from([0.0, -0.5, 0.3, 1.0]))
                                    for _ in range(d)], np.eye(d),
                                   draw(st.sampled_from([0.0, 0.1, 0.5, 3.0])))
                  for _ in range(K))
    box = None
    if draw(st.booleans()):
        box = [sorted([draw(_BOUND), draw(_BOUND)]) for _ in range(d)]
    act = ActionabilitySpec(draw(st.frozensets(st.integers(0, d - 1))),
                            draw(st.frozensets(st.integers(0, d - 1))), box)
    return (X0, MixtureBelief(comps, np.full(K, 1.0 / K)), act,
            draw(st.sampled_from(list(Cost))), draw(st.sampled_from([0.0, 1.5])))


def _defect(spec, n):
    defect = spec.defect(n)
    return None if defect is None else (type(defect), str(defect))


@settings(max_examples=300, deadline=None)
@given(_block_cases())
def test_block_rows_match_from_problem(case):
    """Each row of FeasibleSetSpec.block is from_problem's spec, array for
    array and bit for bit, with the same defect, or the same error; the
    bounds are those of the coordinate-by-coordinate loop."""
    X0, belief, act, cost, delta = case
    problems = [RecourseProblem(x0=FeatureVector(x0), belief=belief, delta=delta, margin=1e-3,
                                cost=cost, actionability=act) for x0 in X0]
    spec, errors = FeasibleSetSpec.block(X0, belief, problems[0].actionability, cost, 1e-3, delta)
    assert len(spec.x0) == len(problems)
    for n, problem in enumerate(problems):
        lower, upper = actionability_bounds_loop(problem.x0.values, problem.actionability)
        try:
            want = FeasibleSetSpec.from_problem(problem)
        except EmptyFeasibleSet as exc:
            assert type(errors[n]) is EmptyFeasibleSet and str(errors[n]) == str(exc)
            assert np.any(lower > upper)
            continue
        assert n not in errors
        assert want.lower[0].tobytes() == lower.tobytes()
        assert want.upper[0].tobytes() == upper.tobytes()
        row = spec.take([n], spec.delta[[n]])
        for name in ("x0", "thetas", "radii", "lower", "upper", "delta", "tts"):
            a, b = getattr(row, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (row.cost, row.margin, row.l1) == (want.cost, want.margin, want.l1)
        assert _defect(spec, n) == _defect(want, 0)


@st.composite
def _mixed_blocks(draw):
    """One spec whose rows share thetas, margin and cost and differ in x0,
    radii, pins and which bounds are finite, d up to 10 and K up to 3,
    with a budget and a target per row."""
    d, K, N = draw(st.integers(2, 10)), draw(st.integers(1, 3)), draw(st.integers(2, 6))
    thetas = np.array([[draw(_THETA) for _ in range(d)] for _ in range(K)])
    cost, margin = draw(st.sampled_from(list(Cost))), draw(st.sampled_from([1e-3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, deltas, Y = [], [], []
    for _ in range(N):
        x0 = np.array([draw(_COORD) for _ in range(d - 1)] + [1.0])
        radii = np.array([draw(st.sampled_from([0.0, 0.05, 0.3, 0.7])) for _ in range(K)])
        rows.append(raw_spec(x0, thetas, radii * np.linalg.norm(thetas, axis=1), margin,
                             cost=cost, **dict(zip(("lower", "upper"), _draw_bounds(draw, x0)))))
        deltas.append(draw(st.sampled_from([0.5, 2.0, 10.0])))
        Y.append(x0 + draw(st.sampled_from([0.5, 3.0])) * rng.normal(size=d))
    return rows, deltas, np.array(Y)


def _same(got, want):
    """Whether two answers of a row are one: the same bytes, or the same error."""
    if isinstance(want, RecourseError) or want is None:
        return (type(got), str(got)) == (type(want), str(want))
    return all(a.tobytes() == b.tobytes() for a, b in zip(map(np.asarray, got),
                                                           map(np.asarray, want)))


@settings(max_examples=100, deadline=None)
@given(_mixed_blocks())
def test_mixed_rows_match_their_one_row_calls(case):
    """A spec whose rows differ in radii, pins and finite bounds: through
    min_cost_point, _run_blocks and RowProjection, every row's answer is
    its one-row call's, bit for bit."""
    rows, deltas, Y = case
    spec, n = FeasibleSetSpec.stack(rows), np.arange(len(rows))
    ball = spec.take(n, deltas)
    for i, got in enumerate(feasibility.min_cost_point(spec)):
        assert _same(got, feasibility.min_cost_point(rows[i])[0])
    for i, got in enumerate(feasibility._run_blocks(ball, Y)):
        assert _same(got, feasibility._run_blocks(ball.take([i], deltas[i:i + 1]), Y[i:i + 1])[0])
    if spec.defect(0):  # a zero direction: no projection
        return
    X, errors = RowProjection(ball)(Y, n)
    for i in n.tolist():
        one, one_errors = RowProjection(ball.take([i], deltas[i:i + 1]))(Y[i:i + 1], n[:1])
        assert _same(errors.get(i), one_errors.get(0))
        if i not in errors:
            assert X[i].tobytes() == one[0].tobytes()
