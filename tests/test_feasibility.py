import numpy as np
import pytest

from oracles import (
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
    Unattainable,
)
from robust_recourse.feasibility import (
    FeasibleSetSpec,
    _cost_ball,
    _project_cone_known,
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
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    return FeasibleSetSpec(
        x0=x0,
        delta=delta,
        cost=cost,
        margin=margin,
        thetas=np.atleast_2d(np.asarray(thetas, dtype=float)),
        radii=np.atleast_1d(np.asarray(radii, dtype=float)),
        lower=np.full(d, -np.inf) if lower is None else np.asarray(lower, float),
        upper=np.full(d, np.inf) if upper is None else np.asarray(upper, float),
    )


def project_cone(xp, theta, rho, margin):
    """The single-cone projection, as the Dykstra cycle calls it."""
    theta = np.asarray(theta, dtype=float)
    xp = np.asarray(xp, dtype=float)
    return _project_cone_known(xp, theta, rho, float(theta @ theta), margin)


def project_cost_ball(xp, x0, delta, cost):
    """The cost-ball projection, as the Dykstra cycle calls it."""
    return _cost_ball(
        np.asarray(xp, dtype=float), np.asarray(x0, dtype=float), delta, Cost(cost) is Cost.L1
    )


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
        assert isinstance(spec.defect(), DegenerateDirection)

    def test_radius_swallows_direction(self):
        spec = raw_spec([1.0, 0.0], [[1.0, 0.0]], [1.5], margin=0.1)
        assert isinstance(spec.defect(), EmptyFeasibleSet)

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
        # a far-away input holds the iterate still for thousands of cycles
        # while the corrections rebalance; that is no stall
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
        # [-scale, 0] is not empty, but at this scale the absolute cycle
        # tolerance is out of reach: the conic kernel answers
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
        assert kernel_rows == [1]  # the cycles ran out
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert is_feasible(got, spec, 1e-10 * scale)

    def test_still_cycles_end_in_the_kernel(self):
        # at this scale rounding keeps the still iterate just outside the
        # absolute tolerance; the kernel projects instead
        spec = raw_spec([-1e8, 0.0], [[1.0, 0.5]], [0.0], margin=1e-3, delta=2e8)
        got = project_feasible(np.array([-3e8, 2e8]), spec, 10**4, 1e-10)
        assert np.allclose(got, [-99999999.999, 2e8], rtol=1e-10, atol=0.0)

    def test_two_halfspace_closed_form(self, rng):
        # with zero radii the margin sets are halfspaces; Dykstra must agree
        # with the known alternating closed form via the grid oracle
        for _ in range(5):
            t1 = np.array([1.0, 0.1 * rng.normal()])
            t2 = np.array([0.2 * rng.normal(), 1.0])
            spec = raw_spec(rng.normal(size=2) * 2, [t1, t2], [0.0, 0.0], margin=0.05)
            xp = rng.normal(size=2) * 2
            got = project_feasible(xp, spec, max_iter=20000)
            want = grid_project(xp, spec)
            assert is_feasible(got, spec, 1e-7)
            assert projection_close(got, want, xp)


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

    def test_consistency_with_projection(self, rng):
        count = 0
        while count < 8:
            spec = random_2d_spec(rng, with_delta=False, cost=Cost.L2)
            if spec is None:
                continue
            dm = delta_min(spec)
            if dm <= 1e-2:
                continue
            project_feasible(spec.x0, spec.with_delta(dm + 1e-4), max_iter=20000)
            with pytest.raises((EmptyFeasibleSet, MaxIterExceeded)):
                project_feasible(spec.x0, spec.with_delta(dm - 1e-2), max_iter=2000)
            count += 1


class TestConicKernel:
    """The conic kernel behind delta_min and the projection backstop."""

    def test_unsolved_rows_get_no_start(self, monkeypatch):
        good = raw_spec([-1.0, 0.0], [[1.0, 0.5]], [0.1], delta=3.0)
        defective = raw_spec([-1.0, 0.0], [[1.0, 0.5]], [2.0], delta=3.0)  # empty margin set
        starts = feasibility.project_starts([good, defective], 1e-10)
        assert is_feasible(starts[0], good, 1e-9) and starts[1] is None
        inner = feasibility._cone_lp

        def failed(c, G, H, sizes):
            status, V, Z = inner(c, G, H, sizes)
            return np.full_like(status, feasibility.FAILED), V, Z

        monkeypatch.setattr(feasibility, "_cone_lp", failed)
        assert feasibility.project_starts([good], 1e-10) == [None]

    def test_emptiness_comes_with_a_farkas_certificate(self):
        # the halfspace x >= 0.1 misses the l2 ball of radius 0.5 around -1
        spec = raw_spec([-1.0, 0.0], [[1.0, 0.0]], [0.0], margin=0.1, delta=0.5, cost=Cost.L2)
        c, G, H, sizes, _ = feasibility._conic_program([spec], spec.x0[None])
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
        for i in range(9):
            x0 = np.array([*(rng.normal(size=2) - 2.0), 1.0])
            upper = [np.inf, 0.5, 1.0]
            if i == 4:  # a different pinned set: its own block
                upper[1] = x0[1]
            # margins differ within a block: they enter h, not G
            specs.append(raw_spec(x0, thetas, [0.1, 0.2], margin=[1e-3, 0.5][i % 2], cost=cost,
                                  lower=[-np.inf, x0[1], 1.0], upper=upper))
        # a block of their own whose l1 distance programs meet an exact zero
        # pivot: the normal equations split into single-row solves
        belief = MixtureBelief((ComponentMoments([1.0, 0.9, 0.2], 0.05 * np.eye(3), 0.1),), [1.0])
        specs += [FeasibleSetSpec.from_problem(RecourseProblem(
            x0=FeatureVector.from_features(x), belief=belief, delta=0.0, cost=Cost.L1))
            for x in ([-1.2, -0.8], [-1.0, -1.0], [-2.0, 0.5])]
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
        block = feasibility.min_cost_point(specs, 1e-10)
        assert split and set(split) == {1}
        for spec, got in zip(specs, block):
            alone = delta_min(spec, 1e-10, with_point=True)
            assert got[0] == alone[0] and np.array_equal(got[1], alone[1])
            assert is_feasible(got[1], spec.without_delta(), 1e-9)
            assert got[0] == cost_of(got[1], spec.x0, spec.cost)


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
        self._raises_twice(spec.with_delta(3.0), EmptyFeasibleSet)
        self._raises_twice(spec.without_delta(), EmptyFeasibleSet)
        with pytest.raises(EmptyFeasibleSet, match=r"components \[1\]"):
            project_feasible(spec.x0, spec)

    def test_zero_direction_raises_on_every_call(self):
        spec = raw_spec([1.0, 0.0], [[0.0, 0.0]], [0.0], delta=1.0)
        self._raises_twice(spec, DegenerateDirection)
        self._raises_twice(spec.without_delta(), DegenerateDirection)

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
            assert np.array_equal(_project_l1_ball(v, radius), l1_ball_numpy(v, radius))

    def test_cost_ball_bit_identical(self, rng, d):
        for v, radius in _l1_test_vectors(rng, d):
            x0 = rng.normal(size=d)
            for cost in Cost:
                got = project_cost_ball(x0 + v, x0, radius, cost)
                assert np.array_equal(got, cost_ball_numpy(x0 + v, x0, radius, cost))
