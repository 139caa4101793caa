import warnings

import numpy as np
import pytest

from robust_recourse.errors import (
    BadBudget,
    DimensionMismatch,
    InvalidWeights,
    NotPositiveDefinite,
)
from robust_recourse.model import (
    ActionabilitySpec,
    ComponentMoments,
    Cost,
    FeatureVector,
    LinearClassifier,
    MixtureBelief,
    Mode,
    RecourseProblem,
    RecourseResult,
    validate_problem,
)


def make_problem(**overrides):
    defaults = dict(
        x0=FeatureVector.from_features([-1.0, -2.0]),
        belief=MixtureBelief((ComponentMoments([1.0, 0.0, 0.0], np.eye(3), 0.0),), [1.0]),
        delta=1.0,
    )
    defaults.update(overrides)
    return RecourseProblem(**defaults)


class TestFeatureVector:
    def test_bias_appended(self):
        fv = FeatureVector.from_features([0.5, 0.25])
        assert fv.dim == 3
        assert fv.values[-1] == 1.0
        assert np.array_equal(fv.features, [0.5, 0.25])

    def test_bias_must_be_one(self):
        with pytest.raises(DimensionMismatch):
            FeatureVector([0.5, 0.9])

    def test_minimum_dimension(self):
        with pytest.raises(DimensionMismatch):
            FeatureVector([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            FeatureVector([bad, 1.0])

    def test_immutable(self):
        fv = FeatureVector.from_features([0.5])
        with pytest.raises(ValueError):
            fv.values[0] = 2.0


class TestLinearClassifier:
    def test_zero_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearClassifier([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DimensionMismatch, match="must be finite"):
            LinearClassifier([1.0, bad])


class TestComponentMoments:
    def test_identity_ok(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        assert comp.dim == 2

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            ComponentMoments([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ComponentMoments([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], 0.0)

    def test_tiny_asymmetry_tolerated(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-12
        comp = ComponentMoments([0.0, 0.0], cov, 0.0)
        assert np.allclose(comp.cov, comp.cov.T)

    def test_negative_radius_rejected(self):
        with pytest.raises(BadBudget):
            ComponentMoments([1.0, 0.0], np.eye(2), -0.1)

    def test_covariance_near_the_float_range(self):
        # the symmetrized copy halves before it adds: cov + cov.T would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp = ComponentMoments([1.0, 0.0], 1e308 * np.eye(2), 0.0)
            assert np.array_equal(comp.cov, 1e308 * np.eye(2))
            with pytest.raises(NotPositiveDefinite, match="asymmetric by inf"):
                ComponentMoments([0.0, 0.0], [[1.0, 1e308], [-1e308, 1.0]], 0.0)

    def test_symmetrized_bytes(self, rng):
        # halving each term first gives the bytes of halving the sum
        A = rng.normal(size=(4, 4))
        cov = A @ A.T + 0.5 * np.eye(4)
        cov[0, 1] += 1e-13
        comp = ComponentMoments(np.zeros(4), cov, 0.0)
        assert comp.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()

    def test_eigenvalue_failure_is_typed(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(NotPositiveDefinite, match="did not converge"):
            ComponentMoments([0.0, 0.0], np.eye(2), 0.0)

    @pytest.mark.parametrize("mean, cov, message", [
        ([0.0, 0.0], np.ones((2, 3)), "must be square"),
        ([0.0, 0.0], np.ones(2), "must be square"),
        ([0.0, 0.0, 0.0], np.eye(2), "mean has dimension 3"),
        ([np.nan, 0.0], np.eye(2), "must be finite"),
        ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "must be finite"),
    ], ids=["non-square", "1-d", "size-mismatch", "nan-mean", "inf-cov"])
    def test_malformed_moments_rejected(self, mean, cov, message):
        with pytest.raises(DimensionMismatch, match=message):
            ComponentMoments(mean, cov, 0.0)


class TestMixtureBelief:
    def test_weights_must_sum_to_one(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        with pytest.raises(InvalidWeights):
            MixtureBelief((comp, comp), [0.6, 0.6])

    def test_negative_weight_rejected(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        with pytest.raises(InvalidWeights):
            MixtureBelief((comp, comp), [1.5, -0.5])

    @pytest.mark.parametrize("components, weights, error, message", [
        (((1.0, 0.0), np.eye(2)), [0.5, 0.5], DimensionMismatch, "ComponentMoments instances"),
        ((ComponentMoments([1.0, 0.0], np.eye(2)),) * 2, [1.0], InvalidWeights, "but 1 weights"),
        ((ComponentMoments([1.0, 0.0], np.eye(2)), ComponentMoments([1.0, 0.0, 0.0], np.eye(3))),
         [0.5, 0.5], DimensionMismatch, "disagree on dimension"),
    ], ids=["not-moments", "weight-count", "mixed-dims"])
    def test_malformed_components_rejected(self, components, weights, error, message):
        with pytest.raises(error, match=message):
            MixtureBelief(components, weights)

    def test_with_radius(self):
        comp = ComponentMoments([1.0, 0.0], np.eye(2), 0.0)
        belief = MixtureBelief((comp, comp), [0.5, 0.5]).with_radius([0.1, 0.2])
        assert [c.radius for c in belief.components] == [0.1, 0.2]


class TestActionability:
    def test_overlap_is_immutable(self):
        spec = ActionabilitySpec(immutable={1}, non_decreasing={1, 2})
        assert spec.immutable == {1}
        assert spec.non_decreasing == {2}

    def test_bad_box(self):
        with pytest.raises(BadBudget):
            ActionabilitySpec(box=[[0.0, 1.0], [2.0, 1.0]])
        for shape in [(2, 3), (2,)]:
            with pytest.raises(DimensionMismatch, match="box must have shape"):
                ActionabilitySpec(box=np.zeros(shape))

    def test_bias_pinned_on_problem(self):
        prob = make_problem()
        assert prob.dim - 1 in prob.actionability.immutable


class TestValidateProblem:
    def test_valid_roundtrip_identity(self):
        prob = make_problem()
        assert validate_problem(prob) is prob
        assert validate_problem(validate_problem(prob)) is prob

    def test_dimension_mismatch(self):
        belief = MixtureBelief((ComponentMoments([1.0, 0.0], np.eye(2), 0.0),), [1.0])
        with pytest.raises(DimensionMismatch):
            validate_problem(make_problem(belief=belief))

    def test_bad_budgets(self):
        with pytest.raises(BadBudget):
            make_problem(delta=-0.5)
        with pytest.raises(BadBudget):
            make_problem(margin=0.0)
        with pytest.raises(BadBudget):
            make_problem(weight_budget=-1.0)
        for field in ("delta", "margin", "weight_budget"):
            with pytest.raises(BadBudget):
                make_problem(**{field: float("nan")})

    def test_actionability_out_of_range(self):
        prob = make_problem(actionability=ActionabilitySpec(immutable={7}))
        with pytest.raises(DimensionMismatch):
            validate_problem(prob)
        prob = make_problem(actionability=ActionabilitySpec(box=[[0.0, 1.0]] * 2))
        with pytest.raises(DimensionMismatch, match="box covers 2 features but dimension is 3"):
            validate_problem(prob)

    def test_enums_coerced_from_strings(self):
        prob = make_problem(cost="l2", mode="gaussian")
        assert prob.cost is Cost.L2
        assert prob.mode is Mode.GAUSSIAN


class TestRecourseResult:
    @pytest.mark.parametrize("objective, stationarity, message", [
        (1.5, 0.0, r"outside \[0, 1\]"),
        (-0.1, 0.0, r"outside \[0, 1\]"),
        (np.nan, 0.0, r"outside \[0, 1\]"),
        (0.5, -1e-3, "stationarity measure must be >= 0"),
        (0.5, np.nan, "stationarity measure must be >= 0"),
    ], ids=["above-1", "below-0", "nan-objective", "negative-stationarity", "nan-stationarity"])
    def test_out_of_range_diagnostics_rejected(self, objective, stationarity, message):
        with pytest.raises(BadBudget, match=message):
            RecourseResult(FeatureVector([0.5, 1.0]), objective, np.array([0.5]), 3,
                           stationarity, 0.0, True)
