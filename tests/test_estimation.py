import numpy as np
import pytest

from robust_recourse.errors import (
    DegenerateScores,
    DimensionMismatch,
    TooFewSamples,
)
from robust_recourse.estimation import (
    LabeledDataset,
    ParameterSample,
    _kmeans,
    bootstrap_parameters,
    fit_mixture_moments,
    local_linear_surrogate,
    prior_belief,
    train_logistic,
)
from robust_recourse.model import validate_problem


def blobs(rng, n=400, mu0=(-3.0, -3.0), mu1=(3.0, 3.0)):
    X0 = rng.normal(size=(n, 2)) + mu0
    X1 = rng.normal(size=(n, 2)) + mu1
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    return LabeledDataset(X, y)


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestLabeledDataset:
    def test_rejects_single_class(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset(np.zeros((12, 2)), np.zeros(12, int))

    def test_rejects_tiny(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset(np.zeros((5, 2)), np.array([0, 1, 0, 1, 0]))

    def test_augmented_bias_column(self, rng):
        data = blobs(rng, n=20)
        aug = data.augmented()
        assert aug.shape == (40, 3)
        assert np.all(aug[:, -1] == 1.0)


class TestTrainLogistic:
    def test_separable_blobs_high_accuracy(self, rng):
        data = blobs(rng)
        clf = train_logistic(data)
        acc = float((clf.decide(data.augmented()) == data.labels).mean())
        assert acc >= 0.99

    def test_flipped_labels_flip_theta(self, rng):
        data = blobs(rng)
        clf = train_logistic(data)
        flipped = train_logistic(LabeledDataset(data.features, 1 - data.labels))
        assert cosine(clf.theta, flipped.theta) <= -0.99

    def test_boundary_bisects_symmetric_points(self):
        X = np.array([[-1.0, 0.0]] * 10 + [[3.0, 0.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        clf = train_logistic(LabeledDataset(X, y), l2_reg=1e-2, max_epochs=20000)
        midpoint = np.array([1.0, 0.0, 1.0])
        assert abs(clf.theta @ midpoint) <= 1e-3

    def test_deterministic(self, rng):
        data = blobs(rng)
        a = train_logistic(data)
        b = train_logistic(data)
        assert np.array_equal(a.theta, b.theta)


class TestBootstrap:
    def test_mean_direction_matches_full_fit(self, rng):
        data = blobs(rng, n=500)
        sample = bootstrap_parameters(data, B=100, seed=3)
        full = train_logistic(data)
        assert sample.size == 100
        assert cosine(sample.thetas.mean(axis=0), full.theta) >= 0.99

    def test_full_subsample_is_degenerate(self, rng):
        data = blobs(rng, n=50)
        sample = bootstrap_parameters(data, B=2, subsample=1.0, seed=0)
        assert np.array_equal(sample.thetas[0], sample.thetas[1])

    def test_b_zero_rejected(self, rng):
        with pytest.raises(TooFewSamples):
            bootstrap_parameters(blobs(rng, n=20), B=0)

    def test_seed_determinism(self, rng):
        data = blobs(rng, n=100)
        a = bootstrap_parameters(data, B=10, seed=5)
        b = bootstrap_parameters(data, B=10, seed=5)
        assert np.array_equal(a.thetas, b.thetas)


class TestMixtureMoments:
    def test_single_cluster_moments(self, rng):
        T = rng.normal(size=(60, 3))
        belief = fit_mixture_moments(ParameterSample(T), K=1, jitter=1e-4)
        assert np.allclose(belief.components[0].mean, T.mean(axis=0))
        want = np.cov(T, rowvar=False, ddof=0) + 1e-4 * np.eye(3)
        assert np.allclose(belief.components[0].cov, want)
        assert belief.weights.tolist() == [1.0]

    def test_two_separated_clouds(self, rng):
        A = rng.normal(scale=0.05, size=(60, 3)) + [2.0, 0.0, 0.0]
        B = rng.normal(scale=0.05, size=(40, 3)) + [0.0, 2.0, 1.0]
        belief = fit_mixture_moments(ParameterSample(np.vstack([A, B])), K=2, seed=1)
        means = sorted((tuple(np.round(c.mean, 1)) for c in belief.components))
        assert np.allclose(sorted(belief.weights), [0.4, 0.6])
        got = np.array(means)
        want = np.array(sorted([(0.0, 2.0, 1.0), (2.0, 0.0, 0.0)]))
        assert np.abs(got - want).max() <= 0.1

    def test_identical_samples_jitter_covariance(self):
        T = np.tile([1.0, 2.0, 3.0], (10, 1))
        belief = fit_mixture_moments(ParameterSample(T), K=1, jitter=1e-4)
        assert np.array_equal(belief.components[0].cov, 1e-4 * np.eye(3))

    def test_too_few_samples(self):
        T = np.ones((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(TooFewSamples):
            fit_mixture_moments(ParameterSample(T), K=4)

    def test_permutation_invariance(self, rng):
        A = rng.normal(scale=0.05, size=(50, 3)) + [2.0, 0.0, 0.0]
        B = rng.normal(scale=0.05, size=(50, 3)) + [0.0, 2.0, 1.0]
        T = np.vstack([A, B])
        belief1 = fit_mixture_moments(ParameterSample(T), K=2, seed=7)
        perm = rng.permutation(T.shape[0])
        belief2 = fit_mixture_moments(ParameterSample(T[perm]), K=2, seed=7)
        for c1, c2 in zip(belief1.components, belief2.components):
            assert np.allclose(c1.mean, c2.mean, atol=1e-12)
            assert np.allclose(c1.cov, c2.cov, atol=1e-12)
        assert np.allclose(belief1.weights, belief2.weights)

    def test_outputs_validate(self, rng):
        from robust_recourse.model import FeatureVector, RecourseProblem

        T = rng.normal(size=(40, 3)) + [1.0, 1.0, 0.0]
        belief = fit_mixture_moments(ParameterSample(T), K=2, seed=0)
        prob = RecourseProblem(
            x0=FeatureVector.from_features([0.1, 0.2]), belief=belief, delta=1.0
        )
        validate_problem(prob)

    def test_inertia_diagnostic_decreases(self, rng):
        A = rng.normal(scale=0.1, size=(40, 2)) + [2.0, 0.0]
        B = rng.normal(scale=0.1, size=(40, 2)) + [-2.0, 0.0]
        T = np.vstack([A, B])
        assign = _kmeans(T, 2, np.random.default_rng(0))
        split = sum(float(((T[assign == k] - T[assign == k].mean(axis=0)) ** 2).sum())
                    for k in (0, 1))
        assert split < float(((T - T.mean(axis=0)) ** 2).sum())


class TestPriorBelief:
    def test_prior_only_mode(self):
        belief = prior_belief([1.0, -0.5, 0.2], tau=0.1)
        comp = belief.components[0]
        assert np.array_equal(comp.mean, [1.0, -0.5, 0.2])
        assert np.array_equal(comp.cov, 0.1 * np.eye(3))
        assert belief.weights.tolist() == [1.0]


class LinearScorer:
    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float)

    def predict_proba(self, x):
        return 1.0 / (1.0 + np.exp(-self.theta @ x))


class TestSurrogate:
    def test_recovers_linear_direction(self):
        theta = np.array([2.0, -1.0, 0.3])
        sur = local_linear_surrogate(LinearScorer(theta), [0.1, 0.2, 1.0], seed=5)
        assert cosine(sur.theta, theta) >= 0.99

    def test_constant_model_rejected(self):
        class Const:
            def predict_proba(self, x):
                return 0.7

        with pytest.raises(DegenerateScores):
            local_linear_surrogate(Const(), [0.1, 0.2, 1.0], seed=0)

    def test_deterministic(self):
        theta = np.array([1.0, 1.0, 0.0])
        a = local_linear_surrogate(LinearScorer(theta), [0.0, 0.0, 1.0], seed=9)
        b = local_linear_surrogate(LinearScorer(theta), [0.0, 0.0, 1.0], seed=9)
        assert np.array_equal(a.theta, b.theta)

    def test_more_perturbations_never_worse(self):
        theta = np.array([1.5, -0.7, 0.1])
        x0 = [0.05, -0.1, 1.0]
        small = local_linear_surrogate(LinearScorer(theta), x0, n_perturb=200, seed=2)
        large = local_linear_surrogate(LinearScorer(theta), x0, n_perturb=2000, seed=2)
        assert cosine(large.theta, theta) >= cosine(small.theta, theta) - 1e-6

    def test_mlp_surrogate_target(self, rng):
        # small fixed two-layer net as the black box; the surrogate should
        # align with its local gradient direction at x0
        W1 = rng.normal(size=(8, 2))
        b1 = rng.normal(size=8) * 0.1
        w2 = rng.normal(size=8)

        class TinyMLP:
            def predict_proba(self, x):
                h = np.tanh(W1 @ x[:-1] + b1)
                return 1.0 / (1.0 + np.exp(-(w2 @ h)))

        x0 = np.array([0.2, -0.1, 1.0])
        sur = local_linear_surrogate(TinyMLP(), x0, seed=4)
        h = np.tanh(W1 @ x0[:-1] + b1)
        s = 1.0 / (1.0 + np.exp(-(w2 @ h)))
        grad = (W1.T @ (w2 * (1 - h**2))) * s * (1 - s)
        assert cosine(sur.theta[:-1], grad) >= 0.95

    def test_too_few_perturbations(self):
        with pytest.raises(TooFewSamples):
            local_linear_surrogate(LinearScorer([1.0, 0.0]), [0.3, 1.0], n_perturb=10)
