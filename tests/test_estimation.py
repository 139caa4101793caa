import warnings

import numpy as np
import pytest

from robust_recourse import estimation
from robust_recourse.errors import (
    DimensionMismatch,
    EmptyCluster,
    NotConvergedWarning,
    TooFewSamples,
)
from robust_recourse.estimation import (
    LabeledDataset,
    ParameterSample,
    _kmeans,
    _subsample_indices,
    bootstrap_parameters,
    fit_mixture_moments,
    prior_belief,
    train_logistic,
)
from robust_recourse.harness import build_shift_ensemble
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

    @pytest.mark.parametrize("labels, message", [
        ([0, 2] * 6, "labels must be 0/1"),
        ([-1, 0, 1] * 4, "labels must be 0/1"),
        ([1] * 12, "both classes must be present"),
        ([2] * 12, "labels must be 0/1"),  # the 0/1 test comes before the two-class test
        ([0, np.nan] * 6, "labels must be 0/1"),
        ([0, 0.7, 1] * 4, "labels must be 0/1"),  # not truncated to class 0
        ([0, 0.7] * 3, "labels must align with feature rows"),
    ], ids=["0-2", "-1-0-1", "one-class", "one-class-of-2", "nan", "0.7", "misaligned"])
    def test_label_messages_in_order(self, labels, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN fails before any cast that warns
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                LabeledDataset(np.zeros((12, 2)), labels)

    def test_feature_checks_precede_label_checks(self):
        with pytest.raises(DimensionMismatch, match="at least 10 samples, got 4"):
            LabeledDataset(np.zeros((4, 2)), [0, 0.7, 2, np.nan])
        with pytest.raises(DimensionMismatch, match="non-finite"):
            LabeledDataset(np.full((12, 2), np.nan), [0, 0.7] * 6)
        with pytest.raises(DimensionMismatch, match="must be 2-d"):
            LabeledDataset(np.zeros((12, 2, 1)), [0, 0.7] * 6)

    @pytest.mark.parametrize("labels", [
        np.array([0, 1] * 6), np.array([0, 1] * 6, np.int8), np.array([False, True] * 6),
        np.array([0.0, 1.0] * 6), [0, 1] * 6,
    ], ids=["int64", "int8", "bool", "float", "list"])
    def test_accepts_int_bool_and_exact_labels(self, labels):
        data = LabeledDataset(np.zeros((12, 2)), labels)
        assert data.labels.dtype == int and data.labels.tolist() == [0, 1] * 6
        assert not data.labels.flags.writeable

    def test_augmented_bias_column(self, rng):
        data = blobs(rng, n=20)
        aug = data.augmented()
        assert aug.shape == (40, 3)
        assert np.all(aug[:, -1] == 1.0)


class TestSubsampleIndices:
    def test_redraws_until_both_classes_appear(self):
        labels = np.array([1] + [0] * 19)  # a 10-row draw holds the positive half the time
        redrawn = 0
        for seed in range(20):
            replay = np.random.default_rng(seed)
            draws = [replay.choice(20, size=10, replace=False) for _ in range(50)]
            first = next(i for i, d in enumerate(draws) if 0 in d)
            redrawn += first > 0
            idx = _subsample_indices(np.random.default_rng(seed), 20, 10, labels)
            assert np.array_equal(idx, draws[first])
        assert redrawn  # some seed's first draw held one class only

    def test_one_positive_row_gives_up_after_50_draws(self):
        class MissesRowZero:
            calls = 0

            def choice(self, n, size, replace):
                self.calls += 1
                return np.arange(1, size + 1)

        rng = MissesRowZero()
        with pytest.raises(TooFewSamples, match="both classes"):
            _subsample_indices(rng, 20, 10, np.array([1] + [0] * 19))
        assert rng.calls == 50


class TestTrainLogistic:
    def test_separable_blobs_high_accuracy(self, rng):
        data = blobs(rng)
        clf = train_logistic(data)
        acc = float(((data.augmented() @ clf.theta >= 0.0) == data.labels).mean())
        assert acc >= 0.99

    def test_flipped_labels_flip_theta(self, rng):
        data = blobs(rng)
        clf = train_logistic(data)
        flipped = train_logistic(LabeledDataset(data.features, 1 - data.labels))
        assert cosine(clf.theta, flipped.theta) <= -0.99

    def test_boundary_bisects_symmetric_points(self):
        X = np.array([[-1.0, 0.0]] * 10 + [[3.0, 0.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        clf = train_logistic(LabeledDataset(X, y), l2_reg=1e-2)
        midpoint = np.array([1.0, 0.0, 1.0])
        assert abs(clf.theta @ midpoint) <= 1e-3

    def test_deterministic(self, rng):
        data = blobs(rng)
        a = train_logistic(data)
        b = train_logistic(data)
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("mu", [3.0, 0.5], ids=["separable", "overlapping"])
    def test_matches_scipy_minimizer(self, rng, mu):
        minimize = pytest.importorskip("scipy.optimize").minimize
        data = blobs(rng, mu0=(-mu, -mu), mu1=(mu, mu))
        ref = minimize(
            lambda t: _loss_grad(data, t), np.zeros(3), jac=True,
            hess=lambda t: _hessian(data, t), method="trust-exact", options={"gtol": 1e-13},
        ).x
        theta = train_logistic(data).theta
        grad = _loss_grad(data, theta)[1]
        assert np.abs(grad).max() <= 1e-6
        # the stopping rule bounds the distance to the minimizer by
        # |grad| / (least curvature), with a factor 2 for the curvature's
        # change between theta and the minimizer
        least_curvature = np.linalg.eigvalsh(_hessian(data, ref))[0]
        assert np.linalg.norm(theta - ref) <= 2.0 * np.linalg.norm(grad) / least_curvature

    def test_iteration_cap_warns_and_returns_a_descent(self, rng):
        data = blobs(rng)
        with pytest.warns(NotConvergedWarning):
            theta = estimation._fit_logistic(data.augmented()[None], data.labels[None], 1e-4, 2)[0]
        assert np.all(np.isfinite(theta))
        assert _loss_grad(data, theta)[0] < _loss_grad(data, np.zeros(3))[0]
        assert np.abs(_loss_grad(data, theta)[1]).max() > 1e-6

    def test_rounding_floor_warns_and_returns_a_descent(self, rng):
        # at features near 1e12 the gradient's rounding error exceeds 1e-6,
        # so the fit stops where no step lowers the loss
        data = blobs(rng, mu0=(-1.0, -1.0), mu1=(1.0, 1.0))
        data = LabeledDataset(data.features * 1e12, data.labels)
        with pytest.warns(NotConvergedWarning):
            theta = train_logistic(data).theta
        assert np.all(np.isfinite(theta))
        assert _loss_grad(data, theta)[0] < _loss_grad(data, np.zeros(3))[0]


def _loss_grad(data, theta, l2_reg=1e-4):
    """The regularized logistic loss and its gradient, computed directly."""
    X, y = data.augmented(), 2.0 * data.labels - 1.0
    reg = np.r_[np.full(X.shape[1] - 1, l2_reg), 0.0]
    z = y * (X @ theta)
    sig = 1.0 / (1.0 + np.exp(z))
    loss = np.logaddexp(0.0, -z).mean() + 0.5 * reg @ theta**2
    return loss, reg * theta - X.T @ (y * sig) / len(y)


def _hessian(data, theta, l2_reg=1e-4):
    X = data.augmented()
    p = 1.0 / (1.0 + np.exp(-(X @ theta)))
    reg = np.r_[np.full(X.shape[1] - 1, l2_reg), 0.0]
    return (X.T * (p * (1.0 - p))) @ X / len(p) + np.diag(reg)


def _lone_fits(datasets, sizes, seed, original=None):
    """train_logistic on each trial's subsample, drawn as the ensembles draw
    them: trial t from datasets[t % len], with child seed t."""
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    thetas = []
    for t, size in enumerate(sizes):
        data = datasets[t % len(datasets)]
        idx = _subsample_indices(np.random.default_rng(seeds[t]), data.n, size, data.labels)
        X, y = data.features[idx], data.labels[idx]
        if original is not None:
            X, y = np.vstack([original.features, X]), np.concatenate([original.labels, y])
        thetas.append(train_logistic(LabeledDataset(X, y)).theta)
    return np.array(thetas)


class TestBatchedFit:
    """Every subsample's theta is bitwise the one train_logistic gives it
    alone, whatever batch or chunk it is fitted in, and keeps its trial
    order."""

    @pytest.mark.parametrize("floats", [1, 3 * 240 * 2, estimation._CHUNK_FLOATS])
    def test_bootstrap_rows_are_lone_fits(self, rng, monkeypatch, floats):
        # 240 rows of 3 floats each: chunks of 1 row, of 2 rows, and one chunk
        data = blobs(rng, n=150)
        want = _lone_fits([data], [240] * 5, seed=4)
        monkeypatch.setattr(estimation, "_CHUNK_FLOATS", floats)
        assert np.array_equal(bootstrap_parameters(data, B=5, seed=4).thetas, want)

    @pytest.mark.parametrize("mode", ["shifted-only", "concat"])
    def test_shift_ensemble_rows_are_lone_fits(self, rng, monkeypatch, mode):
        # two dataset sizes alternate by trial, so the fits run in two size
        # groups and must come back in trial order
        shifted = [blobs(rng, n=60), blobs(rng, n=45)]
        original = blobs(rng, n=20) if mode == "concat" else None
        want = _lone_fits(shifted, [60, 45] * 3 + [60], seed=9, original=original)
        for floats in (1, estimation._CHUNK_FLOATS):
            monkeypatch.setattr(estimation, "_CHUNK_FLOATS", floats)
            ens = build_shift_ensemble(
                shifted, subsample=0.5, trials=7, seed=9, mode=mode, original=original
            )
            assert np.array_equal(ens.matrix(), want)


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
        belief = fit_mixture_moments(ParameterSample(T), K=1)
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
        belief = fit_mixture_moments(ParameterSample(T), K=1)
        assert np.array_equal(belief.components[0].cov, 1e-4 * np.eye(3))

    def test_identical_samples_leave_a_cluster_empty(self):
        # every k-means++ center lands on the one point, so one cluster
        # stays empty at every restart
        T = np.tile([1.0, 2.0, 3.0], (10, 1))
        with pytest.raises(EmptyCluster, match="after 50 restarts"):
            fit_mixture_moments(ParameterSample(T), K=2)

    def test_too_few_samples(self):
        T = np.ones((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(TooFewSamples):
            fit_mixture_moments(ParameterSample(T), K=4)
        with pytest.raises(TooFewSamples, match="K must be >= 1"):
            fit_mixture_moments(ParameterSample(T), K=0)
        with pytest.raises(TooFewSamples, match="at least 2 parameter samples"):
            ParameterSample(T[:1])

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
