"""Estimating the belief over future model parameters from data.

Pipeline: retrain a logistic classifier on random subsamples (damped
Newton, batched over the subsamples of one size) to get a cloud of
parameter vectors, cluster the cloud, and read off per-cluster
weights, means and covariances.  For black-box models a local linear
surrogate (weighted ridge fit on perturbations around the query point)
stands in for the classifier parameters.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import (
    DegenerateScores,
    DimensionMismatch,
    EmptyCluster,
    NotConvergedWarning,
    TooFewSamples,
)
from .model import ComponentMoments, LinearClassifier, MixtureBelief


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Raw features (no bias column) with binary labels."""

    features: np.ndarray  # (n, d-1)
    labels: np.ndarray  # (n,) values in {0, 1}

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.array(self.labels, dtype=int)
        if X.ndim != 2:
            raise DimensionMismatch(f"features must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatch("labels must align with feature rows")
        if X.shape[0] < 10:
            raise DimensionMismatch(f"need at least 10 samples, got {X.shape[0]}")
        if not np.all(np.isfinite(X)):
            raise DimensionMismatch("features contain non-finite entries")
        if not set(np.unique(y)) <= {0, 1}:
            raise DimensionMismatch("labels must be 0/1")
        if len(np.unique(y)) < 2:
            raise DimensionMismatch("both classes must be present")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def augmented(self) -> np.ndarray:
        """Features with the constant bias column appended."""
        return np.hstack([self.features, np.ones((self.n, 1))])


@dataclass(frozen=True, eq=False)
class ParameterSample:
    """A cloud of classifier parameter vectors from repeated retraining."""

    thetas: np.ndarray  # (B, d)

    def __post_init__(self):
        T = np.array(self.thetas, dtype=float)
        if T.ndim != 2 or T.shape[0] < 2:
            raise TooFewSamples(f"need at least 2 parameter samples, got shape {T.shape}")
        T.setflags(write=False)
        object.__setattr__(self, "thetas", T)

    @property
    def size(self) -> int:
        return self.thetas.shape[0]


class BlackBoxModel(Protocol):
    """Anything that scores one bias-augmented point into [0, 1]."""

    def predict_proba(self, x: np.ndarray) -> float: ...


def train_logistic(
    data: LabeledDataset,
    l2_reg: float = 1e-4,
    max_iter: int = 100,
) -> LinearClassifier:
    """Fit theta by damped Newton on the regularized logistic loss (bias
    unregularized; l2_reg >= 0 keeps it convex), from theta = 0 to gradient
    sup-norm <= 1e-6 or max_iter steps.  Stopping short emits
    NotConvergedWarning and returns the last iterate, whose loss is no worse
    than at theta = 0.  The batched fits of bootstrap_parameters and
    harness.build_shift_ensemble give the same bits."""
    X, y = data.augmented()[None], data.labels[None]
    return LinearClassifier(_fit_logistic(X, y, l2_reg, max_iter)[0])


def _fit_logistic(X, y, l2_reg, max_iter):
    """Damped Newton on the regularized logistic loss of B problems at once:
    X (B, n, d) bias-augmented, y (B, n) in {0, 1}.  Each problem runs its
    own Armijo backtracking on the Newton decrement and stops on its own,
    so a row's theta is bitwise the same alone and in any stack.  Returns
    the (B, d) thetas; NotConvergedWarning names how many stopped short."""
    B, n, d = X.shape
    ypm = 2.0 * y - 1.0  # {-1, +1}
    reg = np.r_[np.full(d - 1, float(l2_reg)), 0.0]  # the bias is unregularized

    def loss(X, ypm, th):
        z = ypm * (X @ th[:, :, None])[:, :, 0]
        return np.logaddexp(0.0, -z).mean(axis=1) + 0.5 * (reg * th**2).sum(axis=1), z

    th = np.zeros((B, d))
    thetas, rows, converged = th.copy(), np.arange(B), 0  # rows: the problems still running
    f, z = loss(X, ypm, th)
    for it in range(max_iter + 1):
        s = 0.5 * (1.0 - np.tanh(0.5 * z))  # sigma(-z)
        g = reg * th - (X.transpose(0, 2, 1) @ (ypm * s)[:, :, None])[:, :, 0] / n
        run = np.abs(g).max(axis=1) > 1e-6
        thetas[rows[~run]] = th[~run]
        converged += int(np.count_nonzero(~run))
        X, ypm, th, f, s, g, rows = (a[run] for a in (X, ypm, th, f, s, g, rows))
        if it == max_iter or not rows.size:
            break
        H = (X.transpose(0, 2, 1) * (s * (1.0 - s))[:, None, :]) @ X / n + np.diag(reg)
        # solve with H scaled to a unit diagonal plus a ridge at rounding level:
        # any feature scale, and margins that all saturate, keep it invertible
        diag = np.diagonal(H, axis1=1, axis2=2)
        D = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        H = H * D[:, :, None] * D[:, None, :] + 1e-12 * np.eye(d)
        p = D * np.linalg.solve(H, (D * g)[:, :, None])[:, :, 0]
        dec = (g * p).sum(axis=1)
        t, retry = np.full(rows.size, 2.0), np.ones(rows.size, bool)
        while retry.any():  # halve each row's step from 1 until Armijo holds
            t[retry] *= 0.5
            cand = th - t[:, None] * p
            f_cand, z = loss(X, ypm, cand)
            ok = f_cand <= f - 0.25 * t * dec
            retry = ~ok & (t > 1e-9)
        thetas[rows[~ok]] = th[~ok]  # no step lowers the loss enough: stop short
        X, ypm, rows, th, f, z = X[ok], ypm[ok], rows[ok], cand[ok], f_cand[ok], z[ok]
    thetas[rows] = th
    if converged < B:
        warnings.warn(f"{B - converged} of {B} logistic fits stopped short", NotConvergedWarning)
    return thetas


def _subsample_indices(rng, n, size, labels, max_tries=50):
    for _ in range(max_tries):
        idx = rng.choice(n, size=size, replace=False)
        if len(np.unique(labels[idx])) == 2:
            return idx
    raise TooFewSamples("could not draw a subsample containing both classes")


_CHUNK_FLOATS = 2**15  # floats of stacked (rows, n, d) data fitted at once: bounds memory


def _fit_subsamples(datasets, fraction, trials, seed, l2_reg, max_iter=100, prefix=None):
    """Thetas (trials, d): trial t fits a `fraction` subsample of
    datasets[t % len(datasets)] (all of it if the fraction rounds to every
    row) drawn with child seed t, after the rows of prefix when given.
    Trials of one size are fitted together, in chunks of at most
    _CHUNK_FLOATS floats, each drawn just before it is fitted."""
    if not 0.0 < fraction <= 1.0:
        raise TooFewSamples(f"subsample fraction must lie in (0, 1], got {fraction}")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    sizes = [max(int(round(fraction * datasets[t % len(datasets)].n)), 2) for t in range(trials)]
    extra = 0 if prefix is None else prefix.n
    dim = datasets[0].features.shape[1] + 1
    thetas = np.empty((trials, dim))

    def draw(t):
        data = datasets[t % len(datasets)]
        X, y = data.features, data.labels
        if sizes[t] < len(y):
            idx = _subsample_indices(np.random.default_rng(seeds[t]), len(y), sizes[t], y)
            X, y = X[idx], y[idx]
        if prefix is not None:
            X, y = np.vstack([prefix.features, X]), np.concatenate([prefix.labels, y])
        return LabeledDataset(X, y)

    for n in dict.fromkeys(sizes):
        group = [t for t in range(trials) if sizes[t] == n]
        step = max(1, _CHUNK_FLOATS // ((n + extra) * dim))
        for chunk in (group[at:at + step] for at in range(0, len(group), step)):
            subs = [draw(t) for t in chunk]
            X = np.stack([sub.augmented() for sub in subs])
            thetas[chunk] = _fit_logistic(X, np.stack([sub.labels for sub in subs]), l2_reg, max_iter)
    return thetas


def bootstrap_parameters(
    data: LabeledDataset,
    B: int,
    subsample: float = 0.8,
    seed: int = 0,
    l2_reg: float = 1e-4,
    max_iter: int = 100,
) -> ParameterSample:
    """Train B classifiers on independent random subsamples (fraction
    `subsample` of the rows, drawn without replacement) and collect their
    parameter vectors.  Child seeds derive from the master seed, so the
    fits are order-independent and reproducible."""
    if B < 2:
        raise TooFewSamples(f"need B >= 2 retrains, got {B}")
    return ParameterSample(_fit_subsamples([data], subsample, B, seed, l2_reg, max_iter))


def _kmeans(points: np.ndarray, K: int, rng, max_restarts: int = 50, max_sweeps: int = 200):
    """Plain Lloyd iterations with seeded k-means++ init; re-initializes on
    empty clusters up to max_restarts times."""
    n = points.shape[0]
    for _ in range(max_restarts):
        # k-means++ seeding
        centers = [points[rng.integers(n)]]
        for _ in range(1, K):
            d2 = np.min(
                [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
            )
            total = d2.sum()
            if total <= 0.0:
                centers.append(points[rng.integers(n)])
                continue
            centers.append(points[rng.choice(n, p=d2 / total)])
        centers = np.array(centers)
        ok = True
        assign = None
        for _ in range(max_sweeps):
            dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dists.argmin(axis=1)
            if np.any(np.bincount(new_assign, minlength=K) == 0):
                ok = False
                break
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            centers = np.array([points[assign == k].mean(axis=0) for k in range(K)])
        if ok and assign is not None:
            return assign
    raise EmptyCluster(f"k-means kept producing empty clusters after {max_restarts} restarts")


def fit_mixture_moments(
    sample: ParameterSample, K: int, seed: int = 0, jitter: float = 1e-4
) -> MixtureBelief:
    """Cluster the parameter cloud into K groups and return the belief with
    per-cluster weights, means and covariances (+ jitter*I to keep them
    positive definite).  Ambiguity radii are left at zero; set them with
    MixtureBelief.with_radius.  Components come back in a canonical order
    (lexicographic by mean), so relabeling noise never leaks out."""
    if K < 1:
        raise TooFewSamples(f"K must be >= 1, got {K}")
    if sample.size < K:
        raise TooFewSamples(f"{sample.size} samples cannot fill {K} clusters")
    T = sample.thetas
    d = T.shape[1]
    if K == 1:
        assign = np.zeros(sample.size, dtype=int)
    else:
        assign = _kmeans(T, K, np.random.default_rng(seed))
    comps = []
    weights = []
    for k in range(K):
        members = T[assign == k]
        mean = members.mean(axis=0)
        cov = np.cov(members, rowvar=False, ddof=0).reshape(d, d) + jitter * np.eye(d)
        comps.append(ComponentMoments(mean, cov, 0.0))
        weights.append(members.shape[0] / sample.size)
    order = np.lexsort(np.array([c.mean for c in comps]).T[::-1])
    comps = tuple(comps[i] for i in order)
    weights = np.array(weights)[order]
    return MixtureBelief(comps, weights)


def prior_belief(theta0, tau: float = 0.1) -> MixtureBelief:
    """Single-component belief centered on the current classifier with an
    isotropic covariance tau*I, for when no training data is available."""
    theta0 = np.asarray(theta0, dtype=float)
    return MixtureBelief(
        (ComponentMoments(theta0, tau * np.eye(theta0.size), 0.0),), [1.0]
    )


def local_linear_surrogate(
    model: BlackBoxModel,
    x0,
    n_perturb: int = 1000,
    kernel_width: float | None = None,
    seed: int = 0,
    perturb_std: float = 0.3,
    ridge: float = 1e-3,
) -> LinearClassifier:
    """Fit a local linear stand-in for a black-box scorer around x0.

    Draws gaussian perturbations of the real features (std perturb_std per
    coordinate), scores them with the model, and solves a distance-weighted
    ridge regression of (score - 1/2) on the bias-augmented perturbations.
    The fitted coefficients act as classifier parameters: their decision
    boundary tracks the model's 1/2-level set near x0.
    """
    if n_perturb < 50:
        raise TooFewSamples(f"need at least 50 perturbations, got {n_perturb}")
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    feats0 = x0[:-1]
    if kernel_width is None:
        kernel_width = 0.75 * math.sqrt(d - 1)
    rng = np.random.default_rng(seed)
    Z = feats0 + perturb_std * rng.normal(size=(n_perturb, d - 1))
    Za = np.hstack([Z, np.ones((n_perturb, 1))])
    scores = np.array([float(model.predict_proba(row)) for row in Za])
    if scores.max() - scores.min() < 1e-12:
        raise DegenerateScores("model is constant on every perturbation")
    w = np.exp(-np.sum((Z - feats0) ** 2, axis=1) / kernel_width**2)
    A = Za.T @ (w[:, None] * Za) + ridge * np.eye(d)
    b = Za.T @ (w * (scores - 0.5))
    return LinearClassifier(np.linalg.solve(A, b))
