"""Core domain types: feature vectors, classifiers, mixture beliefs, problems.

Conventions used throughout the package:

* Feature vectors live in R^d where the last coordinate is a constant bias
  coordinate fixed at 1, so linear classifiers are homogeneous
  (decision rule: favorable iff theta^T x >= 0).
* All types are immutable after construction; stored arrays are copied and
  marked read-only, so instances can be shared freely across threads.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadBudget,
    DimensionMismatch,
    InvalidWeights,
    NotPositiveDefinite,
)

WEIGHT_SUM_TOL = 1e-12
COV_SYMMETRY_TOL = 1e-10


class Cost(str, Enum):
    L1 = "l1"
    L2 = "l2"


class Mode(str, Enum):
    NONPARAMETRIC = "nonparametric"
    GAUSSIAN = "gaussian"
    WEIGHT_ROBUST = "weight_robust"
    WORST_COMPONENT = "worst_component"
    GAUSSIAN_WEIGHT_ROBUST = "gaussian_weight_robust"
    GAUSSIAN_WORST_COMPONENT = "gaussian_worst_component"


class Divergence(str, Enum):
    KL = "kl"
    CHI2 = "chi2"


def _frozen_array(values, dtype=float, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """A point in covariate space, last coordinate pinned to the bias value 1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        v = self.values
        if v.size < 2:
            raise DimensionMismatch("need at least one real feature plus the bias coordinate")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("feature vector has non-finite entries")
        if v[-1] != 1.0:
            raise DimensionMismatch(f"bias coordinate must equal 1, got {v[-1]}")

    @classmethod
    def from_features(cls, features) -> "FeatureVector":
        """Append the constant bias coordinate to a raw feature array."""
        feats = np.asarray(features, dtype=float).ravel()
        return cls(np.concatenate([feats, [1.0]]))

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def features(self) -> np.ndarray:
        """The real features, bias coordinate stripped."""
        return self.values[:-1]


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Parameter vector theta of the rule: favorable iff theta^T x >= 0."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_array(self.theta))
        if not np.all(np.isfinite(self.theta)):
            raise DimensionMismatch("classifier parameters must be finite")
        if not np.any(self.theta):
            raise DimensionMismatch("classifier parameters must not be all zero")

    @property
    def dim(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class ComponentMoments:
    """Nominal moments (mean, covariance) and ambiguity radius of one
    mixture component of the future model parameters."""

    mean: np.ndarray
    cov: np.ndarray
    radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
        if cov.shape[0] != self.mean.size:
            raise DimensionMismatch(
                f"mean has dimension {self.mean.size} but covariance is {cov.shape[0]}x{cov.shape[1]}"
            )
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(cov)):
            raise DimensionMismatch("component moments must be finite")
        with np.errstate(over="ignore"):  # a difference past the float range is inf, still > tol
            asym = np.abs(cov - cov.T).max()
        if asym > COV_SYMMETRY_TOL:
            raise NotPositiveDefinite(f"covariance asymmetric by {asym:.3e}")
        # symmetrize before the eigenvalue test; bootstrap covariances can be
        # asymmetric at roundoff level.  Halving first is exact outside
        # subnormals, so a finite sum gets the same bytes, and no sum overflows
        cov = 0.5 * cov + 0.5 * cov.T
        try:
            min_eig = float(np.linalg.eigvalsh(cov)[0])
        except np.linalg.LinAlgError as exc:  # entries near the float range
            raise NotPositiveDefinite(f"covariance eigenvalues: {exc}") from None
        if min_eig <= 0.0:
            raise NotPositiveDefinite(f"covariance has minimum eigenvalue {min_eig:.3e}")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius >= 0.0:
            raise BadBudget(f"ambiguity radius must be >= 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class MixtureBelief:
    """A K-component belief over future model parameters: per-component
    nominal moments plus mixture weights."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InvalidWeights("need at least one mixture component")
        if not all(isinstance(c, ComponentMoments) for c in comps):
            raise DimensionMismatch("components must be ComponentMoments instances")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        w = self.weights
        if w.size != len(comps):
            raise InvalidWeights(f"{len(comps)} components but {w.size} weights")
        if np.any(w < 0.0):
            raise InvalidWeights("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(f"weights sum to {w.sum()!r}, not 1")
        dims = {c.dim for c in comps}
        if len(dims) > 1:
            raise DimensionMismatch(f"components disagree on dimension: {sorted(dims)}")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def with_radius(self, radius) -> "MixtureBelief":
        """Copy of the belief with every ambiguity radius replaced.

        `radius` may be a scalar or one value per component."""
        radii = np.broadcast_to(np.asarray(radius, dtype=float), (self.n_components,))
        comps = tuple(
            ComponentMoments(c.mean, c.cov, r) for c, r in zip(self.components, radii)
        )
        return MixtureBelief(comps, self.weights)


@dataclass(frozen=True)
class ActionabilitySpec:
    """Which features may move, and how.

    immutable features are held at the input's value (the bias coordinate is
    always treated as immutable); non_decreasing features may only grow; box
    gives optional global per-feature [lo, hi] bounds as a (d, 2) array.
    Indices listed in both sets are treated as immutable.
    """

    immutable: frozenset = frozenset()
    non_decreasing: frozenset = frozenset()
    box: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "immutable", frozenset(int(i) for i in self.immutable))
        nd = frozenset(int(i) for i in self.non_decreasing) - self.immutable
        object.__setattr__(self, "non_decreasing", nd)
        if self.box is not None:
            box = np.array(self.box, dtype=float)
            if box.ndim != 2 or box.shape[1] != 2:
                raise DimensionMismatch(f"box must have shape (d, 2), got {box.shape}")
            if np.any(box[:, 0] > box[:, 1]):
                raise BadBudget("box has lo > hi for some feature")
            box.setflags(write=False)
            object.__setattr__(self, "box", box)

    def validate_indices(self, dim: int):
        for idx in self.immutable | self.non_decreasing:
            if not 0 <= idx < dim:
                raise DimensionMismatch(f"actionability index {idx} outside [0, {dim})")
        if self.box is not None and self.box.shape[0] != dim:
            raise DimensionMismatch(
                f"box covers {self.box.shape[0]} features but dimension is {dim}"
            )

    def with_bias_pinned(self, dim: int) -> "ActionabilitySpec":
        """Force the trailing bias coordinate into the immutable set."""
        if dim - 1 in self.immutable:
            return self
        return ActionabilitySpec(self.immutable | {dim - 1}, self.non_decreasing, self.box)


@dataclass(frozen=True, eq=False)
class RecourseProblem:
    """One recourse-generation instance: the input point, the belief about
    future model parameters, budgets and solver mode."""

    x0: FeatureVector
    belief: MixtureBelief
    delta: float
    margin: float = 1e-3
    cost: Cost = Cost.L1
    actionability: ActionabilitySpec = field(default_factory=ActionabilitySpec)
    mode: Mode = Mode.NONPARAMETRIC
    weight_budget: float = 0.0
    divergence: Divergence = Divergence.KL

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "weight_budget", float(self.weight_budget))
        object.__setattr__(self, "cost", Cost(self.cost))
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "divergence", Divergence(self.divergence))
        if not self.delta >= 0.0:
            raise BadBudget(f"delta must be >= 0, got {self.delta}")
        if not self.margin > 0.0:
            raise BadBudget(f"margin must be > 0, got {self.margin}")
        if not self.weight_budget >= 0.0:
            raise BadBudget(f"weight budget must be >= 0, got {self.weight_budget}")
        # pin the bias coordinate so cost and projections never move it
        object.__setattr__(
            self, "actionability", self.actionability.with_bias_pinned(self.x0.dim)
        )

    @property
    def dim(self) -> int:
        return self.x0.dim


@dataclass(frozen=True, eq=False)
class RecourseResult:
    """Solver output: the action, its worst-case probabilities and
    convergence diagnostics."""

    action: FeatureVector
    objective: float
    component_probs: np.ndarray
    iterations: int
    stationarity: float
    delta_min: float
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "component_probs", _frozen_array(self.component_probs))
        if not 0.0 <= self.objective <= 1.0:
            raise BadBudget(f"objective {self.objective} outside [0, 1]")
        if np.any(self.component_probs < 0.0) or np.any(self.component_probs >= 1.0):
            raise BadBudget("component probabilities must lie in [0, 1)")
        if not self.stationarity >= 0.0:
            raise BadBudget("stationarity measure must be >= 0")


def validate_problem(problem: RecourseProblem) -> RecourseProblem:
    """Check the cross-type invariants of `problem`; return it unchanged.

    Construction already enforces the per-type invariants (bias coordinate,
    positive definiteness, weights summing to one, budget signs) and the
    types are immutable, so only the checks that need the whole problem
    remain: consistent dimensions and actionability index ranges.
    Idempotent.
    """
    d = problem.x0.dim
    if problem.belief.dim != d:
        raise DimensionMismatch(
            f"x0 has dimension {d} but belief components have {problem.belief.dim}"
        )
    problem.actionability.validate_indices(d)
    return problem
