"""Synthetic shift generation, dataset I/O, shift-replay evaluation and
frontier sweeps.

The evaluation protocol replays model shifts: train one classifier per
shifted dataset subsample, then score each recourse by the fraction of
those classifiers that still accept it (m2), alongside validity under the
original classifier (m1) and the move's l1/l2 cost.
"""

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import feasibility as fz
from .errors import (
    DimensionMismatch,
    EmptyInput,
    MissingLabel,
    NonNumeric,
    ParseError,
    RecourseError,
)
from .estimation import LabeledDataset, _fit_subsamples
from .estimation import train_logistic  # noqa: F401  re-exported: bench/run.py hooks it here
from .model import (
    ActionabilitySpec,
    Cost,
    Divergence,
    FeatureVector,
    LinearClassifier,
    MixtureBelief,
    Mode,
    RecourseProblem,
)
from .optimizer import SolverConfig, solve


class ShiftKind(str, Enum):
    MEAN = "mean"
    COV = "cov"
    BOTH = "both"


@dataclass(frozen=True, eq=False)
class SyntheticConfig:
    """Two-gaussian synthetic data with progressive class-0 shifts.

    Shift i (1-based) moves the class-0 mean by [mu_adapt*i, 0] and/or
    scales the class-0 covariance by (1 + cov_adapt*i).
    """

    mu0: tuple = (-3.0, -3.0)
    mu1: tuple = (3.0, 3.0)
    sigma0: tuple = ((1.0, 0.0), (0.0, 1.0))
    sigma1: tuple = ((1.0, 0.0), (0.0, 1.0))
    n_per_class: int = 500
    shift_kind: ShiftKind = ShiftKind.MEAN
    mu_adapt: float = 0.1
    cov_adapt: float = 0.1
    n_shifts: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shift_kind", ShiftKind(self.shift_kind))
        if self.n_per_class < 10:
            raise DimensionMismatch("need at least 10 samples per class")
        for sig in (np.array(self.sigma0), np.array(self.sigma1)):
            if np.linalg.eigvalsh(0.5 * (sig + sig.T))[0] <= 0.0:
                raise DimensionMismatch("class covariances must be positive definite")


@dataclass(frozen=True, eq=False)
class ShiftEnsemble:
    """Classifiers retrained on (subsampled) shifted data."""

    classifiers: tuple

    def __post_init__(self):
        clfs = tuple(self.classifiers)
        if not clfs:
            raise EmptyInput("ensemble must contain at least one classifier")
        dims = {c.dim for c in clfs}
        if len(dims) > 1:
            raise DimensionMismatch(f"ensemble dimensions disagree: {sorted(dims)}")
        object.__setattr__(self, "classifiers", clfs)

    @property
    def size(self) -> int:
        return len(self.classifiers)

    def matrix(self) -> np.ndarray:
        return np.array([c.theta for c in self.classifiers])


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    m1_validity: float
    m2_validity: float
    l1_cost: float
    l2_cost: float
    per_instance: tuple  # rows of dicts: id, m1, m2, l1, l2
    runtime_seconds: float


def _draw_class(rng, mu, sigma, n):
    return rng.multivariate_normal(np.asarray(mu, float), np.asarray(sigma, float), size=n)


def generate_synthetic(config: SyntheticConfig):
    """Original dataset plus config.n_shifts progressively shifted ones.

    Every dataset gets its own child seed, so outputs are reproducible and
    independent of generation order.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_shifts + 1)

    def make(seed, mu0, sigma0):
        rng = np.random.default_rng(seed)
        X0 = _draw_class(rng, mu0, sigma0, config.n_per_class)
        X1 = _draw_class(rng, config.mu1, config.sigma1, config.n_per_class)
        X = np.vstack([X0, X1])
        y = np.concatenate(
            [np.zeros(config.n_per_class, int), np.ones(config.n_per_class, int)]
        )
        return LabeledDataset(X, y)

    original = make(seeds[0], config.mu0, config.sigma0)
    shifted = []
    mu0 = np.asarray(config.mu0, float)
    sigma0 = np.asarray(config.sigma0, float)
    for i in range(1, config.n_shifts + 1):
        alpha = config.mu_adapt * i
        beta = config.cov_adapt * i
        mu_i, sigma_i = mu0, sigma0
        if config.shift_kind in (ShiftKind.MEAN, ShiftKind.BOTH):
            shift_vec = np.zeros_like(mu0)
            shift_vec[0] = alpha
            mu_i = mu0 + shift_vec
        if config.shift_kind in (ShiftKind.COV, ShiftKind.BOTH):
            sigma_i = (1.0 + beta) * sigma0
        shifted.append(make(seeds[i], mu_i, sigma_i))
    return original, shifted


# --- CSV ingestion -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Normalization:
    """Per-column min/range of the raw features, for mapping recourses back
    to original units.  Constant columns carry range 1 (they normalize to
    zero)."""

    col_min: np.ndarray
    col_range: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.col_min) / self.col_range

    def invert(self, X: np.ndarray) -> np.ndarray:
        return X * self.col_range + self.col_min

    @classmethod
    def identity(cls, n_cols: int) -> "Normalization":
        return cls(np.zeros(n_cols), np.ones(n_cols))


def load_csv(path, label_column: str, normalize: bool = False):
    """Read a headed numeric CSV into a LabeledDataset.

    Labels are binarized by the rule value > 0.5 -> 1.  With normalize,
    features are min-max scaled to [0, 1] per column (constant columns map
    to zero) and the returned Normalization inverts the scaling.
    Returns (dataset, feature_names, normalization).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if label_column not in header:
            raise MissingLabel(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feat_names = [h for i, h in enumerate(header) if i != label_idx]
        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [float(cell) for i, cell in enumerate(row) if i != label_idx]
            except ValueError as exc:
                raise NonNumeric(f"{path}:{line_no}: {exc}")
            try:
                lab = float(row[label_idx])
            except ValueError as exc:
                raise NonNumeric(f"{path}:{line_no}: label: {exc}")
            if not math.isfinite(lab):
                raise NonNumeric(f"{path}:{line_no}: label {row[label_idx]!r} is not finite")
            rows.append(values)
            labels.append(1 if lab > 0.5 else 0)
    X = np.array(rows, dtype=float)
    y = np.array(labels, dtype=int)
    if normalize:
        col_min = X.min(axis=0)
        col_range = X.max(axis=0) - col_min
        constant = col_range <= 0.0
        col_range = np.where(constant, 1.0, col_range)
        norm = Normalization(col_min, col_range)
        X = norm.apply(X)
    else:
        norm = Normalization.identity(X.shape[1])
    return LabeledDataset(X, y), feat_names, norm


def save_dataset_csv(path, dataset: LabeledDataset, feat_names=None, label_column="label"):
    names = feat_names or [f"f{i}" for i in range(dataset.features.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, label_column])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([*(repr(float(v)) for v in row), int(lab)])


# --- shift-replay evaluation ---------------------------------------------------


def build_shift_ensemble(
    shifted,
    subsample: float = 0.2,
    trials: int = 100,
    seed: int = 0,
    mode: str = "shifted-only",
    original: LabeledDataset | None = None,
    l2_reg: float = 1e-4,
) -> ShiftEnsemble:
    """Train `trials` classifiers, each on a random `subsample` fraction of
    one shifted dataset (cycling through them by trial index).

    mode="concat" additionally concatenates the original training data to
    every subsample; mode="shifted-only" trains on the subsample alone.
    Raises TooFewSamples for a fraction outside (0, 1] or when 50 draws
    yield no subsample with both classes.
    """
    shifted = list(shifted)
    if not shifted:
        raise EmptyInput("need at least one shifted dataset")
    if mode not in ("shifted-only", "concat"):
        raise ValueError(f"unknown m2 mode {mode!r}")
    if mode == "concat" and original is None:
        raise EmptyInput("concat mode needs the original dataset")
    extra = original if mode == "concat" else None
    if len({data.features.shape[1] for data in [*shifted, extra] if data is not None}) > 1:
        raise DimensionMismatch("the datasets disagree in their number of features")
    thetas = _fit_subsamples(shifted, subsample, trials, seed, l2_reg, prefix=extra)
    return ShiftEnsemble(tuple(LinearClassifier(theta) for theta in thetas))


def evaluate(
    recourses,
    instances,
    original_clf: LinearClassifier,
    ensemble: ShiftEnsemble,
) -> EvaluationReport:
    """m1/m2 validity and mean costs of the recourses.

    m1: fraction of recourses accepted by the original classifier.
    m2: per recourse, the fraction of ensemble classifiers accepting it;
    reported as the mean over instances.  Costs are measured on the real
    features (bias coordinate excluded).
    """
    t_start = time.perf_counter()
    recourses = list(recourses)
    instances = list(instances)
    if not recourses or len(recourses) != len(instances):
        raise EmptyInput(
            f"got {len(recourses)} recourses for {len(instances)} instances"
        )
    Xr = np.array([r.values for r in recourses])
    X0 = np.array([r.values for r in instances])
    if Xr.shape != X0.shape:
        raise DimensionMismatch("recourse and instance dimensions disagree")
    m1_flags = (Xr @ original_clf.theta >= 0.0).astype(float)
    votes = (Xr @ ensemble.matrix().T >= 0.0).astype(float)  # (n, trials)
    m2_frac = votes.mean(axis=1)
    diffs = Xr[:, :-1] - X0[:, :-1]
    l1 = np.abs(diffs).sum(axis=1)
    l2 = np.sqrt((diffs**2).sum(axis=1))
    per_instance = tuple(
        {
            "id": i,
            "m1": float(m1_flags[i]),
            "m2": float(m2_frac[i]),
            "l1": float(l1[i]),
            "l2": float(l2[i]),
        }
        for i in range(len(recourses))
    )
    return EvaluationReport(
        m1_validity=float(m1_flags.mean()),
        m2_validity=float(m2_frac.mean()),
        l1_cost=float(l1.mean()),
        l2_cost=float(l2.mean()),
        per_instance=per_instance,
        runtime_seconds=time.perf_counter() - t_start,
    )


# --- batch generation and sweeps -----------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemTemplate:
    """Everything that defines a recourse problem except the instance:
    belief, budgets, mode, constraints and solver settings."""

    belief: MixtureBelief
    delta_add: float = 1.0
    margin: float = 1e-3
    cost: Cost = Cost.L1
    mode: Mode = Mode.NONPARAMETRIC
    weight_budget: float = 0.0
    divergence: Divergence = Divergence.KL
    actionability: ActionabilitySpec = field(default_factory=ActionabilitySpec)
    config: SolverConfig = field(default_factory=SolverConfig)

    def problem_for(self, x0: FeatureVector, delta: float) -> RecourseProblem:
        return RecourseProblem(
            x0=x0,
            belief=self.belief,
            delta=delta,
            margin=self.margin,
            cost=self.cost,
            actionability=self.actionability,
            mode=self.mode,
            weight_budget=self.weight_budget,
            divergence=self.divergence,
        )


def _describe(exc: RecourseError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _delta_mins(template: ProblemTemplate, instances) -> list:
    """Per instance, (delta_min, the cheapest point, the feasible-set spec)
    or the stringified failure; the distance programs run as one block
    (fz.min_cost_point)."""
    out = [None] * len(instances)
    specs, rows = [], []
    for i, x0 in enumerate(instances):
        try:
            specs.append(fz.FeasibleSetSpec.from_problem(template.problem_for(x0, 0.0)))
            rows.append(i)
        except RecourseError as exc:
            out[i] = _describe(exc)
    for i, spec, best in zip(rows, specs, fz.min_cost_point(specs, template.config.proj_tol)):
        out[i] = _describe(best) if isinstance(best, RecourseError) else (*best, spec)
    return out


def _solve_one(args):
    template, x0, dmin, start = args
    try:
        problem = template.problem_for(x0, dmin + template.delta_add)
        return solve(problem, template.config, known_delta_min=dmin, start=start), None
    except RecourseError as exc:
        return None, _describe(exc)


def _solve_all(template: ProblemTemplate, instances, dmins, workers: int = 1):
    """Solve every instance whose delta_min is known; (results, errors) as
    in generate_recourses, a failed delta_min passing through as the error.
    The starts are the block's: its cheapest points when delta_add is 0,
    else fz.project_starts, where solve projects a row that gets none."""
    results = [None] * len(instances)
    errors = [d if isinstance(d, str) else None for d in dmins]
    todo = [i for i, e in enumerate(errors) if e is None]
    if template.delta_add > 0.0:
        starts = fz.project_starts([dmins[i][2].with_delta(dmins[i][0] + template.delta_add)
                                    for i in todo], template.config.proj_tol)
    else:
        starts = [dmins[i][1] for i in todo]
    tasks = [(template, instances[i], dmins[i][0], s) for i, s in zip(todo, starts)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_solve_one, tasks)
    else:
        outcomes = map(_solve_one, tasks)
    for i, (res, err) in zip(todo, outcomes):
        results[i] = res
        errors[i] = err
    return results, errors


def generate_recourses(template: ProblemTemplate, instances, workers: int = 1):
    """Solve one problem per instance with delta = delta_min + delta_add.

    Returns (results, errors): results[i] is a RecourseResult or None;
    errors[i] is None or the stringified failure.  Output order follows the
    input order regardless of worker scheduling.
    """
    instances = list(instances)
    return _solve_all(template, instances, _delta_mins(template, instances), workers)


@dataclass(frozen=True)
class FrontierRow:
    delta_add: float
    rho: float
    mean_l1_cost: float
    m2_validity: float
    n_solved: int
    n_failed: int
    note: str = ""


def sweep_frontier(
    template: ProblemTemplate,
    instances,
    ensemble: ShiftEnsemble,
    deltas_add,
    rhos,
):
    """One row per (delta_add, rho) grid point: mean l1 cost and m2 validity
    of the recourses generated at that setting.  Per-cell failures are
    recorded in the row and the sweep continues."""
    instances = list(instances)
    if not instances:
        raise EmptyInput("sweep needs at least one instance")
    deltas_add = list(deltas_add)
    rhos = list(rhos)
    if not deltas_add or not rhos:
        raise EmptyInput("sweep grids must be nonempty")
    rows = []
    for rho in rhos:
        tmpl_r = replace(template, belief=template.belief.with_radius(rho))
        # delta_min depends on rho but not on delta_add: compute once per instance
        dmins = _delta_mins(tmpl_r, instances)
        for delta_add in deltas_add:
            results, errors = _solve_all(replace(tmpl_r, delta_add=delta_add), instances, dmins)
            solved = [(r.action, x0) for r, x0 in zip(results, instances) if r is not None]
            notes = [e for e in errors if e is not None]
            if solved:
                Xr = np.array([r.values for r, _ in solved])
                X0 = np.array([x0.values for _, x0 in solved])
                l1 = float(np.abs(Xr[:, :-1] - X0[:, :-1]).sum(axis=1).mean())
                m2 = float((Xr @ ensemble.matrix().T >= 0.0).mean())
            else:
                l1 = math.nan
                m2 = math.nan
            rows.append(
                FrontierRow(
                    delta_add=float(delta_add),
                    rho=float(rho),
                    mean_l1_cost=l1,
                    m2_validity=m2,
                    n_solved=len(solved),
                    n_failed=len(notes),
                    note="; ".join(sorted(set(notes)))[:200],
                )
            )
    return rows


def write_frontier_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["delta_add", "rho", "mean_l1_cost", "m2_validity", "n_solved", "n_failed", "note"]
        )
        for r in rows:
            writer.writerow(
                [
                    repr(r.delta_add),
                    repr(r.rho),
                    repr(r.mean_l1_cost),
                    repr(r.m2_validity),
                    r.n_solved,
                    r.n_failed,
                    r.note,
                ]
            )
