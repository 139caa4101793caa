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
import warnings
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
    validate_problem,
)
from .optimizer import SolverConfig, solve_block
from .optimizer import solve  # noqa: F401  re-exported: bench/run.py hooks it here


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
        shapes = [np.shape(v)[:1] for v in (self.mu0, self.mu1, self.sigma0, self.sigma1)]
        if len(set(shapes)) > 1:
            raise DimensionMismatch(f"means and covariances of the classes disagree: {shapes}")
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


# every character that str.isspace() accepts lies below U+3001
_BLANK = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + ',"'


def _cells(path, line_no: int, line: str) -> list:
    """The cells of one line; a csv.Error (before Python 3.11 a NUL byte) as ParseError."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ParseError(f"{path}:{line_no}: {exc}") from None


def _blank_line_is_row(path, line_no: int, line: str) -> bool:
    """Whether a line that strip(_BLANK) empties is a row: an open quote or a non-blank cell."""
    return line.count('"') % 2 == 1 or any(cell.strip() for cell in _cells(path, line_no, line))


def _table(rows, width: int, label_idx: int) -> np.ndarray:
    """The rows as an (n, width) array; ValueError unless all are numbers, labels finite."""
    with warnings.catch_warnings():  # rows that hold no data fail the shape test, unwarned
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(rows, delimiter=",", comments=None, quotechar='"', ndmin=2,
                           dtype=np.float64)
    if table.shape[1] != width or not np.isfinite(table[:, label_idx]).all():
        raise ValueError("not a table of numbers with finite labels")
    return table


def _table_without_blank_rows(path, lines, width: int, label_idx: int) -> np.ndarray:
    """_table over the lines after the header that are rows; else the first bad row as an error."""
    rows = [(n, line) for n, line in enumerate(lines[1:], start=2)
            if line.strip(_BLANK) or _blank_line_is_row(path, n, line)]
    if not rows:
        return np.empty((0, width))
    try:
        return _table([line for _, line in rows], width, label_idx)
    except ValueError:  # name the first row that is rejected on its own
        for line_no, line in rows:
            try:
                _table([line], width, label_idx)
            except ValueError:
                cells = _cells(path, line_no, line)
                kind = NonNumeric if len(cells) == width else ParseError
                raise kind(f"{path}:{line_no}: not {width} numbers with a finite label: {cells}")
        raise ParseError(f"{path}: a quoted cell runs across lines")


def load_csv(path, label_column: str, normalize: bool = False):
    """Read a dataset CSV: comma-delimited, one header row, cells may be
    double-quoted, rows whose cells are all blank are skipped, labels must
    be finite and are binarized as value > 0.5.  All rows after the header
    go to one loadtxt parse; only when it fails are the blank rows dropped
    and the rest parsed again, and when that fails too the first row that
    fails on its own raises ParseError or NonNumeric naming path:line.
    With normalize, features are min-max scaled to [0, 1] per column
    (constant columns map to zero) and the returned Normalization inverts
    the scaling.
    Returns (dataset, feature_names, normalization).
    """
    with open(path, errors="replace") as fh:  # a byte that is not text fails as a cell
        lines = fh.readlines()  # each keeps its newline, as a quoted cell needs
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in _cells(path, 1, lines[0])]
    if label_column not in header:
        raise MissingLabel(f"{path}: no column named {label_column!r} in header")
    label_idx = header.index(label_column)
    feat_names = [h for i, h in enumerate(header) if i != label_idx]
    width = len(header)
    try:  # loadtxt skips empty lines and rejects every other blank row
        table = _table(lines[1:], width, label_idx)
    except ValueError:
        table = _table_without_blank_rows(path, lines, width, label_idx)
    data = LabeledDataset(np.delete(table, label_idx, axis=1), table[:, label_idx] > 0.5)
    if not normalize:
        return data, feat_names, Normalization(np.zeros(width - 1), np.ones(width - 1))
    col_min = data.features.min(axis=0)
    col_range = data.features.max(axis=0) - col_min
    norm = Normalization(col_min, np.where(col_range <= 0.0, 1.0, col_range))
    return replace(data, features=norm.apply(data.features)), feat_names, norm


def save_dataset_csv(path, dataset: LabeledDataset):
    """Header f0,...,f{d-1},label, then per row each feature's shortest round-trip repr (exact
    on read), the 0/1 label, \\r\\n; no quoting: float reprs hold no comma, quote or newline."""
    header = ",".join([*(f"f{i}" for i in range(dataset.features.shape[1])), "label"])
    rows = zip(dataset.features.tolist(), dataset.labels.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *(",".join([*map(repr, r), str(y)]) for r, y in rows), ""]))


# --- shift-replay evaluation ---------------------------------------------------

ENSEMBLE_L2_REG = 1e-4  # the ridge of every ensemble classifier's logistic fit


def build_shift_ensemble(
    shifted,
    subsample: float = 0.2,
    trials: int = 100,
    seed: int = 0,
    mode: str = "shifted-only",
    original: LabeledDataset | None = None,
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
    thetas = _fit_subsamples(shifted, subsample, trials, seed, ENSEMBLE_L2_REG, prefix=extra)
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

    def __post_init__(self):
        if not self.delta_add >= 0.0:  # every budget must hold its cheapest point
            raise ValueError(f"delta_add must be >= 0, got {self.delta_add}")
        # pin the bias here once, not in each problem: the problems of the
        # belief's dimension then share this actionability
        object.__setattr__(self, "actionability",
                           self.actionability.with_bias_pinned(self.belief.dim))

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


def _delta_mins(template: ProblemTemplate, instances) -> tuple:
    """(specs, dmins): per instance, the FeasibleSetSpec of its feasible set
    without the cost ball (fz.FeasibleSetSpec.block, one call), or the
    RecourseError its bounds raise, and the pair (delta_min, the cheapest
    point) or the stringified failure; the distance programs run as one
    block (fz.min_cost_point).  Raises DimensionMismatch, before any spec is
    built, when the template does not fit the instances' dimension."""
    for x0 in {x0.dim: x0 for x0 in instances}.values():
        validate_problem(template.problem_for(x0, 0.0))
    if not instances:
        return [], []
    specs = fz.FeasibleSetSpec.block([x0.values for x0 in instances], template.belief,
                                     template.actionability, template.cost, template.margin)
    out = [_describe(s) if isinstance(s, RecourseError) else None for s in specs]
    rows = [i for i, d in enumerate(out) if d is None]
    for i, best in zip(rows, fz.min_cost_point([specs[i] for i in rows], template.config.proj_tol)):
        out[i] = _describe(best) if isinstance(best, RecourseError) else best
    return specs, out


def _solve_all(cells, instances):
    """Solve every instance whose delta_min is known, at delta_min +
    delta_add and from its cheapest point, for every cell in one
    solve_block call: all descents run in lock step.  cells are triples
    (template, specs, dmins), templates that differ at most in delta_add
    and the belief's radii, each with its _delta_mins of instances.
    Returns per cell (results, errors) as in generate_recourses, a failed
    delta_min passing through as the error."""
    out, problems, specs, cheapest, slots = [], [], [], [], []
    for c, (template, cell_specs, dmins) in enumerate(cells):
        out.append(([None] * len(instances), [d if isinstance(d, str) else None for d in dmins]))
        for i, d in enumerate(dmins):
            if not isinstance(d, str):
                problems.append(template.problem_for(instances[i], d[0] + template.delta_add))
                specs.append(cell_specs[i])
                cheapest.append(d)
                slots.append((c, i))
    answers = solve_block(problems, specs, cheapest, cells[0][0].config)
    for (c, i), answer in zip(slots, answers):
        results, errors = out[c]
        if isinstance(answer, RecourseError):
            errors[i] = _describe(answer)
        else:
            results[i] = answer
    return out


def generate_recourses(template: ProblemTemplate, instances, workers: int = 1):
    """Solve one problem per instance with delta = delta_min + delta_add.

    workers > 1 splits the instances into that many contiguous chunks, each
    solved as a block of its own in a worker process; the kernel and the
    projections work row by row, so the answers do not depend on the split.

    Returns (results, errors): results[i] is a RecourseResult or None;
    errors[i] is None or the stringified failure.  Output order follows the
    input order.
    """
    instances = list(instances)
    n, workers = len(instances), min(workers, len(instances))
    if workers > 1:
        chunks = [instances[k * n // workers : (k + 1) * n // workers] for k in range(workers)]
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(generate_recourses, [template] * workers, chunks))
        return [r for res, _ in parts for r in res], [e for _, err in parts for e in err]
    return _solve_all([(template, *_delta_mins(template, instances))], instances)[0]


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
    """One row per (delta_add, rho) grid point, rho-major: mean l1 cost and
    m2 validity of the recourses generated at that setting.  delta_min is
    computed once per rho and instance; then every (rho, delta_add,
    instance) problem of the grid is solved in one solve_block call, so
    the whole grid descends in lock step, each row giving the bytes of its
    lone solve.  Per-cell failures are recorded in the row and the sweep
    continues."""
    instances = list(instances)
    if not instances:
        raise EmptyInput("sweep needs at least one instance")
    deltas_add = list(deltas_add)
    rhos = list(rhos)
    if not deltas_add or not rhos:
        raise EmptyInput("sweep grids must be nonempty")
    cells = []
    for rho in rhos:
        tmpl_r = replace(template, belief=template.belief.with_radius(rho))
        # delta_min depends on rho but not on delta_add: compute once per instance
        specs, dmins = _delta_mins(tmpl_r, instances)
        cells += [(replace(tmpl_r, delta_add=delta_add), specs, dmins) for delta_add in deltas_add]
    grid = [(float(rho), float(delta_add)) for rho in rhos for delta_add in deltas_add]
    thetas_t = ensemble.matrix().T  # (d, trials), the same for every cell
    rows = []
    for (rho, delta_add), (results, errors) in zip(grid, _solve_all(cells, instances)):
        solved = [(r.action, x0) for r, x0 in zip(results, instances) if r is not None]
        notes = [e for e in errors if e is not None]
        if solved:
            Xr = np.array([r.values for r, _ in solved])
            X0 = np.array([x0.values for _, x0 in solved])
            l1 = float(np.abs(Xr[:, :-1] - X0[:, :-1]).sum(axis=1).mean())
            m2 = float((Xr @ thetas_t >= 0.0).mean())
        else:
            l1 = math.nan
            m2 = math.nan
        rows.append(
            FrontierRow(
                delta_add=delta_add,
                rho=rho,
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
