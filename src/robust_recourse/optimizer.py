"""Projected gradient descent with a spectral step and backtracking, run
in lock step over the rows of a block.

Each accepted step satisfies the sufficient-decrease condition

    f(Proj(x - s*grad)) <= f(x) - ||x - Proj(x - s*grad)||^2 / (2s),

with the step s shrunk geometrically from a trial step (s = trial *
lambda_ls^i for the smallest admissible integer i >= 0).  The first trial
is zeta, at most STEP_MAX, each later one the Barzilai-Borwein step of
the last accepted move, clamped to [STEP_MIN, STEP_MAX]: the monotone
spectral projected gradient method (Barzilai & Borwein 1988; Birgin,
Martinez & Raydan 2000).  grad is the analytic gradient that
objective.evaluate returns.  A trial never moves farther than 2*delta,
the diameter of the cost ball that holds the feasible set, so no two
feasible points lie farther apart.  A trial beyond the row's reach,
max(zeta, delta/||grad||), is a candidate only if the projection's
lock-step first cycle closes it (RowProjection); otherwise it is rejected
like a failed decrease, unprojected, where a nearer one would go on to
the projection program in the conic kernel.  Iteration stops early once
the prox-stationarity measure

    ||x - Proj(x - zeta*grad(x))||_2 / zeta

drops below station_tol; the same measure, always at zeta, is reported as
a diagnostic of the returned point.

_descend runs it over the rows of a block in lock step, each row with its
own trial step, backtrack counter and retirement flag, every operation
row-wise, so a row's answer is the same alone and in a block.
solve_block, solve and pgd_minimize all run it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import feasibility as fz
from . import objective
from .errors import BudgetTooSmall, InfeasibleMargin, RecourseError
from .model import FeatureVector, Mode, RecourseProblem, RecourseResult, validate_problem
from .objective import eval_gaussian, eval_nonparametric, eval_weight_robust, eval_worst_component

# bounds on the spectral trial step
STEP_MIN = 1e-10
STEP_MAX = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Line-search and stopping parameters.

    zeta, at most STEP_MAX, is the first trial step of every descent and
    the fixed step at which stationarity is measured; later trial steps
    are spectral.
    restarts=1, the default, is the plain single-start procedure;
    restarts > 1 adds extra runs from randomly perturbed feasible starts
    and keeps the best objective.
    """

    lambda_ls: float = 0.7
    zeta: float = 1.0
    max_iter: int = 200
    station_tol: float = 1e-4
    max_backtracks: int = 50
    restarts: int = 1
    seed: int = 0
    # only False, the gradient being analytic; kept because bench/workloads.py sets it
    finite_diff: bool = False
    # not read: a projection runs no cycles; bench/workloads.py sets it
    proj_max_iter: int = 20000
    # the tolerance at which an input already counts as feasible (delta_min 0)
    proj_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.lambda_ls < 1.0:
            raise ValueError(f"lambda_ls must lie in (0, 1), got {self.lambda_ls}")
        if not 0.0 < self.zeta <= STEP_MAX:
            raise ValueError(f"zeta must lie in (0, {STEP_MAX:g}], got {self.zeta}")
        if not self.station_tol > 0.0:
            raise ValueError(f"station_tol must be positive, got {self.station_tol}")
        if self.max_iter < 0 or self.max_backtracks < 0:
            raise ValueError(
                f"max_iter and max_backtracks must be >= 0, got {self.max_iter}, "
                f"{self.max_backtracks}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.finite_diff:
            raise ValueError("finite_diff is not supported: the gradient is analytic")


def make_objective(problem: RecourseProblem):
    """The evaluation function for problem.mode: x -> ObjectiveEval."""
    b, eps, div = problem.belief, problem.weight_budget, problem.divergence
    return {
        Mode.NONPARAMETRIC: lambda x: eval_nonparametric(x, b),
        Mode.GAUSSIAN: lambda x: eval_gaussian(x, b),
        Mode.WEIGHT_ROBUST: lambda x: eval_weight_robust(x, b, eps, div),
        Mode.GAUSSIAN_WEIGHT_ROBUST: lambda x: eval_weight_robust(x, b, eps, div, gaussian=True),
        Mode.WORST_COMPONENT: lambda x: eval_worst_component(x, b),
        Mode.GAUSSIAN_WORST_COMPONENT: lambda x: eval_worst_component(x, b, gaussian=True),
    }[problem.mode]


def _rows_objective(problem: RecourseProblem, radii):
    """(X, rows) -> (values, grads, component values, errors) of problem's
    objective at the rows of X, row i with the ambiguity radii
    radii[rows[i]]; the belief's arrays are built once, here."""
    means, covs, _ = objective.moments(problem.belief)

    def fn(X, rows):
        return objective.evaluate(X, means, covs, radii[rows], problem.belief.weights,
                                  problem.mode, problem.weight_budget, problem.divergence)

    return fn


def _spectral_step(s, y, grad, budget, zeta):
    """Barzilai-Borwein trial steps (s.s)/(s.y) per row, clamped to [STEP_MIN,
    cap], and cap where s.y <= 0: trial*||grad|| <= 2*budget, the cost
    ball's diameter, cap <= STEP_MAX.  Also each row's reach, max(zeta,
    budget/||grad||): the steps that move at most budget, or zeta."""
    gnorm = np.sqrt(np.add.reduce(grad * grad, -1))
    sy = np.add.reduce(s * y, -1)
    # budget/gnorm is inf at a zero gradient or a huge budget, NaN at 0/0:
    # fmin and fmax take the other operand there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reach = budget / gnorm
        cap = np.fmin(STEP_MAX, 2.0 * reach)
        spectral = np.minimum(np.add.reduce(s * s, -1) / sy, cap)
    return np.maximum(STEP_MIN, np.where(sy > 0.0, spectral, cap)), np.fmax(zeta, reach)


def _descend(fn, proj, config: SolverConfig, X, budget, callback=None, skip=None):
    """The descent from every row of X, a point of its feasible set, in
    lock step; rows in skip are only evaluated.  fn(X, rows) -> (values,
    grads, aux, errors) evaluates the objectives of the given rows at the
    rows of X, aux any per-row array kept with the accepted points;
    proj(Y, rows, far) -> (points, errors) projects Y onto the sets of the
    given rows; errors map a position in the call to its RecourseError, or
    to None where proj rejects a far trial (far, None or a mask over the
    positions, marks the trials beyond their row's reach).  A round calls
    each once: rows that start an iteration project x - zeta*grad to
    measure stationarity, with their trial if it is not zeta, and rows
    still searching evaluate their candidates.  InfeasibleMargin or a
    rejected far trial rejects a candidate, any other error retires its
    row.  budget (inf for none) caps each row's trial steps.
    callback(iteration, x, value) fires on each start and accepted step.

    Returns (X, values, aux, iterations, converged, stationarity, errors).
    """
    X = np.array(X, dtype=float)
    N, zeta, tol, max_iter = len(X), config.zeta, config.station_tol, config.max_iter
    powers = np.array([config.lambda_ls**i for i in range(config.max_backtracks + 1)])
    powers = powers[powers > 0.0]  # a step that underflows to 0 can pass no decrease test
    values, G, aux, errors = fn(X, np.arange(N))
    errors = dict(errors)
    iterations, backtracks = np.zeros(N, int), np.zeros(N, int)
    station, trial, converged = np.zeros(N), np.full(N, zeta), np.zeros(N, bool)
    reach = np.full(N, zeta)  # a longer trial is far
    alive = np.ones(N, bool) if skip is None else ~skip
    alive[list(errors)] = False
    live = alive.nonzero()[0]  # the rows still searching, carried from round to round
    if callback is not None:
        for i in live.tolist():
            callback(0, X[i].copy(), float(values[i]))
    C = np.empty_like(X)  # each row's candidate
    while live.size:
        b = backtracks[live]
        new = live[b == 0]
        fresh = live[(b > 0) | ((trial[live] != zeta) & (iterations[live] < max_iter))]
        step, Xn, m = trial[fresh] * powers[backtracks[fresh]], X[new], new.size
        targets = np.concatenate([new, fresh])
        far = step > reach[fresh]
        P, errs = proj(np.concatenate([Xn - zeta * G[new], X[fresh] - step[:, None] * G[fresh]]),
                       targets, np.concatenate([np.zeros(m, bool), far]) if far.any() else None)
        C[new], C[fresh] = P[:m], P[m:]
        diff = Xn - P[:m]
        station[new] = st = np.sqrt(np.add.reduce(diff * diff, -1)) / zeta
        # a row ends at stationarity or at the iteration cap, where it is measured last
        ends = (st <= tol) | (iterations[new] >= max_iter)
        if errs:
            targets = targets.tolist()
            for j, exc in errs.items():  # a failed measuring projection retires its row
                if j < m:
                    errors[targets[j]], alive[targets[j]] = exc, False
            ends &= alive[new]
        ended = new[ends]
        converged[ended], alive[ended] = st[ends] <= tol, False
        rejected = []
        for j, exc in errs.items():  # and a failed trial projection a row still searching
            if exc is None:
                rejected.append(targets[j])
            elif alive[targets[j]]:
                errors[targets[j]], alive[targets[j]] = exc, False
        rows = tried = live[alive[live]]
        if not rows.size:
            break
        if rejected:  # a rejected far trial fails, unevaluated
            backtracks[rejected] += 1
            tried = rows[~np.isin(rows, rejected)]
        cand, step = C[tried], trial[tried] * powers[backtracks[tried]]
        cand_values, cand_G, cand_aux, errs = fn(cand, tried)
        diff = X[tried] - cand
        ok = cand_values <= values[tried] - np.add.reduce(diff * diff, -1) / (2.0 * step)
        for j, exc in errs.items():
            ok[j] = False
            if not isinstance(exc, InfeasibleMargin):
                errors[int(tried[j])], alive[tried[j]] = exc, False
        a, ca, cg = tried[ok], cand[ok], cand_G[ok]
        trial[a], reach[a] = _spectral_step(ca - X[a], cg - G[a], cg, budget[a], zeta)
        X[a], values[a], G[a], aux[a] = ca, cand_values[ok], cg, cand_aux[ok]
        iterations[a] += 1
        backtracks[a] = 0
        # the rest try a shorter step; a row out of trials has stalled and
        # keeps its iterate, unconverged
        backtracks[tried[~ok]] += 1
        keep = backtracks[rows] < powers.size
        live = rows[keep & alive[rows] if errs else keep]
        if callback is not None:
            for r in a.tolist():
                callback(int(iterations[r]), X[r].copy(), float(values[r]))
    return X, values, aux, iterations, converged, station, errors


def pgd_minimize(fn, proj, config: SolverConfig, x_start, callback=None):
    """The one-row _descend from x_start, a feasible point, not projected
    again, with no cap on the trial steps; fn(x) -> object with
    .value/.gradient, proj(y) -> projection, of far trials too.  Returns
    (x, value, eval, iterations, converged, stationarity)."""
    def rows_fn(X, _):
        aux = np.empty(1, dtype=object)
        try:
            aux[0] = ev = fn(X[0])
        except RecourseError as exc:
            return np.zeros(1), np.zeros_like(X), aux, {0: exc}
        return np.array([ev.value], dtype=float), np.array([ev.gradient], dtype=float), aux, {}

    X, values, aux, iterations, converged, station, errors = _descend(
        rows_fn, lambda Y, rows, far: (np.array([proj(y) for y in Y], dtype=float), {}), config,
        np.asarray(x_start, dtype=float)[None], np.array([math.inf]),
        callback)
    if errors:
        raise errors[0]
    return X[0], float(values[0]), aux[0], int(iterations[0]), bool(converged[0]), float(station[0])


def solve_block(problems, spec, cheapest, config: SolverConfig | None = None, *,
                callback=None):
    """Solve the problems of one template, which differ only in x0, delta,
    actionability and ambiguity radii, in lock step: per problem, its
    RecourseResult or the RecourseError that solving it raised.  Row i of
    spec is problem i's feasible set (its delta is not read), cheapest[i]
    its pair (delta_min, the cheapest point) as fz.min_cost_point gives
    it.  Each delta is at least delta_min, within fz.budget_slack (solve
    checks it, a template's delta_add >= 0 ensures it): the descent starts
    at the cheapest point, the answer when delta is pinned at delta_min
    (fz.budget_pinned).  The belief's means and covariances come from the
    first problem, each row's radii from its own.  With restarts > 1, each
    other problem also runs from the projections of its input plus seeded
    noise, the same seeds for every problem; the first run of least value
    wins, an error in any run is the problem's.  callback(iteration, x,
    value) fires on every run's start and accepted steps.
    """
    config = config or SolverConfig()
    n = len(problems)
    if not n:
        return []
    pinned = [fz.budget_pinned(p.delta, dmin) for p, (dmin, _) in zip(problems, cheapest)]
    free = [i for i, pin in enumerate(pinned) if not pin]
    # row i < n starts problem i at its cheapest point; the rows after
    # them start the perturbed runs 1, 2, ... of the free problems
    rows = list(range(n)) + free * (config.restarts - 1)
    proj = fz.RowProjection(spec.take(rows, [problems[i].delta for i in rows]))
    starts, skip = np.array([cheapest[i][1] for i in rows]), np.zeros(len(rows), bool)
    skip[:n], failed = pinned, {}
    if len(rows) > n:
        seeds = np.random.SeedSequence(config.seed).spawn(config.restarts - 1)
        P, errs = proj(np.array([spec.x0[i] + np.random.default_rng(seeds[k // len(free)]).normal(
            scale=0.25 * max(problems[i].delta, problems[i].margin), size=spec.x0.shape[1])
            for k, i in enumerate(rows[n:])]), np.arange(n, len(rows)))
        failed = {n + j: exc for j, exc in errs.items()}  # these runs end in their error
        skip[list(failed)] = True
        starts[n:][~skip[n:]] = P[~skip[n:]]
    X, values, comps, iterations, converged, station, errors = _descend(
        _rows_objective(problems[0], proj.radii), proj, config, starts, proj.delta, callback, skip)
    converged[:n] |= pinned
    errors.update(failed)
    runs = [[i] for i in range(n)]
    for k, i in enumerate(rows[n:], n):
        runs[i].append(k)
    out = []
    for i, ks in enumerate(runs):
        k = min(ks, key=lambda k: values[k])  # the first run of least value
        try:
            out.append(next((errors[k] for k in ks if k in errors), None) or RecourseResult(
                FeatureVector(X[k]), float(min(max(values[k], 0.0), 1.0)), comps[k],
                int(iterations[k]), float(station[k]), cheapest[i][0], bool(converged[k])))
        except RecourseError as exc:
            out.append(exc)
    return out


def solve(problem: RecourseProblem, config: SolverConfig | None = None, *,
          callback=None) -> RecourseResult:
    """solve_block of the one problem, whose checks it makes first: raises
    the spec's error, the distance program's or BudgetTooSmall, then the
    descent's."""
    config = config or SolverConfig()
    spec = fz.FeasibleSetSpec.from_problem(validate_problem(problem))
    [best] = fz.min_cost_point(spec, config.proj_tol)
    if isinstance(best, RecourseError):
        raise best
    if problem.delta < best[0] - fz.budget_slack(best[0]):
        raise BudgetTooSmall(f"delta={problem.delta} is below delta_min={best[0]}")
    [out] = solve_block([problem], spec, [best], config, callback=callback)
    if isinstance(out, RecourseError):
        raise out
    return out


def stationarity(x, problem: RecourseProblem, config: SolverConfig | None = None) -> float:
    """Prox-stationarity measure ||x - Proj(x - zeta*grad f(x))||_2 / zeta,
    as the descent measures it (pgd_minimize with no iteration)."""
    config = replace(config or SolverConfig(), max_iter=0)
    spec = fz.FeasibleSetSpec.from_problem(problem)
    return pgd_minimize(make_objective(problem), lambda y: fz.project_feasible(y, spec),
                        config, x)[5]
