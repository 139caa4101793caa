"""Projected gradient descent with a spectral step and backtracking.

Each accepted step satisfies the sufficient-decrease condition

    f(Proj(x - s*grad)) <= f(x) - ||x - Proj(x - s*grad)||^2 / (2s),

with the step s shrunk geometrically from a trial step (s = trial *
lambda_ls^i for the smallest admissible integer i >= 0).  The first trial
is zeta, each later one the Barzilai-Borwein step of the last accepted
move: the monotone spectral projected gradient method (Barzilai & Borwein
1988; Birgin, Martinez & Raydan 2000).  A trial never moves farther than
the cost budget delta, whose ball holds the feasible set.  Iteration stops
early once the prox-stationarity measure

    ||x - Proj(x - zeta*grad(x))||_2 / zeta

drops below station_tol; the same measure, always at zeta, is reported as
a diagnostic of the returned point.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import feasibility as fz
from .errors import BudgetTooSmall, InfeasibleMargin
from .model import (
    FeatureVector,
    Mode,
    RecourseProblem,
    RecourseResult,
    validate_problem,
)
from .objective import (
    ObjectiveEval,
    eval_gaussian,
    eval_nonparametric,
    eval_weight_robust,
    eval_worst_component,
)

# bounds on the spectral trial step
STEP_MIN = 1e-10
STEP_MAX = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Line-search and stopping parameters.

    zeta is the first trial step of every descent and the fixed step at
    which stationarity is measured; later trial steps are spectral.
    restarts=1, the default, is the plain single-start procedure;
    restarts > 1 adds extra runs from randomly perturbed feasible starts
    and keeps the best objective.  finite_diff switches the gradient to
    central differences (debugging aid only).
    """

    lambda_ls: float = 0.7
    zeta: float = 1.0
    max_iter: int = 200
    station_tol: float = 1e-4
    max_backtracks: int = 50
    restarts: int = 1
    seed: int = 0
    finite_diff: bool = False
    proj_max_iter: int = 20000
    # keep projections well below station_tol^2: the line search compares
    # objective decrements of that order against projection-induced noise
    proj_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.lambda_ls < 1.0:
            raise ValueError(f"lambda_ls must lie in (0, 1), got {self.lambda_ls}")
        if not self.zeta > 0.0:
            raise ValueError(f"zeta must be positive, got {self.zeta}")
        if not self.station_tol > 0.0:
            raise ValueError(f"station_tol must be positive, got {self.station_tol}")
        if self.max_iter < 0 or self.max_backtracks < 0:
            raise ValueError(
                f"max_iter and max_backtracks must be >= 0, got {self.max_iter}, "
                f"{self.max_backtracks}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def make_objective(problem: RecourseProblem):
    """The evaluation function for problem.mode: x -> ObjectiveEval."""
    belief = problem.belief
    mode = problem.mode
    if mode is Mode.NONPARAMETRIC:
        return lambda x: eval_nonparametric(x, belief)
    if mode is Mode.GAUSSIAN:
        return lambda x: eval_gaussian(x, belief)
    if mode is Mode.WEIGHT_ROBUST:
        return lambda x: eval_weight_robust(
            x, belief, problem.weight_budget, problem.divergence, gaussian=False
        )
    if mode is Mode.GAUSSIAN_WEIGHT_ROBUST:
        return lambda x: eval_weight_robust(
            x, belief, problem.weight_budget, problem.divergence, gaussian=True
        )
    if mode is Mode.WORST_COMPONENT:
        return lambda x: eval_worst_component(x, belief, gaussian=False)
    if mode is Mode.GAUSSIAN_WORST_COMPONENT:
        return lambda x: eval_worst_component(x, belief, gaussian=True)
    raise ValueError(f"unknown mode {mode}")


def _with_finite_diff(fn, step: float = 1e-6):
    def wrapped(x):
        ev = fn(x)
        grad = np.empty_like(np.asarray(x, dtype=float))
        for i in range(grad.size):
            e = np.zeros_like(grad)
            e[i] = step
            grad[i] = (fn(x + e).value - fn(x - e).value) / (2.0 * step)
        return ObjectiveEval(ev.value, grad, ev.component_values, ev.inner_dual)

    return wrapped


def _prox_step(x, grad, proj, zeta: float):
    """The projected step Proj(x - zeta*grad) and the prox-stationarity
    measure ||x - Proj(x - zeta*grad)||_2 / zeta it yields."""
    cand = proj(x - zeta * grad)
    diff = x - cand  # the norm as np.linalg.norm computes it, without its overhead
    return cand, math.sqrt(float(diff @ diff)) / zeta


def _spectral_step(s, y, grad, budget) -> float:
    """Barzilai-Borwein trial step (s.s)/(s.y), clamped to [STEP_MIN, cap]
    and the cap when s.y <= 0; the cap keeps trial*||grad|| within budget,
    or is STEP_MAX without one."""
    gnorm = math.sqrt(float(grad @ grad))
    cap = STEP_MAX if budget is None or gnorm == 0.0 else min(STEP_MAX, budget / gnorm)
    sy = float(s @ y)
    return max(STEP_MIN, min(float(s @ s) / sy, cap) if sy > 0.0 else cap)


def pgd_minimize(fn, proj, config: SolverConfig, x_start, callback=None, *, budget=None):
    """Run the descent from x_start, a point of the feasible set, which is
    not projected again; fn(x) -> object with .value/.gradient.  budget,
    the cost budget delta, caps the trial steps.

    Returns (x, value, eval, iterations, converged, stationarity).
    """
    x = np.asarray(x_start, dtype=float)
    ev = fn(x)
    if callback is not None:
        callback(0, x, ev.value)
    iterations = 0
    converged = False
    trial = config.zeta
    for t in range(config.max_iter):
        base_cand, station = _prox_step(x, ev.gradient, proj, config.zeta)
        if station <= config.station_tol:
            converged = True
            break
        accepted = None
        for i in range(config.max_backtracks + 1):
            step = trial * config.lambda_ls**i
            reuse = i == 0 and trial == config.zeta
            cand = base_cand if reuse else proj(x - step * ev.gradient)
            try:
                cand_ev = fn(cand)
            except InfeasibleMargin:
                continue
            dist2 = float(np.sum((x - cand) ** 2))
            if cand_ev.value <= ev.value - dist2 / (2.0 * step):
                accepted = (cand, cand_ev)
                break
        if accepted is None:
            # line search stalled: keep the current iterate, flag non-convergence
            break
        trial = _spectral_step(
            accepted[0] - x, accepted[1].gradient - ev.gradient, accepted[1].gradient, budget
        )
        x, ev = accepted
        iterations = t + 1
        if callback is not None:
            callback(iterations, x, ev.value)
    else:
        # the iteration cap (or max_iter == 0) left the last point unmeasured
        station = _prox_step(x, ev.gradient, proj, config.zeta)[1]
        converged = station <= config.station_tol
    return x, ev.value, ev, iterations, converged, station


def solve(
    problem: RecourseProblem,
    config: SolverConfig | None = None,
    *,
    cheapest=None,
    callback=None,
) -> RecourseResult:
    """End-to-end solve: validate, check the budget against delta_min and
    run the descent from the cheapest point.

    A budget that passes the check is at least delta_min, so the point
    that attains delta_min lies in the feasible set and every descent
    starts there.  A budget pinned at delta_min (fz.budget_pinned, which
    also takes the 1e-9 the check forgives) leaves no room to move: that
    point is the answer.  A perturbed restart starts at the projection
    of its perturbed input.

    cheapest, the pair (delta_min, the cheapest point) that fz.min_cost_point
    gives for the problem, skips the distance program when the caller
    already solved it, as generate_recourses does for a whole block; a lone
    solve returns the same bytes.  callback(iteration, x, value) fires on
    the start point and on every accepted step of every restart.
    """
    config = config or SolverConfig()
    validate_problem(problem)
    spec = fz.FeasibleSetSpec.from_problem(problem)
    if cheapest is None:
        cheapest = fz.delta_min(spec, proj_tol=config.proj_tol, with_point=True)
    dmin, start = cheapest
    if problem.delta < dmin - 1e-9:
        raise BudgetTooSmall(f"delta={problem.delta} is below delta_min={dmin}")

    fn = make_objective(problem)
    if config.finite_diff:
        fn = _with_finite_diff(fn)

    def proj(y):
        return fz.project_feasible(y, spec, config.proj_max_iter, config.proj_tol)

    if fz.budget_pinned(problem.delta, dmin):
        ev = fn(start)
        best = (start, ev.value, ev, 0, True, 0.0)
    else:
        scale, size = 0.25 * max(problem.delta, problem.margin), spec.x0.size
        perturbed = (proj(spec.x0 + np.random.default_rng(seed).normal(scale=scale, size=size))
                     for seed in np.random.SeedSequence(config.seed).spawn(config.restarts - 1))
        # the first run of least value wins
        best = min((pgd_minimize(fn, proj, config, x, callback, budget=problem.delta)
                    for x in chain([start], perturbed)), key=lambda run: run[1])
    x, value, ev, iterations, converged, station = best

    return RecourseResult(
        action=FeatureVector(x),
        objective=float(min(max(value, 0.0), 1.0)),
        component_probs=ev.component_values,
        iterations=iterations,
        stationarity=station,
        delta_min=dmin,
        converged=converged,
    )


def stationarity(x, problem: RecourseProblem, config: SolverConfig | None = None) -> float:
    """Prox-stationarity measure ||x - Proj(x - zeta*grad f(x))||_2 / zeta."""
    config = config or SolverConfig()
    spec = fz.FeasibleSetSpec.from_problem(problem)
    fn = make_objective(problem)
    x = np.asarray(x, dtype=float)

    def proj(y):
        return fz.project_feasible(y, spec, config.proj_max_iter, config.proj_tol)

    return _prox_step(x, fn(x).gradient, proj, config.zeta)[1]
