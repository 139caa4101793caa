"""Feasible action set and Euclidean projection onto it.

The feasible set intersects three kinds of convex sets around the input x0:

* a cost ball  c(x, x0) <= delta  with c either l1 or l2,
* one robust-margin set per belief component,
      theta_k^T x - rho_k * ||x||_2 >= margin        (a second-order cone slice),
* an actionability box (immutable coordinates pinned, non-decreasing
  coordinates bounded below, optional global bounds).

Projection onto the intersection uses Dykstra's alternating projections
(with correction terms, so the limit is the exact Euclidean projection, not
just some feasible point), with a direct solve of the projection program as
the backstop for geometries the cycles cannot resolve numerically.  Each
margin set is projected onto by bisecting the KKT multiplier of its single
constraint.  delta_min, the smallest cost budget that keeps the
intersection nonempty, is the c-distance from x0 to the margin-and-bounds
set: one run of the same program, with the cost as objective, started at
x0.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDirection,
    EmptyFeasibleSet,
    MaxIterExceeded,
    Unattainable,
)
from .model import Cost, RecourseProblem


@dataclass(frozen=True, eq=False)
class FeasibleSetSpec:
    """Arrays describing the feasible set; delta=None drops the cost ball."""

    x0: np.ndarray
    delta: float | None
    cost: Cost
    margin: float
    thetas: np.ndarray  # (K, d) component mean directions
    radii: np.ndarray  # (K,) ambiguity radii
    lower: np.ndarray  # (d,) actionability lower bounds
    upper: np.ndarray  # (d,) actionability upper bounds

    @classmethod
    def from_problem(cls, problem: RecourseProblem) -> "FeasibleSetSpec":
        x0 = np.array(problem.x0.values, dtype=float)
        d = x0.size
        act = problem.actionability
        lower = np.full(d, -np.inf)
        upper = np.full(d, np.inf)
        if act.box is not None:
            lower = np.maximum(lower, act.box[:, 0])
            upper = np.minimum(upper, act.box[:, 1])
        for i in act.non_decreasing:
            lower[i] = max(lower[i], x0[i])
        for i in act.immutable:
            lower[i] = upper[i] = x0[i]
        if np.any(lower > upper):
            raise EmptyFeasibleSet("actionability bounds exclude the input point")
        thetas = np.array([c.mean for c in problem.belief.components], dtype=float)
        radii = np.array([c.radius for c in problem.belief.components], dtype=float)
        return cls(
            x0=x0,
            delta=float(problem.delta),
            cost=problem.cost,
            margin=float(problem.margin),
            thetas=thetas,
            radii=radii,
            lower=lower,
            upper=upper,
        )

    @cached_property
    def tts(self) -> np.ndarray:
        """theta_k^T theta_k per component."""
        return np.einsum("kd,kd->k", self.thetas, self.thetas)

    def empty_margin_sets(self) -> list:
        """Components whose margin set is empty: radius at least ||theta_k||."""
        return np.nonzero((self.radii > 0.0) & (self.radii**2 >= self.tts))[0].tolist()

    def without_delta(self) -> "FeasibleSetSpec":
        return replace(self, delta=None)

    def with_delta(self, delta: float) -> "FeasibleSetSpec":
        return replace(self, delta=float(delta))


def cost_of(x, x0, cost: Cost) -> float:
    diff = np.asarray(x, dtype=float) - np.asarray(x0, dtype=float)
    if Cost(cost) is Cost.L1:
        return float(np.abs(diff).sum())
    return float(np.linalg.norm(diff))


def margin_slacks(x, spec: FeasibleSetSpec) -> np.ndarray:
    """theta_k^T x - rho_k ||x|| - margin per component; >= 0 means satisfied."""
    x = np.asarray(x, dtype=float)
    return spec.thetas @ x - spec.radii * np.linalg.norm(x) - spec.margin


def is_feasible(x, spec: FeasibleSetSpec, tol: float = 1e-8) -> bool:
    """Membership test for the full intersection, all constraints within tol."""
    x = np.asarray(x, dtype=float)
    if spec.delta is not None and cost_of(x, spec.x0, spec.cost) > spec.delta + tol:
        return False
    if np.any(margin_slacks(x, spec) < -tol):
        return False
    if np.any(x < spec.lower - tol) or np.any(x > spec.upper + tol):
        return False
    return True


# --- single-set projections ---------------------------------------------------


def _shrink(v: np.ndarray, s: float) -> np.ndarray:
    nv = float(np.linalg.norm(v))
    if nv <= s:
        return np.zeros_like(v)
    return (1.0 - s / nv) * v


def _project_cone_known(xp, theta, rho: float, tt: float, margin: float) -> np.ndarray:
    """project_cone with theta^T theta pre-computed and emptiness pre-checked."""
    xx = float(xp @ xp)
    xt = float(theta @ xp)
    if rho * math.sqrt(xx) - xt <= -margin:
        return xp
    if rho == 0.0:
        # halfspace theta^T y >= margin
        return xp + ((margin - xt) / tt) * theta

    def violation(mu: float) -> float:
        # ||v|| and theta^T v for v = xp + mu*theta, then shrink by mu*rho
        nv = math.sqrt(max(xx + 2.0 * mu * xt + mu * mu * tt, 0.0))
        if nv <= mu * rho:
            return margin  # y collapses to 0
        scale = 1.0 - mu * rho / nv
        return rho * scale * nv - scale * (xt + mu * tt) + margin

    # bisect mu to machine precision: Dykstra's correction terms amplify any
    # projection inexactness into a displacement floor, so the per-set
    # projections must be essentially exact
    mu_hi = 1.0
    while violation(mu_hi) > 0.0:
        mu_hi *= 2.0
        if mu_hi > 2.0**80:
            raise EmptyFeasibleSet("cone multiplier search diverged")
    mu_lo = 0.0
    for _ in range(100):
        mu = 0.5 * (mu_lo + mu_hi)
        if mu <= mu_lo or mu >= mu_hi:
            break
        if violation(mu) > 0.0:
            mu_lo = mu
        else:
            mu_hi = mu
    return _shrink(xp + mu_hi * theta, mu_hi * rho)


def project_cone(xp, theta, rho: float, margin: float) -> np.ndarray:
    """Euclidean projection onto {y : rho*||y||_2 - theta^T y <= -margin}.

    Already-feasible points are returned unchanged.  rho == 0 reduces to a
    halfspace with a closed-form projection.  Otherwise the KKT multiplier
    mu of the single constraint is bisected: the stationarity condition
    gives y(mu) = shrink(xp + mu*theta, mu*rho) and mu is driven until the
    constraint is active.  Along the bisection y(mu) depends on xp and
    theta only through three scalars, so the inner loop is plain float
    arithmetic.
    """
    xp = np.asarray(xp, dtype=float)
    theta = np.asarray(theta, dtype=float)
    tt = float(theta @ theta)
    if tt == 0.0:
        raise DegenerateDirection("cone constraint with zero direction")
    if rho > 0.0 and rho >= math.sqrt(tt):
        # rho*||y|| >= ||theta||*||y|| >= theta^T y for every y, so the
        # constraint rho*||y|| - theta^T y <= -margin < 0 is unsatisfiable
        raise EmptyFeasibleSet(
            f"margin set empty: radius {rho} >= direction norm {math.sqrt(tt):.6g}"
        )
    return _project_cone_known(xp, theta, rho, tt, margin).copy()


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}, by the
    sort-based soft-threshold construction (exact)."""
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius <= 0.0:
        return np.zeros_like(v)
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho_idx = np.nonzero(u * j > (css - radius))[0][-1]
    tau = (css[rho_idx] - radius) / (rho_idx + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_cost_ball(xp, x0, delta: float, cost: Cost) -> np.ndarray:
    """Euclidean projection onto {x : c(x, x0) <= delta}."""
    xp = np.asarray(xp, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    diff = xp - x0
    if Cost(cost) is Cost.L2:
        n = float(np.linalg.norm(diff))
        if n <= delta:
            return xp.copy()
        return x0 + (delta / n) * diff
    return x0 + _project_l1_ball(diff, delta)


# --- intersection projection --------------------------------------------------


def _require_directions(spec: FeasibleSetSpec):
    if np.any(spec.tts == 0.0):
        raise DegenerateDirection("cone constraint with zero direction")


def _polish(x, spec: FeasibleSetSpec, passes: int = 60):
    """Cyclic projections over every set of spec (the cost ball only if spec
    has one) until the point is feasible to near machine precision; None if
    the violations persist."""
    thetas, radii, tts = spec.thetas, spec.radii, spec.tts
    for _ in range(passes):
        if is_feasible(x, spec, 1e-12):
            return x
        if spec.delta is not None:
            x = project_cost_ball(x, spec.x0, spec.delta, spec.cost)
        for k in range(thetas.shape[0]):
            x = _project_cone_known(x, thetas[k], float(radii[k]), float(tts[k]), spec.margin)
        x = np.clip(x, spec.lower, spec.upper)
    return x if is_feasible(x, spec, 1e-10) else None


def _program(spec: FeasibleSetSpec, start, target=None):
    """Solve a smooth reformulation over the feasible set of spec with SLSQP
    from a warm start; returns the solution polished into the set, or None.

    With a target the objective is 0.5*||y - target||^2, the projection
    program.  Without one it is the cost c(y, x0); the l2 cost minimum is
    the projection of x0.  An l1 cost, as objective or as ball, is lifted
    to variables (y, t) with t >= |y - x0| componentwise.

    As projection it is the backstop for the rare geometries where the
    alternating projections stall: lens-shaped sets thinner than their
    correction terms can resolve, and positive gaps whose cycle fixed point
    converges slowly.
    """
    from scipy import optimize

    x0 = spec.x0
    d = x0.size
    thetas, radii, margin = spec.thetas, spec.radii, spec.margin
    l1 = Cost(spec.cost) is Cost.L1
    if target is None and not l1:
        target = x0
    lifted = l1 and (target is None or spec.delta is not None)

    def slack_fn(v):
        y = v[:d]
        return thetas @ y - radii * math.sqrt(float(y @ y)) - margin

    def slack_jac(v):
        y = v[:d]
        ny = math.sqrt(float(y @ y))
        jac = thetas.copy() if ny == 0.0 else thetas - np.outer(radii, y / ny)
        return np.hstack([jac, np.zeros_like(thetas)]) if lifted else jac

    def obj(v):
        if target is None:
            return float(v[d:].sum())
        return 0.5 * float(np.sum((v[:d] - target) ** 2))

    def obj_jac(v):
        g = np.zeros(v.size)
        if target is None:
            g[d:] = 1.0
        else:
            g[:d] = v[:d] - target
        return g

    margin_con = {"type": "ineq", "fun": slack_fn, "jac": slack_jac}
    if lifted:
        # rows encode t >= y - x0 and t >= x0 - y as A_abs @ (y, t) >= b_abs
        A_abs = np.block([[-np.eye(d), np.eye(d)], [np.eye(d), np.eye(d)]])
        b_abs = np.concatenate([-x0, x0])
        constraints = [
            {"type": "ineq", "fun": lambda v: A_abs @ v - b_abs, "jac": lambda v: A_abs}
        ]
        if spec.delta is not None:
            delta = float(spec.delta)
            a_sum = np.concatenate([np.zeros(d), -np.ones(d)])
            constraints.append(
                {"type": "ineq", "fun": lambda v: delta + float(a_sum @ v), "jac": lambda v: a_sum}
            )
        constraints.append(margin_con)
        v0 = np.concatenate([start, np.abs(start - x0) + 1e-12])
        bounds = optimize.Bounds(
            np.concatenate([spec.lower, np.zeros(d)]),
            np.concatenate([spec.upper, np.full(d, np.inf)]),
        )
    else:
        constraints = [margin_con]
        if spec.delta is not None:
            delta = float(spec.delta)
            constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda y: delta**2 - float(np.sum((y - x0) ** 2)),
                    "jac": lambda y: -2.0 * (y - x0),
                }
            )
        v0 = start
        bounds = optimize.Bounds(spec.lower, spec.upper)
    res = optimize.minimize(
        obj,
        v0,
        jac=obj_jac,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return _polish(np.clip(res.x[:d], spec.lower, spec.upper), spec)


def project_feasible(
    xp, spec: FeasibleSetSpec, max_iter: int = 500, tol: float = 1e-8
) -> np.ndarray:
    """Euclidean projection of xp onto the full intersection via Dykstra.

    Cycles over the cost ball, each margin cone and the actionability box,
    carrying one correction term per set.  Terminates when a full cycle
    moves the iterate by less than tol; the result then passes is_feasible
    at 10*tol.  An empty intersection is reported heuristically: with a
    positive gap between the sets the cycle settles into a fixed point that
    stays infeasible no matter how far the motion threshold is tightened.
    Cycles that stall or run out fall back on the projection program.
    """
    x = np.asarray(xp, dtype=float).copy()
    thetas, radii, tts, margin = spec.thetas, spec.radii, spec.tts, spec.margin
    K = thetas.shape[0]
    _require_directions(spec)
    empty = spec.empty_margin_sets()
    if empty:
        raise EmptyFeasibleSet(
            f"margin set empty for components {empty}: "
            "ambiguity radius at least as large as the direction norm"
        )
    has_ball = spec.delta is not None
    n_sets = int(has_ball) + K + 1
    corrections = [np.zeros_like(x) for _ in range(n_sets)]
    check_tol = tol
    for _ in range(max_iter):
        x_start = x
        i = 0
        if has_ball:
            z = x + corrections[0]
            x = project_cost_ball(z, spec.x0, spec.delta, spec.cost)
            corrections[0] = z - x
            i = 1
        for k in range(K):
            z = x + corrections[i]
            x = _project_cone_known(z, thetas[k], float(radii[k]), float(tts[k]), margin)
            corrections[i] = z - x
            i += 1
        z = x + corrections[i]
        x = np.clip(z, spec.lower, spec.upper)
        corrections[i] = z - x
        dv = x - x_start
        disp = math.sqrt(float(dv @ dv))
        if disp < check_tol:
            if is_feasible(x, spec, 10.0 * tol):
                return x
            # small motion alone does not certify a gap: tighten and keep
            # cycling until the iterate either turns feasible or pins the
            # infeasibility at a genuinely stalled point
            if check_tol <= 1e-13:
                failure = EmptyFeasibleSet(
                    f"projection stalled at an infeasible point (residual motion {disp:.2e})"
                )
                break
            check_tol = max(check_tol / 10.0, 1e-13)
    else:
        failure = MaxIterExceeded(f"Dykstra did not converge in {max_iter} cycles")
    direct = _program(spec, x, target=xp)
    if direct is not None:
        return direct
    _raise_empty_if_budget_short(spec, tol)
    raise failure


def _raise_empty_if_budget_short(spec: FeasibleSetSpec, tol: float):
    """After both the cycles and the direct program failed, certify
    emptiness when the cheapest margin-feasible point costs more than the
    budget allows."""
    if spec.delta is None:
        return
    try:
        cheapest = min_cost_point(spec)
    except (Unattainable, DegenerateDirection):
        raise EmptyFeasibleSet("margin constraints admit no point at all")
    if cheapest is not None and cheapest[1] > spec.delta + 10.0 * tol:
        raise EmptyFeasibleSet(
            f"budget {spec.delta:.6g} is below the cheapest feasible cost {cheapest[1]:.6g}"
        )


def min_cost_point(spec: FeasibleSetSpec, proj_tol: float = 1e-8):
    """Cheapest point of the margin-and-bounds set: (x, cost), or None when
    the distance program fails to certify a feasible minimizer.

    The program starts at x0.  The returned point is polished to satisfy
    the margins essentially exactly, so its cost is a genuine upper bound
    on the minimum; a first-order point that is slightly outside could
    otherwise understate the budget badly when the margin boundary is
    sharp."""
    spec = spec.without_delta()
    if spec.empty_margin_sets():
        raise Unattainable("some ambiguity radius is at least the direction norm")
    if is_feasible(spec.x0, spec, proj_tol):
        return spec.x0.copy(), 0.0
    _require_directions(spec)
    x = _program(spec, spec.x0)
    if x is None:
        return None
    return x, cost_of(x, spec.x0, spec.cost)


def delta_min(spec: FeasibleSetSpec, proj_tol: float = 1e-8) -> float:
    """Smallest cost budget for which the feasible set is nonempty.

    The margin constraints and bounds form a closed convex set M;
    delta_min is the c-distance from x0 to M, solved by one SLSQP run of
    the distance program started at x0 (smooth reformulation; M is convex,
    so the first-order point is the global minimum).  Raises Unattainable
    when some margin set is empty, when the distance program certifies no
    point of M, or when the distance exceeds the cap 2**10.
    """
    best = min_cost_point(spec, proj_tol=proj_tol)
    if best is None:
        raise Unattainable("the distance program found no point of the margin-and-bounds set")
    if best[1] > 2.0**10:
        raise Unattainable(f"cheapest budget {best[1]:.3g} exceeds the cap 2**10")
    return float(max(best[1], 0.0))
