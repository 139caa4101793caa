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
constraint.  Per-spec invariants (cost kind, cone floats, validity checks,
the cycle of single-set projections) are cached on the spec; the checks
still run on every call, and the cycle does the same float operations in
the same order.  delta_min, the smallest cost budget that keeps the
intersection nonempty, is the c-distance from x0 to the margin-and-bounds
set: one run of the same program, with the cost as objective, started at
x0.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

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

    @cached_property
    def l1(self) -> bool:
        return Cost(self.cost) is Cost.L1

    @cached_property
    def cones(self) -> tuple:
        """(theta_k, rho_k, theta_k^T theta_k) per component, radii as floats."""
        return tuple(zip(self.thetas, self.radii.tolist(), self.tts.tolist()))

    @cached_property
    def defect(self):
        """Maker of the error every projection onto this spec raises, or
        None: a zero direction, else an empty margin set."""
        if np.any(self.tts == 0.0):
            return partial(DegenerateDirection, "cone constraint with zero direction")
        empty = self.empty_margin_sets()
        if empty:
            return partial(
                EmptyFeasibleSet,
                f"margin set empty for components {empty}: "
                "ambiguity radius at least as large as the direction norm",
            )
        return None

    @cached_property
    def cycle(self) -> tuple:
        """The single-set projections in Dykstra's order, as pairs (project,
        args) for project(z, *args): the cost ball (if the spec has one),
        each margin cone, the actionability box."""
        ball = () if self.delta is None else ((_cost_ball, (self.x0, self.delta, self.l1)),)
        cones = tuple((_project_cone_known, (*cone, self.margin)) for cone in self.cones)
        return ball + cones + ((np.ndarray.clip, (self.lower, self.upper)),)

    def empty_margin_sets(self) -> list:
        """Components whose margin set is empty: radius at least ||theta_k||."""
        return np.nonzero((self.radii > 0.0) & (self.radii**2 >= self.tts))[0].tolist()

    def without_delta(self) -> "FeasibleSetSpec":
        return replace(self, delta=None)

    def with_delta(self, delta: float) -> "FeasibleSetSpec":
        return replace(self, delta=float(delta))


def _cost(diff: np.ndarray, l1: bool) -> float:
    # sqrt(d.d) is exactly how np.linalg.norm computes a vector's 2-norm
    return float(np.abs(diff).sum()) if l1 else math.sqrt(float(diff @ diff))


def cost_of(x, x0, cost: Cost) -> float:
    diff = np.asarray(x, dtype=float) - np.asarray(x0, dtype=float)
    return _cost(diff, Cost(cost) is Cost.L1)


def is_feasible(x, spec: FeasibleSetSpec, tol: float = 1e-8) -> bool:
    """Membership test for the full intersection, all constraints within tol."""
    x = np.asarray(x, dtype=float)
    if spec.delta is not None and _cost(x - spec.x0, spec.l1) > spec.delta + tol:
        return False
    if (spec.thetas @ x - spec.radii * math.sqrt(float(x @ x)) - spec.margin < -tol).any():
        return False
    return not ((x < spec.lower - tol).any() or (x > spec.upper + tol).any())


# --- single-set projections ---------------------------------------------------


def _project_cone_known(xp, theta, rho: float, tt: float, margin: float) -> np.ndarray:
    """Euclidean projection onto {y : rho*||y||_2 - theta^T y <= -margin},
    with tt = theta^T theta and the set known to be nonempty (spec.defect).

    Already-feasible points are returned unchanged.  rho == 0 reduces to a
    halfspace with a closed-form projection.  Otherwise the KKT multiplier
    mu of the single constraint is bisected: the stationarity condition
    gives y(mu) = shrink(xp + mu*theta, mu*rho) and mu is driven until the
    constraint is active.  Along the bisection y(mu) depends on xp and
    theta only through three scalars, so the inner loop is plain float
    arithmetic.
    """
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
    # y(mu_hi): shrink v = xp + mu_hi*theta towards 0 by mu_hi*rho
    v = xp + mu_hi * theta
    nv, s = math.sqrt(float(v @ v)), mu_hi * rho
    return np.zeros_like(v) if nv <= s else (1.0 - s / nv) * v


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}, by the
    sort-based soft threshold (Duchi et al., ICML 2008), exact; v itself
    when the ball holds it.  The threshold search runs on plain floats,
    the running sum adding in the order np.cumsum does."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v
    if radius <= 0.0:
        return np.zeros_like(v)
    css = tau = 0.0
    for j, u in enumerate(sorted(a.tolist(), reverse=True), 1):
        css += u
        if u * j > css - radius:
            tau = (css - radius) / j
    return np.sign(v) * np.maximum(a - tau, 0.0)


def _cost_ball(xp: np.ndarray, x0: np.ndarray, delta: float, l1: bool) -> np.ndarray:
    """Euclidean projection onto {x : c(x, x0) <= delta}; xp itself when
    an l2 ball holds it."""
    diff = xp - x0
    if l1:
        return x0 + _project_l1_ball(diff, delta)
    n = math.sqrt(float(diff @ diff))
    return xp if n <= delta else x0 + (delta / n) * diff


# --- intersection projection --------------------------------------------------


def _polish(x, spec: FeasibleSetSpec, passes: int = 60):
    """Cyclic projections over every set of spec (the cost ball only if spec
    has one) until the point is feasible to near machine precision; None if
    the violations persist."""
    for _ in range(passes):
        if is_feasible(x, spec, 1e-12):
            return x
        for project, args in spec.cycle:
            x = project(x, *args)
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
    l1 = spec.l1
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


def dykstra(xp, spec: FeasibleSetSpec, max_iter: int, tol: float):
    """Dykstra's alternating projections of xp onto the full intersection:
    (x, None) once a full cycle moves the iterate by less than tol and x
    passes is_feasible at 10*tol, else (last iterate, the error that
    stopped the cycles).

    Cycles over the cost ball, each margin cone and the actionability box,
    carrying one correction term per set.  An empty intersection is
    reported heuristically, as EmptyFeasibleSet: the iterate and the
    corrections both stall while the iterate stays infeasible.  With a
    positive gap the corrections grow without end and the cycles run out
    instead, as MaxIterExceeded.  The defects of spec raise at once.
    """
    if spec.defect:
        raise spec.defect()
    x = np.array(xp, dtype=float)
    cycle = spec.cycle
    # one correction row per set, in cycle order
    corrections = np.zeros((len(cycle), x.size))
    rows = list(corrections)
    held = None
    check_tol = tol
    for _ in range(max_iter):
        x_start = x
        for (project, args), correction in zip(cycle, rows):
            z = x + correction
            x = project(z, *args)
            np.subtract(z, x, out=correction)
        dv = x - x_start
        disp = math.sqrt(float(dv @ dv))
        if disp < check_tol:
            if is_feasible(x, spec, 10.0 * tol):
                return x, None
            # small motion alone does not certify a gap: tighten and keep
            # cycling until the iterate either turns feasible or pins the
            # infeasibility at a genuinely stalled point; a far-away input
            # can hold the iterate still for thousands of cycles while the
            # corrections rebalance
            if check_tol <= 1e-13:
                if held is not None and float(np.abs(corrections - held).max()) < check_tol:
                    return x, EmptyFeasibleSet(
                        f"projection stalled at an infeasible point (residual motion {disp:.2e})"
                    )
                held = corrections.copy()
            check_tol = max(check_tol / 10.0, 1e-13)
    return x, MaxIterExceeded(f"Dykstra did not converge in {max_iter} cycles")


def project_feasible(
    xp, spec: FeasibleSetSpec, max_iter: int = 500, tol: float = 1e-8
) -> np.ndarray:
    """Euclidean projection of xp onto the full intersection: the dykstra
    cycles, with the projection program as backstop when they stall or
    run out.  The descent's start runs the cycles alone, under a small
    cycle budget (see optimizer.solve)."""
    x, failure = dykstra(xp, spec, max_iter, tol)
    if failure is None:
        return x
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
    if spec.defect:
        raise spec.defect()
    x = _program(spec, spec.x0)
    if x is None:
        return None
    return x, cost_of(x, spec.x0, spec.cost)


def delta_min(spec: FeasibleSetSpec, proj_tol: float = 1e-8, with_point: bool = False):
    """Smallest cost budget for which the feasible set is nonempty; with
    with_point, the pair (delta_min, the cheapest point found).

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
    dmin = float(max(best[1], 0.0))
    return (dmin, best[0]) if with_point else dmin
