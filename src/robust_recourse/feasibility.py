"""Feasible action set, Euclidean projection onto it, and delta_min.

The feasible set intersects three kinds of convex sets around the input x0:

* a cost ball  c(x, x0) <= delta  with c either l1 or l2,
* one robust-margin set per belief component,
      theta_k^T x - rho_k * ||x||_2 >= margin        (a second-order cone slice),
* an actionability box (immutable coordinates pinned, non-decreasing
  coordinates bounded below, optional global bounds).

RowProjection projects many rows at once.  Its first cycle projects each
row onto the cost ball with the pinned coordinates, in closed form, and
tests the point against every margin set and the box: where they all hold
it, it is the projection onto the intersection.  The projection program in
the conic kernel answers the other rows, first without the ball, then with
it where the point leaves the ball; project_feasible is the one-row case.
Per-spec invariants are cached on the spec.  Two small second-order cone
programs are solved by one batched NumPy interior-point kernel (_cone_lp),
specs that share their structure in one call: the distance program behind
delta_min, the smallest budget that keeps the set nonempty, whose cheapest
point starts every descent, and that projection program.  An empty set
comes back from the kernel as a Farkas certificate.  With the l1 cost the
distance program is answered in closed form wherever a move of one
coordinate is certified optimal by its KKT conditions
(_one_coordinate_moves); the kernel is the backstop for the other rows.

Membership is tested row-wise (_members); is_feasible is its one-row case.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import (
    DegenerateDirection,
    EmptyFeasibleSet,
    MaxIterExceeded,
    RecourseError,
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
        """The spec of problem's feasible set: the one-row block."""
        [spec] = cls.block(problem.x0.values[None], problem.belief, problem.actionability,
                           problem.cost, problem.margin, problem.delta)
        if isinstance(spec, RecourseError):
            raise spec
        return spec

    @classmethod
    def block(cls, X0, belief, actionability, cost, margin: float,
              delta: float | None = None) -> list:
        """Per row x0 of X0, (N, d), the spec of its feasible set, or the
        EmptyFeasibleSet its actionability bounds raise: the bounds are
        built for all rows at once, and the belief's arrays and the cached
        invariants that depend on them alone (tts, l1, defect) once, shared
        by every row.  actionability is taken as given: a problem's pins
        the bias."""
        X0 = np.array(X0, dtype=float)
        lower, upper = np.full(X0.shape, -np.inf), np.full(X0.shape, np.inf)
        if actionability.box is not None:
            lower = np.maximum(lower, actionability.box[:, 0])
            upper = np.minimum(upper, actionability.box[:, 1])
        up = sorted(actionability.non_decreasing)
        lower[:, up] = np.where(X0[:, up] > lower[:, up], X0[:, up], lower[:, up])
        pinned = sorted(actionability.immutable)
        lower[:, pinned] = upper[:, pinned] = X0[:, pinned]
        thetas = np.array([c.mean for c in belief.components], dtype=float)
        radii = np.array([c.radius for c in belief.components], dtype=float)
        cost, margin = Cost(cost), float(margin)
        delta = None if delta is None else float(delta)
        shared = None
        out = []
        for x0, lo, hi, empty in zip(X0, lower, upper, (lower > upper).any(-1).tolist()):
            if empty:
                out.append(EmptyFeasibleSet("actionability bounds exclude the input point"))
                continue
            spec = cls(x0, delta, cost, margin, thetas, radii, lo, hi)
            if shared is None:
                shared = {k: getattr(spec, k) for k in ("tts", "l1", "defect")}
            spec.__dict__.update(shared)
            out.append(spec)
        return out

    @cached_property
    def tts(self) -> np.ndarray:
        """theta_k^T theta_k per component."""
        return np.einsum("kd,kd->k", self.thetas, self.thetas)

    @cached_property
    def l1(self) -> bool:
        return Cost(self.cost) is Cost.L1

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

    def empty_margin_sets(self) -> list:
        """Components whose margin set is empty: radius at least ||theta_k||."""
        with np.errstate(over="ignore"):  # a radius past ~1e154 squares to inf, still >=
            return np.nonzero((self.radii > 0.0) & (self.radii**2 >= self.tts))[0].tolist()

    def without_delta(self) -> "FeasibleSetSpec":
        return self if self.delta is None else replace(self, delta=None)


def _dots(X: np.ndarray) -> np.ndarray:
    """x.x for each row x of X (or for X, one row): one np.matmul product
    per row, the arithmetic of x @ x, so no row depends on the others."""
    return np.matmul(X[..., None, :], X[..., None])[..., 0, 0]


def _costs(D: np.ndarray, l1: bool) -> np.ndarray:
    """The cost of each move, a row of D (or of D, one move): l1, or l2 as
    sqrt(d.d), which is exactly how np.linalg.norm computes a 2-norm."""
    return np.add.reduce(np.abs(D), -1) if l1 else np.sqrt(_dots(D))


def cost_of(x, x0, cost: Cost) -> float:
    diff = np.asarray(x, dtype=float) - np.asarray(x0, dtype=float)
    return float(_costs(diff, Cost(cost) is Cost.L1))


def _members(X, tol, thetas, radii, margin, lower, upper, x0=None, delta=None, l1=True):
    """The membership test, row-wise: whether each row x_i of X, (N, d),
    lies in the set of the spec fields given, every constraint within tol.
    A field is shared by the rows or stacked, one per row: margin as (N,
    1), delta as (N,); delta None drops the cost ball.  theta_k.x and x.x
    are one np.matmul product per row, so a row's answer is the same alone
    and in a block."""
    out = (_mv(thetas, X) - radii * np.sqrt(_dots(X))[:, None] - margin < -tol).any(-1)
    out |= (X < lower - tol).any(-1) | (X > upper + tol).any(-1)
    if delta is not None:
        out |= _costs(X - x0, l1) > delta + tol
    return ~out


def is_feasible(x, spec: FeasibleSetSpec, tol: float = 1e-8) -> bool:
    """Membership test for the full intersection, all constraints within
    tol: the one-row _members."""
    return bool(_members(np.asarray(x, dtype=float)[None], tol, spec.thetas, spec.radii,
                         spec.margin, spec.lower, spec.upper, spec.x0, spec.delta, spec.l1)[0])


# --- projections ---------------------------------------------------------------


def _project_l1_ball(v: np.ndarray, radius) -> np.ndarray:
    """Euclidean projection of each row of v, (N, d), onto {w : ||w||_1 <=
    radius}, radius a scalar or one per row, by the sort-based soft
    threshold (Duchi et al., ICML 2008), exact; a row the ball holds comes
    back unchanged.  The running sum adds in np.cumsum's order."""
    a = np.abs(v)
    radius = np.asarray(radius, dtype=float)[..., None]
    u = -np.sort(-a, axis=-1)
    excess = np.cumsum(u, axis=-1) - radius
    passes = u * np.arange(1, u.shape[-1] + 1) > excess
    j = u.shape[-1] - np.argmax(passes[..., ::-1], axis=-1)  # the last j that passes
    tau = (excess[np.arange(len(j)), j - 1] / j)[:, None]
    inside, empty = np.add.reduce(a, -1, keepdims=True) <= radius, radius <= 0.0
    return np.where(inside, v, np.where(empty, 0.0, np.sign(v) * np.maximum(a - tau, 0.0)))


class RowProjection:
    """Projections of rows, row i onto the set of specs[i] with the cost
    budget deltas[i] (None for no ball): specs without a defect that share
    thetas, margin and cost, as one template's do, each with its own radii;
    their own deltas are not read.  A call projects Y onto the sets of the
    given rows: (points, errors), errors mapping a position to its
    RecourseError, or to None where a far position is rejected."""

    def __init__(self, specs, deltas):
        self.specs = specs
        self.delta = np.array([math.inf if d is None else d for d in deltas], dtype=float)
        self.x0, self.lower, self.upper, self.radii = (
            np.array([getattr(s, a) for s in specs], dtype=float)
            for a in ("x0", "lower", "upper", "radii"))
        self.pins = (self.lower == self.upper) & (self.lower == self.x0)
        # the ball keeps the pins at x0, so only a finite bound elsewhere can
        # fail the box test; a NaN row fails the cone test as well
        self.boxed = ((np.isfinite(self.lower) | np.isfinite(self.upper)) & ~self.pins).any()
        s0 = specs[0]
        self.l1, self.thetas, self.floor = s0.l1, s0.thetas, -s0.margin

    def __call__(self, Y, rows, far=None):
        """The first cycle in lock step: the cost ball with the pins, then
        a membership test against every margin cone and the box.  A row
        that passes has the ball's point as its projection.  The projection
        program in the conic kernel answers the rest, except the positions
        where far (None, or a mask over the positions) is True: those are
        rejected, unprojected.  A row the kernel certifies empty gets
        EmptyFeasibleSet, one it does not solve MaxIterExceeded."""
        x0, delta = self.x0[rows], self.delta[rows]
        X = np.where(self.pins[rows], x0, Y)
        D = X - x0
        # a zero move or an infinite budget (no ball) makes inf and NaN in the
        # branch not taken; a point past ~1e154 overflows its norm, and its
        # inf or NaN cone value fails the test
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.l1:
                X = x0 + _project_l1_ball(D, delta)
            else:
                n = np.sqrt(np.add.reduce(D * D, -1))
                X = np.where((n <= delta)[:, None], X, x0 + (delta / n)[:, None] * D)
            cones = (self.radii[rows] * np.sqrt(np.add.reduce(X * X, -1))[:, None]
                     - np.add.reduce(X[:, None, :] * self.thetas, -1))
        closed = np.logical_and.reduce(cones <= self.floor, -1)
        if self.boxed:
            closed &= np.logical_and.reduce((X >= self.lower[rows]) & (X <= self.upper[rows]), -1)
        errors = {}
        if closed.all():
            return X, errors
        todo = (~closed).nonzero()[0]
        if far is not None:
            errors = dict.fromkeys(todo[far[todo]].tolist())
            todo = todo[~far[todo]]
        # first without the ball: a point that lies in it is the projection,
        # as the ball only cuts the set.  A slack l1 ball leaves its lift
        # variables free to float, which can stall the kernel's dual residual
        # above CONE_ACCEPT; so the program with the ball runs only where the
        # ball binds, or where the one without it fails
        out = dict(zip(todo.tolist(), _run_blocks(
            [self.specs[r].without_delta() for r in rows[todo].tolist()], Y[todo])))
        binds = [i for i, (status, x) in out.items() if delta[i] < math.inf and (
            status == FAILED or status == SOLVED and _costs(x - x0[i], self.l1) > delta[i])]
        out.update(zip(binds, _run_blocks(
            [replace(self.specs[rows[i]], delta=float(delta[i])) for i in binds], Y[binds])))
        for i, (status, x) in out.items():
            if status == SOLVED:
                X[i] = x
            elif status == INFEASIBLE:
                errors[i] = EmptyFeasibleSet(
                    "the projection program has a Farkas certificate: no feasible point")
            else:
                errors[i] = MaxIterExceeded("the projection program did not converge")
        return X, errors


# --- conic kernel --------------------------------------------------------------

# per-row outcomes of _cone_lp; its tolerances, relative to the problem's
# scale: the target, and the merit a row that stops improving must have
# reached to count as solved; its iteration cap
SOLVED, INFEASIBLE, FAILED = 0, 1, 2
CONE_TOL, CONE_ACCEPT, CONE_MAX_ITER = 1e-12, 1e-9, 100


def _mv(A, v):
    """A @ v_i for each row v_i of v, one product per row (A shared or per
    row), so that no row's result depends on the other rows."""
    return np.matmul(A, v[..., None])[..., 0]


def _solve(A, b):
    """A_i^-1 b_i per row.  Near the optimum W^-2 spans many orders of
    magnitude and LU can meet an exact zero pivot: that row gets NaN and
    stops, not an error for the whole block."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve(A[i : i + 1], b[i : i + 1]) for i in range(len(A))])


class _Cones:
    """A product of second-order cones {u : u0 >= |u1|} along axis 1 of
    (N, m) arrays, one cone per run of rows; a 1-row cone is the orthant.
    J = diag(1, -I) and e = (1, 0), the Jordan identity, per cone;
    per-cone values are (N, cones) arrays."""

    def __init__(self, sizes):
        self.heads = np.cumsum(sizes) - sizes
        self.of_row = np.repeat(np.arange(len(sizes)), sizes)
        self.e = np.zeros(self.of_row.size)
        self.e[self.heads] = 1.0
        self.J = 2.0 * self.e - 1.0
        self.same = self.of_row[:, None] == self.of_row  # pairs of rows of one cone
        self.Jm = np.diag(self.J)

    def sum(self, u):
        return np.add.reduceat(u, self.heads, axis=1)

    def at(self, a):
        """Per-cone values onto the cone's rows."""
        return a[:, self.of_row]

    def norm(self, u):
        """sqrt(u0^2 - |u1|^2), factored to stay accurate near the boundary."""
        r, u0 = np.sqrt(self.sum((1.0 - self.e) * u * u)), u[:, self.heads]
        return np.sqrt((u0 - r) * (u0 + r))

    def prod(self, u, v):
        """Jordan product u o v = (u.v, u0*v1 + v0*u1)."""
        out = self.at(u[:, self.heads]) * v + self.at(v[:, self.heads]) * u
        out[:, self.heads] = self.sum(u * v)
        return out

    def solve(self, lam, ln, d):
        """w with lam o w = d, for lam inside the cone and ln = norm(lam)."""
        w0 = self.sum(self.J * lam * d) / (ln * ln)
        out = (d - self.at(w0) * lam) / self.at(lam[:, self.heads])
        out[:, self.heads] = w0
        return out

    def max_step(self, lb, ln, d):
        """Largest a with lam + a*d in every cone (inf if none binds), for
        ln = norm(lam) and lb = lam/ln, through the automorphism that takes
        lam to e (as in ECOS)."""
        t = self.sum(self.J * lb * d)
        r = (1.0 - self.e) * (d - self.at((t + d[:, self.heads]) / (lb[:, self.heads] + 1.0)) * lb)
        sigma = (np.sqrt(self.sum(r * r)) - t) / ln
        return np.where(sigma > 0.0, 1.0 / sigma, np.inf).min(1)

    def nt_inverse(self, s, z):
        """W^-1, (N, m, m), for the Nesterov-Todd scaling W: symmetric,
        cone-wise and W z = W^-1 s (Nesterov & Todd, Math. Oper. Res. 1997),
        and norm(W z) = sqrt(norm(s) norm(z)).  Per cone W = beta*(2 v v^T -
        J), W^-1 = (2 Jv (Jv)^T - J)/beta, beta and v as in CVXOPT's coneqp."""
        sn, zn = self.norm(s), self.norm(z)
        sb, zb = s / self.at(sn), z / self.at(zn)
        w = (sb + self.J * zb) / self.at(np.sqrt(2.0 * (1.0 + self.sum(sb * zb))))
        u = self.J * (w + self.e) / self.at(np.sqrt(2.0 * (w[:, self.heads] + 1.0)))
        Wi = (2.0 * u[:, :, None] * u[:, None, :] * self.same - self.Jm) / self.at(
            np.sqrt(sn / zn))[..., None]
        return Wi, np.sqrt(sn * zn)


def _cone_lp(c, G, H, sizes):
    """min c.v  s.t.  G v + s = h,  s in K, for every row h of H in lock
    step, K the product of second-order cones of the given sizes.

    The homogeneous self-dual embedding of ECOS (Domahidi, Chu & Boyd, ECC
    2013), with Nesterov-Todd scaling and a Mehrotra predictor-corrector;
    each Newton system reduces to the normal equations G^T W^-2 G.  Every
    operation is row-wise and each row stops on its own criteria, so its
    answer is the same alone and in a block.

    A row's merit is the largest of its residuals, relative to |h| and
    |c|, and of its gap, relative to the objective.  Per row: SOLVED with V
    the iterate of least merit, once the merit reaches tol, or reaches
    accept and then stops falling (rounding floors it near the optimum);
    INFEASIBLE with Z a Farkas certificate, Z in K, h.Z = -1 and
    |G^T Z| |h| <= tol |c|, or accept once the merit stops falling; else
    FAILED.  tol, accept and the iteration cap are CONE_TOL, CONE_ACCEPT
    and CONE_MAX_ITER.  Returns (status, V, Z).
    """
    K = _Cones(sizes)
    N, m = H.shape
    # the embedding's center: x = 0, s = z = e, tau = kappa = 1
    x, s, z = np.zeros((N, c.size)), np.tile(K.e, (N, 1)), np.tile(K.e, (N, 1))
    tau, kappa = np.ones(N), np.ones(N)
    status, best = np.full(N, FAILED), np.full(N, np.inf)
    V, Z = np.zeros((N, c.size)), np.zeros((N, m))
    rows, stale = np.arange(N), np.zeros(N, int)
    with np.errstate(all="ignore"):  # a huge margin overflows |h|; such rows end FAILED
        cn, hn = math.sqrt(float(c @ c)) or 1.0, np.sqrt((H * H).sum(-1))
        for _ in range(CONE_MAX_ITER):
            GTz = _mv(G.T, z)
            rx, rz = GTz + c * tau[:, None], _mv(G, x) + s - H * tau[:, None]
            cx, hz, gap = (x * c).sum(-1), (H * z).sum(-1), (s * z).sum(-1)
            rt = kappa + cx + hz
            merit = np.maximum.reduce([
                np.sqrt((rz * rz).sum(-1)) / (hn * tau), np.sqrt((rx * rx).sum(-1)) / (cn * tau),
                gap / (tau * np.maximum.reduce([abs(cx), abs(hz), 1e-3 * hn * tau]))])
            improved = merit < best[rows]
            best[rows[improved]] = merit[improved]
            V[rows[improved]] = x[improved] / tau[improved, None]
            stale = np.where(improved, 0, stale + 1)
            # the certificate's residual |G^T z| / -h.z, relative to |c| / |h|: a
            # feasible program keeps it near |h| / p*, p* its optimal value
            farkas = np.where(hz < 0.0, np.sqrt((GTz * GTz).sum(-1)) * hn / (cn * -hz), np.inf)
            infeasible = (farkas <= CONE_TOL) | ((farkas <= CONE_ACCEPT) & (stale >= 3))
            Z[rows[infeasible]] = z[infeasible] / -hz[infeasible, None]
            status[rows[infeasible]] = INFEASIBLE
            done = ((merit <= CONE_TOL) | infeasible | ~np.isfinite(merit + tau)
                    | ((best[rows] <= CONE_ACCEPT) & (stale >= 3)))
            if done.all():
                break
            if done.any():
                rows, stale, x, s, z, tau, kappa, H, hn, rx, rz, rt, gap = (
                    a[~done] for a in (rows, stale, x, s, z, tau, kappa, H, hn, rx, rz, rt, gap))
            mu = (gap + tau * kappa) / (K.heads.size + 1)

            Wi, ln = K.nt_inverse(s, z)
            lam = _mv(Wi, s)  # = W z
            lb = lam / K.at(ln)
            lb2, ln2 = np.concatenate([lb, lb]), np.concatenate([ln, ln])
            WiG = np.matmul(Wi, G)
            WiGT = WiG.transpose(0, 2, 1)
            normal = np.matmul(WiGT, WiG)
            hw, rzw = _mv(Wi, H), _mv(Wi, rz)
            x2 = _solve(normal, _mv(WiGT, hw) - c)
            z2 = _mv(WiG, x2) - hw
            den = (x2 * c).sum(-1) + (hw * z2).sum(-1) - kappa / tau

            def direction(eta, q, dk):
                """The Newton step for residuals scaled by eta and the targets
                W dz + W^-1 ds = q, kappa*dtau + tau*dkappa = dk: (dx, W^-1 ds,
                W dz, dtau, dkappa, the step to the boundary)."""
                r = -eta[:, None] * rzw - q
                x1 = _solve(normal, _mv(WiGT, r) - eta[:, None] * rx)
                z1 = _mv(WiG, x1) - r
                dtau = (-eta * rt - dk / tau - (x1 * c).sum(-1) - (hw * z1).sum(-1)) / den
                dz = z1 + z2 * dtau[:, None]
                dkappa = (dk - kappa * dtau) / tau
                to_cone = K.max_step(lb2, ln2, np.concatenate([q - dz, dz])).reshape(2, -1)
                step = np.minimum.reduce([*to_cone, np.where(dtau < 0.0, -tau / dtau, np.inf),
                                          np.where(dkappa < 0.0, -kappa / dkappa, np.inf)])
                return x1 + x2 * dtau[:, None], q - dz, dz, dtau, dkappa, step

            # predictor: the affine step, lam o (W dz + W^-1 ds) = -lam o lam,
            # whose length sets the centering; corrector: centered, plus the
            # predictor's second-order term
            _, ds, dz, dtau, dkappa, step = direction(np.ones(len(rows)), -lam, -tau * kappa)
            sigma = (1.0 - np.minimum(1.0, step)) ** 3
            eta = 1.0 - sigma
            dx, _, dz, dtau, dkappa, step = direction(
                eta, K.solve(lam, ln, (sigma * mu)[:, None] * K.e - K.prod(ds, dz)) - lam,
                -tau * kappa + sigma * mu - dtau * dkappa)
            alpha = np.minimum(1.0, 0.99 * step)
            a = alpha[:, None]
            # the slack moves by the linearized residual: G dx + ds - h dtau = -eta rz
            s = s + a * (H * dtau[:, None] - _mv(G, dx) - eta[:, None] * rz)
            x, z = x + a * dx, z + a * _mv(Wi, dz)
            tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa
    status[(status != INFEASIBLE) & (best <= CONE_ACCEPT)] = SOLVED
    return status, V, Z


# --- the package's conic programs ----------------------------------------------


def _structure(spec: FeasibleSetSpec) -> tuple:
    """What the G of spec's conic programs depends on."""
    return (spec.l1, spec.delta is None, spec.thetas.shape, spec.thetas.tobytes(),
            spec.radii.tobytes(), (spec.lower == spec.upper).tobytes(),
            np.isfinite(spec.lower).tobytes(), np.isfinite(spec.upper).tobytes())


def _conic_program(specs, targets=None):
    """(c, G, H, cone sizes, points) of each spec's distance program
    (targets None) or of its projection program for targets[i]; the specs
    share _structure, hence c and G.  The variables are the free
    coordinates y; pinned ones (the bias, immutables, lower == upper) enter
    h as constants.

    Rows: each margin as the cone (theta_k.x - margin, rho_k*x), one row
    when rho_k = 0; each finite bound.  The distance program minimizes the
    cost from x0, l1 as sum(t) with t >= +-(y - x0), l2 as t over the cone
    (t, x - x0).  The projection program minimizes t over (t, x - target)
    within the cost ball: the cone (delta, x - x0), or for l1 t' >= +-(y -
    x0) with sum(t') <= delta less the pinned coordinates' cost.  points
    maps solutions to points x, clipped to the bounds.
    """
    s0, N = specs[0], len(specs)
    d, pinned = s0.x0.size, s0.lower == s0.upper
    free = np.flatnonzero(~pinned)
    nf = free.size
    X0, lower, upper = (np.array([getattr(s, a) for s in specs]) for a in ("x0", "lower", "upper"))
    base = np.where(pinned, lower, 0.0)  # x = base + Y v
    ball = targets is not None and s0.delta is not None
    l1_cost, l1_ball = targets is None and s0.l1, ball and s0.l1
    n = nf + (nf if l1_cost else 1) + (nf if l1_ball else 0)
    c = np.zeros(n)
    c[nf : 2 * nf if l1_cost else nf + 1] = 1.0
    Y = np.zeros((d, n))
    Y[free, np.arange(nf)] = 1.0
    rows, cones = [], []  # (G, H) of 1-row cones and of (1 + d)-row cones

    def lift(col, a):  # t_j >= |y_j - a_j| for the t_j in columns col, col + 1, ...
        T = np.eye(n)[col : col + nf]
        rows.extend([(Y[free] - T, a[:, free]), (-Y[free] - T, -a[:, free])])

    def cone(head_g, head_h, scale, a):  # (head, scale*(x - a))
        cones.append((np.vstack([head_g, -scale * Y]),
                      np.hstack([head_h[:, None], scale * (base - a)])))

    if l1_cost:
        lift(nf, X0)
    else:
        cone(-np.eye(n)[nf], np.zeros(N), 1.0, X0 if targets is None else targets)
    delta = np.array([s.delta for s in specs]) if ball else None
    margin = np.array([s.margin for s in specs])
    if l1_ball:
        lift(nf + 1, X0)
        pinned_cost = np.abs(base - X0)[:, pinned].sum(-1)
        rows.append(((np.arange(n) > nf)[None] * 1.0, (delta - pinned_cost)[:, None]))
    elif ball:
        cone(np.zeros(n), delta, 1.0, X0)
    for theta, rho in zip(s0.thetas, s0.radii.tolist()):
        g, h = -(theta @ Y), (base * theta).sum(-1) - margin
        if rho == 0.0:
            rows.append((g[None], h[:, None]))
        else:
            cone(g, h, rho, np.zeros(d))
    lo, hi = free[np.isfinite(s0.lower[free])], free[np.isfinite(s0.upper[free])]
    rows.extend([(-Y[lo], -lower[:, lo]), (Y[hi], upper[:, hi])])
    G, H = (np.concatenate([b[i] for b in rows + cones], i) for i in (0, 1))

    def points(V):
        X = base.copy()
        X[:, free] = V[:, :nf]
        return np.clip(X, lower, upper)

    return c, G, H, [1] * sum(len(g) for g, _ in rows) + [d + 1] * len(cones), points


def _blocks(specs):
    """The positions of specs, grouped by _structure."""
    blocks = {}
    for i, spec in enumerate(specs):
        blocks.setdefault(_structure(spec), []).append(i)
    return blocks.values()


def _run_blocks(specs, targets=None) -> list:
    """Per spec, (status, point) of its distance program (targets None) or
    of its projection program for targets[i], in one _cone_lp call per
    block of specs that share _structure; a row's answer is the same alone
    and in a block."""
    out = [None] * len(specs)
    for rows in _blocks(specs):
        c, G, H, sizes, points = _conic_program(
            [specs[i] for i in rows], None if targets is None else targets[rows])
        status, V, _ = _cone_lp(c, G, H, sizes)
        for i, st, x in zip(rows, status.tolist(), points(V)):
            out[i] = (st, x)
    return out


def _cone_intervals(b, rho, c, r2):
    """(lo, hi): the values s of one coordinate with b*s - rho*sqrt(r2 +
    s^2) >= c, a margin set along a line parallel to that coordinate's axis
    (b its theta, r2 the squared norm of the other coordinates).  The set
    is concave in s, so this is an interval; its ends are roots of one
    quadratic, taken in forms that do not cancel.  An empty interval has lo
    > hi; where |b| = rho > 0 both ends are NaN.  Arrays broadcast."""
    ab, ac, r = abs(b), abs(c), np.sqrt(r2)
    A = (ab - rho) * (ab + rho)
    q = np.sqrt(abs(A)) * r
    W = np.where(A > 0.0, c * c + A * r2, (ac - q) * (ac + q))
    w = np.sqrt(W)
    near = (ac - rho * r) * (ac + rho * r)  # c^2 - rho^2 r2
    # |b| > rho (every halfspace): the half-line from sign(b)*e
    e = np.where(c >= 0.0, (ab * c + rho * w) / A, near / (ab * c - rho * w))
    half = np.where(b > 0.0, e, -np.inf), np.where(b > 0.0, np.inf, -e)
    # |b| < rho: between the two roots, empty unless c <= 0 and W >= 0
    p = ab * ac + rho * w
    big, small = p / -A, -near / p
    empty = (c > 0.0) | (W < 0.0)
    bounded = (np.where(empty, np.inf, np.where(b >= 0.0, small, -big)),
               np.where(empty, -np.inf, np.where(b >= 0.0, big, -small)))
    # b = rho = 0: all or nothing
    flat = np.where(c <= 0.0, -np.inf, np.inf), np.where(c <= 0.0, np.inf, -np.inf)
    return tuple(np.where(A > 0.0, half[i], np.where(A < 0.0, bounded[i], np.where(
        rho == 0.0, flat[i], np.nan))) for i in (0, 1))


# outward steps, of 2^k ulps of |x| for k below this, that may bring a
# rounded one-coordinate move into its margin set
MOVE_STEPS = 8


def _one_coordinate_moves(specs) -> list:
    """Per l1 spec of a block that shares _structure (delta None, no
    defect, x0 outside its set), the distance program's answer where a
    move of one coordinate is certified optimal, else None.

    Along x0 + t e_j, for each free coordinate j, every margin set is an
    interval of t (_cone_intervals) and the bounds cut it further; the move
    of least |t| over j is the candidate x.  It is certified when exactly
    one margin set k is active there and no bound on x_j is, x0's other
    coordinates lie in their bounds, x lies in M (_members at tol 0, after
    outward steps where rounding left it outside), and the gradient g
    = theta_k - rho_k x/|x| of set k has |g_j| strictly above every other
    free |g_i|, with sign g_j = sign t.  Then x meets the KKT conditions of
    the l1 distance to set k alone, with the pins: it is the unique nearest
    point of that larger set, and so of M, which holds it.  Every sum is
    row-wise, so a row's answer is the same alone and in any block."""
    s0 = specs[0]
    thetas, radii, free = s0.thetas, s0.radii, s0.lower != s0.upper
    X0, lower, upper = (np.array([getattr(s, a) for s in specs]) for a in ("x0", "lower", "upper"))
    margin = np.array([s.margin for s in specs])
    N, d = X0.shape
    n, off_diagonal = np.arange(N), ~np.eye(d, dtype=bool)
    with np.errstate(all="ignore"):  # a huge margin or input overflows; such rows are refused
        # per row, set k and coordinate j: theta_k.x0 and |x0|^2 over i != j
        rest = np.add.reduce((X0[:, None, :] * thetas)[:, :, None, :] * off_diagonal, -1)
        r2 = np.add.reduce((X0 * X0)[:, None, None, :] * off_diagonal, -1)
        lo, hi = _cone_intervals(thetas, radii[:, None], margin[:, None, None] - rest, r2)
        L = np.maximum(np.maximum.reduce(lo, 1), lower)
        U = np.minimum(np.minimum.reduce(hi, 1), upper)
        up = L > X0
        S = np.where(up, L, U)
        dist = np.where(free & (L <= U) & (up | (U < X0)), abs(S - X0), np.inf)
        j = np.argmin(dist, -1)
        s, sign, lo_j, hi_j = S[n, j], np.where(up[n, j], 1.0, -1.0), lower[n, j], upper[n, j]
        active = np.where(up[n, j, None], lo[n, :, j], hi[n, :, j]) == s[:, None]
        others_in_box = (X0 >= lower) & (X0 <= upper) | (np.arange(d) == j[:, None])
        ok = ((dist[n, j] < np.inf) & (np.add.reduce(active, -1) == 1) & (L[n, j] < U[n, j])
              & (lo_j < s) & (s < hi_j) & np.logical_and.reduce(others_in_box, -1))
        X = X0.copy()
        X[n, j] = s
        rows = ok.nonzero()[0]
        ulp = np.spacing(np.sqrt(_dots(X[rows])))
        for step in range(MOVE_STEPS):
            if not rows.size:
                break
            inside = _members(X[rows], 0.0, thetas, radii, margin[rows, None], lower[rows],
                              upper[rows])
            done, jd = rows[inside], j[rows[inside]]
            ok[done] = (lo_j[done] < X[done, jd]) & (X[done, jd] < hi_j[done])
            rows, ulp = rows[~inside], ulp[~inside]
            X[rows, j[rows]] += sign[rows] * 2.0**step * ulp
        ok[rows] = False
        k = np.argmax(active, -1)
        G = np.where((radii[k] > 0.0)[:, None], thetas[k] - (
            radii[k] / np.sqrt(np.add.reduce(X * X, -1)))[:, None] * X, thetas[k])
        g = G[n, j]
        rival = np.maximum.reduce(np.where(free & (np.arange(d) != j[:, None]), abs(G), 0.0), -1)
        ok &= (abs(g) > rival) & (np.sign(g) == sign)
    return [x if good else None for x, good in zip(X, ok.tolist())]


def project_feasible(
    xp, spec: FeasibleSetSpec, max_iter: int = 500, tol: float = 1e-8
) -> np.ndarray:
    """Euclidean projection of xp onto the full intersection: the one-row
    RowProjection, whose errors it raises.  The defects of spec raise at
    once.  max_iter and tol are not read: the kernel's own tolerances
    govern the projection, and the signature stays for the callers that
    pass them (bench/workloads.py among them)."""
    if spec.defect:
        raise spec.defect()
    X, errors = RowProjection([spec], [spec.delta])(
        np.asarray(xp, dtype=float)[None], np.zeros(1, int))
    if errors:
        raise errors[0]
    return X[0]


def min_cost_point(specs, proj_tol: float = 1e-8) -> list:
    """delta_min of many specs at once: per spec, (delta_min, the cheapest
    point) or the RecourseError delta_min raises for it, in one
    _min_cost_block call per block of specs that share _structure (those
    of one ProblemTemplate do).  A row's answer is the same alone and in a
    block."""
    specs = [spec.without_delta() for spec in specs]
    out = [None] * len(specs)
    for rows in _blocks(specs):
        for i, best in zip(rows, _min_cost_block([specs[i] for i in rows], proj_tol)):
            out[i] = best
    return out


def _min_cost_block(specs, proj_tol: float) -> list:
    """min_cost_point of specs that share _structure, so their defect too.
    Where no margin set is empty, every x0 is tested at once (_members)
    and the rows it leaves outside their sets are moved: an l1 row where a
    one-coordinate move is certified optimal in closed form
    (_one_coordinate_moves), the others by their distance programs in one
    _cone_lp call; the moved rows' costs are taken at once."""
    s0 = specs[0]
    if s0.defect and s0.empty_margin_sets():  # an empty margin set is a defect
        return [Unattainable("some ambiguity radius is at least the direction norm")
                for _ in specs]
    X0, lower, upper = (np.array([getattr(s, a) for s in specs]) for a in ("x0", "lower", "upper"))
    inside = _members(X0, proj_tol, s0.thetas, s0.radii,
                      np.array([s.margin for s in specs])[:, None], lower, upper)
    P, found, errors = X0.copy(), inside.copy(), {}
    todo = (~inside).nonzero()[0].tolist()
    if s0.defect:
        errors, todo = {t: s0.defect() for t in todo}, []
    if s0.l1 and todo:
        for t, x in zip(todo, _one_coordinate_moves([specs[t] for t in todo])):
            if x is not None:
                P[t], found[t] = x, True
        todo = [t for t in todo if not found[t]]
    if todo:
        for t, (status, x) in zip(todo, _run_blocks([specs[t] for t in todo])):
            if status == SOLVED:
                P[t], found[t] = x, True
            else:
                errors[t] = Unattainable(
                    "the margin-and-bounds set is empty (Farkas certificate)"
                    if status == INFEASIBLE else "the distance program did not converge")
    moved, dmin = found & ~inside, np.zeros(len(specs))
    dmin[moved] = _costs(P[moved] - X0[moved], s0.l1)
    return [errors[t] if t in errors else (dmin[t].item(), P[t]) for t in range(len(specs))]


def delta_min(spec: FeasibleSetSpec, proj_tol: float = 1e-8) -> float:
    """Smallest cost budget for which the feasible set is nonempty: the
    cost distance from x0 to the margin-and-bounds set M: min_cost_point
    of this one spec, which also gives the cheapest point, in closed form
    where an l1 one-coordinate move is certified optimal, else by the
    distance program in the conic kernel.

    Raises Unattainable when some margin set is empty or when the kernel
    certifies M empty or does not converge, and DegenerateDirection for a
    zero direction; no bound caps the distance.
    """
    best = min_cost_point([spec], proj_tol)[0]
    if isinstance(best, RecourseError):
        raise best
    return best[0]


def budget_slack(dmin: float) -> float:
    """How far a budget may lie from delta_min and still count as
    delta_min: max(1e-9, 1e-12*dmin), the rounding of a computed distance."""
    return max(1e-9, 1e-12 * dmin)


def budget_pinned(delta: float, dmin: float) -> bool:
    """Whether delta, within budget_slack of delta_min, pins the feasible
    set to the cost-argmin set, leaving a descent no room."""
    return delta - dmin <= budget_slack(dmin)
