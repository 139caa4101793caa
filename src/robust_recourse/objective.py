"""Objective variants built from the per-component worst-case probabilities.

All four variants map an action x to a probability of the unfavorable
outcome under the belief about future model parameters:

* mixture:          sum_k p_k * f_k(x)            (f_k = per-component worst case)
* worst component:  max_k f_k(x)
* weight robust:    max of sum_k w_k f_k(x) over mixture weights w within a
                    phi-divergence ball of radius eps around p, solved
                    exactly from its KKT conditions: for KL, w is the tilt
                    p exp(f/lam) normalized, with lam the root of
                    KL(w||p) = eps; for chi-square, w = p (1 + (f - eta)/(2 lam))
                    on a sorted active set, in closed form (_weight_dual), on a
                    row's K values as Python floats: at a few components a
                    NumPy call costs more than its arithmetic

each in a nonparametric and a gaussian flavor.  Gradients are assembled
analytically by the chain rule over the scalars (a, b, c); the weight-robust
gradient is w^T grad f at the worst-case weights (envelope theorem).
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, mul

import numpy as np

from .errors import DualSolveFailed, InfeasibleMargin, ZeroAction
from .model import Divergence, MixtureBelief, Mode
from .worst_case import closed_form


@dataclass(frozen=True, eq=False)
class ObjectiveEval:
    """Value, gradient and per-component diagnostics of one evaluation."""

    value: float
    gradient: np.ndarray
    component_values: np.ndarray


def moments(belief: MixtureBelief):
    """The component means, covariances and ambiguity radii of belief as
    arrays, (K, d), (K, d, d) and (K,)."""
    return tuple(np.array([getattr(c, a) for c in belief.components])
                 for a in ("mean", "cov", "radius"))


def _component_stats(X, means, covs, radii, gaussian: bool):
    """Per-component worst-case probabilities and their gradients at the
    rows of X, (N, d), under the components' means and covariances, row i
    with the ambiguity radii radii[i], (N, K).

    The closed forms come from worst_case.closed_form; only the chain rule
    through a = -m^T x, b = sqrt(x^T S x) and c = rho*||x|| lives here.
    Products are summed over the last axis, never by BLAS, so a row's bits
    do not depend on the other rows.  Returns (values, grads, bad), (N, K),
    (N, K, d) and (N, K); bad marks where the robust margin theta^T x -
    rho*||x|| is not positive, and the values there mean nothing.
    """
    Xk = X[:, None, :]
    a = -np.add.reduce(Xk * means, -1)
    Sx = np.add.reduce(covs * Xk[:, None], -1)
    b = np.sqrt(np.maximum(np.add.reduce(Xk * Sx, -1), 0.0))
    nx = np.sqrt(np.add.reduce(X * X, -1))[:, None]
    c = radii * nx
    bad = a + c >= 0.0
    with np.errstate(all="ignore"):
        values, outer, d_a, d_b, d_c = closed_form(a, b, c, gaussian)
        gb = Sx / b[..., None]
        gc = (radii / nx)[..., None] * X[:, None, :]  # zero when radius == 0
        grads = outer[..., None] * (d_a[..., None] * -means + d_b[..., None] * gb
                                    + d_c[..., None] * gc)
    return values, grads, bad


def evaluate(X, means, covs, radii, weights, mode: Mode, weight_budget: float = 0.0,
             divergence: Divergence = Divergence.KL):
    """The objective of mode at the rows of X, for the belief of the given
    component means, covariances and mixture weights, row i with the
    ambiguity radii radii[i], (N, K): (values, grads, component values,
    errors); mode and divergence are members of their enums.  errors maps
    a row to its RecourseError (ZeroAction at x = 0, else InfeasibleMargin,
    else DualSolveFailed)."""
    if weight_budget < 0.0:
        raise DualSolveFailed(f"weight budget must be >= 0, got {weight_budget}")
    gaussian = mode in (Mode.GAUSSIAN, Mode.GAUSSIAN_WEIGHT_ROBUST, Mode.GAUSSIAN_WORST_COMPONENT)
    v, g, bad = _component_stats(X, means, covs, radii, gaussian)
    errors = {}
    if bad.any():  # x = 0 has a + c = 0: every component is bad there
        errors = {i: ZeroAction("objective undefined at x = 0")
                  for i in (~X.any(-1)).nonzero()[0].tolist()}
        for i in bad.any(-1).nonzero()[0].tolist():
            errors.setdefault(i, InfeasibleMargin(bad[i].nonzero()[0].tolist()))
    if mode in (Mode.WORST_COMPONENT, Mode.GAUSSIAN_WORST_COMPONENT):
        # the attaining component's gradient, lowest index on ties
        k, rows = np.argmax(v, -1), np.arange(len(X))
        return v[rows, k], g[rows, k], v, errors
    values, W = np.add.reduce(v * weights, -1), weights
    if weight_budget > 0.0 and mode in (Mode.WEIGHT_ROBUST, Mode.GAUSSIAN_WEIGHT_ROBUST):
        # weights with p_k = 0 can never receive mass (infinite divergence);
        # restrict the dual to the support
        support = weights > 0.0
        vs, ps, W = v[:, support], weights[support], np.zeros_like(v)
        for i in (i for i in range(len(X)) if i not in errors):
            try:
                value, _, _, W[i, support] = _weight_dual(vs[i], ps, weight_budget, divergence)
                values[i] = min(value, 1.0)
            except DualSolveFailed as exc:
                errors[i] = exc
    return values, np.add.reduce(W[..., None] * g, -2), v, errors


def _one(x, belief, mode, weight_budget=0.0, divergence=Divergence.KL) -> ObjectiveEval:
    """evaluate at the single point x; raises the row's error."""
    means, covs, radii = moments(belief)
    values, grads, v, errors = evaluate(np.asarray(x, dtype=float)[None], means, covs,
                                        radii[None], belief.weights, Mode(mode),
                                        weight_budget, Divergence(divergence))
    if errors:
        raise errors[0]
    return ObjectiveEval(float(values[0]), grads[0], v[0])


def eval_nonparametric(x, belief: MixtureBelief) -> ObjectiveEval:
    """Weighted mixture of nonparametric worst-case probabilities."""
    return _one(x, belief, Mode.NONPARAMETRIC)


def eval_gaussian(x, belief: MixtureBelief) -> ObjectiveEval:
    """Weighted mixture of gaussian worst-case probabilities,
    i.e. 1 - sum_k p_k Phi(g_k(x))."""
    return _one(x, belief, Mode.GAUSSIAN)


def eval_worst_component(x, belief: MixtureBelief, gaussian: bool = False) -> ObjectiveEval:
    """Largest per-component worst-case probability; ignores the mixture
    weights entirely.  Gradient is that of the attaining component, lowest
    index on ties."""
    return _one(x, belief, Mode.GAUSSIAN_WORST_COMPONENT if gaussian else Mode.WORST_COMPONENT)


def _dot(x, y):
    """sum_k x_k y_k, added left to right (the builtin sum() compensates from 3.12 on)."""
    return reduce(add, map(mul, x, y))


def _kl_weights(h, p, eps):
    """(lam, eta, unnormalized w) for KL at f = h, max h = 0; see _weight_dual."""
    total, top = reduce(add, p), [pk if hk == 0.0 else 0.0 for hk, pk in zip(h, p)]
    if eps >= -math.log(reduce(add, top) / total):
        return 0.0, 0.0, top
    mean = _dot(p, h)  # KL ~ beta^2 Var_p(h) / 2 at small beta
    beta = math.sqrt(2.0 * eps / _dot(p, [(hk - mean) * (hk - mean) for hk in h]))
    lo, hi = 0.0, math.inf
    for _ in range(100):  # safeguard; converges in about ten steps
        e = [pk * math.exp(beta * hk) for hk, pk in zip(h, p)]
        z = reduce(add, e)
        w = [ek / z for ek in e]
        mean = _dot(w, h)
        # KL(w||p) - eps, term by term: the closed form beta*mean - log(z/total)
        # cancels to below its own rounding when eps is tiny
        excess = reduce(add, [wk * math.log(wk * total / pk)
                              for wk, pk in zip(w, p) if wk > 0.0]) - eps
        lo, hi = (beta, hi) if excess < 0.0 else (lo, beta)
        slope = beta * _dot(w, [(hk - mean) * (hk - mean) for hk in h])
        step = beta - excess / slope if slope > 0.0 else math.nan
        if abs(step - beta) <= 1e-15 * beta or hi - lo <= 1e-15 * lo:
            break
        if not lo < step < hi:  # the bracket shrinks at every step, a wide one in log scale
            step = 2.0 * beta if math.isinf(hi) else math.sqrt(lo) * math.sqrt(hi) \
                if hi > 2.0 * lo > 0.0 else 0.5 * (lo + hi)
        beta = step
    return 1.0 / beta, math.log(z) / beta, w


def _chi2_weights(h, p, eps):
    """(lam, eta, unnormalized w) for chi2 at f = h, max h = 0; see _weight_dual."""
    K = len(h)
    order = sorted(range(K), key=h.__getitem__, reverse=True)  # stable
    hs, ps = [h[k] for k in order], [p[k] for k in order]
    mass, w = list(accumulate(ps)), [0.0] * K
    for e in [*(e for e in range(1, K) if hs[e] != hs[e - 1]), K]:  # tie groups end at e
        # c_S; the total mass stands for 1, so c = 0 at S = all
        c = (mass[-1] - mass[e - 1]) / mass[e - 1]
        if c > eps:
            continue
        if hs[e - 1] == 0.0:  # the top tie group alone
            return 0.0, 0.0, [pk if hk == 0.0 else 0.0 for hk, pk in zip(h, p)]
        h_s, p_s = hs[:e], ps[:e]
        # h_k - m_S from pairwise gaps, which keeps it exact at the ends of S
        dev = [_dot([hk - hj for hj in h_s], p_s) / mass[e - 1] for hk in h_s]
        m_s = h_s[0] - dev[0]
        u = math.sqrt((eps - c) / _dot(p_s, [d * d for d in dev]))
        # w_k / p_k = 1 + u (h_k - eta) = 1 + c + u (h_k - m_s)
        if e == K or 1.0 + c + u * (hs[e] - m_s) <= 0.0:
            break
    for k, pk, d in zip(order, p_s, dev):
        w[k] = max(pk * (1.0 + c + u * d), 0.0)
    return 0.5 / u, m_s - c / u, w


def _weight_dual(f: np.ndarray, p: np.ndarray, eps: float, divergence: Divergence):
    """max { w.f : w in the simplex, D(w||p) <= eps } from its KKT conditions;
    returns (value, lam, eta, w), lam and eta the multipliers of the budget
    and of sum(w) = 1.  P_top is the nominal mass on argmax f, ties included.

    KL:   w ~ p exp(beta (f - max f)), beta = 1/lam.  lam = 0 and w = p on
          argmax f if eps >= -log P_top.  Otherwise KL(w_beta||p) = eps,
          whose left side rises in beta with slope beta Var_w(f), is solved
          by safeguarded Newton with a bisection fallback inside a kept
          bracket; eta = max f + lam log sum_k p_k exp((f_k - max f)/lam).
    Chi2: w_k = p_k (1 + u (f_k - eta)) on the active set S, u = 1/(2 lam).
          For the top-j set S of f sorted descending, ties together, with
          mass P_S, mean m_S, spread V_S = sum_S p (f - m_S)^2 and
          c_S = (1 - P_S)/P_S:  u = sqrt((eps - c_S)/V_S), eta = m_S - c_S/u.
          S is the first set that leaves the next component a nonpositive
          weight; the top tie group alone (V_S = 0) with c_S <= eps gives
          lam = 0.
    Both run on (f - max f)/range(f), so near-tie gaps neither round nor
    underflow.  The value is w.f, max f exactly when lam = 0; f must be finite.
    """
    f, p = f.tolist(), p.tolist()
    if not all(map(math.isfinite, f)):
        raise DualSolveFailed(f"component values {f} are not all finite")
    m = max(f)
    h = [fk - m for fk in f]
    scale = -min(h) or 1.0
    solve = _kl_weights if divergence is Divergence.KL else _chi2_weights
    lam, eta, w = solve([hk / scale for hk in h], p, eps)
    total = reduce(add, w)
    w = [wk / total for wk in w]
    value, nominal = m + _dot(w, h), _dot(p, f)
    if not math.isfinite(value):
        raise DualSolveFailed("inner weight-robust maximization returned no usable optimum")
    if value < nominal - 1e-8:
        raise DualSolveFailed(f"dual value {value} fell below the nominal mixture value {nominal}")
    return value, scale * lam, m + scale * eta, np.array(w)


def eval_weight_robust(
    x,
    belief: MixtureBelief,
    weight_budget: float,
    divergence: Divergence = Divergence.KL,
    gaussian: bool = False,
) -> ObjectiveEval:
    """Worst case over mixture weights within a phi-divergence ball of
    radius `weight_budget` around the nominal weights.

    weight_budget == 0 collapses the ball to the nominal weights and the
    value reduces exactly to the plain mixture objective.
    """
    mode = Mode.GAUSSIAN_WEIGHT_ROBUST if gaussian else Mode.WEIGHT_ROBUST
    return _one(x, belief, mode, weight_budget, divergence)
