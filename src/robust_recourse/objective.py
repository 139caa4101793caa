"""Objective variants built from the per-component worst-case probabilities.

All four variants map an action x to a probability of the unfavorable
outcome under the belief about future model parameters:

* mixture:          sum_k p_k * f_k(x)            (f_k = per-component worst case)
* worst component:  max_k f_k(x)
* weight robust:    sup over mixture weights within a phi-divergence ball
                    of radius eps around p of  sum_k w_k f_k(x), computed
                    through its convex dual   min_{lam>=0, eta}  eta + eps*lam
                    + lam * sum_k p_k phi*((f_k(x) - eta)/lam)

each in a nonparametric and a gaussian flavor.  Gradients are assembled
analytically by the chain rule over the scalars (a, b, c); the weight-robust
gradient uses the envelope theorem at the inner dual optimum, with the
worst-case weights recovered from the first-order conditions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DualSolveFailed, InfeasibleMargin, ZeroAction
from .model import Divergence, MixtureBelief
from .worst_case import closed_form

_LAMBDA_FLOOR = 1e-12  # analytic lambda -> 0 boundary of the dual
_LOG_LAMBDA_LO = -8.0
_LOG_LAMBDA_HI = 4.0
_LOG_LAMBDA_CAP = 16.0
_GOLDEN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ObjectiveEval:
    """Value, gradient and per-component diagnostics of one evaluation."""

    value: float
    gradient: np.ndarray
    component_values: np.ndarray
    inner_dual: tuple | None = None


def _component_stats(x, belief: MixtureBelief, gaussian: bool):
    """Per-component worst-case probabilities and their gradients.

    The closed forms come from worst_case.closed_form; only the chain rule
    through a = -m^T x, b = sqrt(x^T S x) and c = rho*||x|| lives here.
    Returns (values, grads) with shapes (K,) and (K, d).  Raises
    InfeasibleMargin listing every component whose robust margin
    theta^T x - rho*||x|| is not strictly positive.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ZeroAction("objective undefined at x = 0")
    K = belief.n_components
    d = x.size
    values = np.empty(K)
    grads = np.empty((K, d))
    nx = float(np.linalg.norm(x))
    bad = []
    for k, comp in enumerate(belief.components):
        a = -float(comp.mean @ x)
        Sx = comp.cov @ x
        b = math.sqrt(max(float(x @ Sx), 0.0))
        c = comp.radius * nx
        if a + c >= 0.0:
            bad.append(k)
            continue
        values[k], outer, d_a, d_b, d_c = closed_form(a, b, c, gaussian)
        ga = -comp.mean
        gb = Sx / b
        gc = (comp.radius / nx) * x  # zero vector when radius == 0
        grads[k] = outer * (d_a * ga + d_b * gb + d_c * gc)
    if bad:
        raise InfeasibleMargin(bad)
    return values, grads


def eval_nonparametric(x, belief: MixtureBelief) -> ObjectiveEval:
    """Weighted mixture of nonparametric worst-case probabilities."""
    v, g = _component_stats(x, belief, gaussian=False)
    w = belief.weights
    return ObjectiveEval(float(w @ v), w @ g, v)


def eval_gaussian(x, belief: MixtureBelief) -> ObjectiveEval:
    """Weighted mixture of gaussian worst-case probabilities,
    i.e. 1 - sum_k p_k Phi(g_k(x))."""
    v, g = _component_stats(x, belief, gaussian=True)
    w = belief.weights
    return ObjectiveEval(float(w @ v), w @ g, v)


def eval_worst_component(x, belief: MixtureBelief, gaussian: bool = False) -> ObjectiveEval:
    """Largest per-component worst-case probability; ignores the mixture
    weights entirely.  Gradient is that of the attaining component, lowest
    index on ties."""
    v, g = _component_stats(x, belief, gaussian=gaussian)
    k = int(np.argmax(v))
    return ObjectiveEval(float(v[k]), g[k].copy(), v)


def phi_conjugate(divergence: Divergence, s: float) -> float:
    """Convex conjugate phi*(s) = sup_{t>=0} (t*s - phi(t)).

    KL   (phi(t) = t log t - t + 1):  phi*(s) = e^s - 1
    Chi2 (phi(t) = (t - 1)^2):        phi*(s) = s + s^2/4 for s >= -2, else -1
    """
    divergence = Divergence(divergence)
    if divergence is Divergence.KL:
        return math.exp(s) - 1.0 if s < 709.0 else math.inf
    if s < -2.0:
        return -1.0
    return s + 0.25 * s * s


def _kl_dual_value(lam: float, f: np.ndarray, p: np.ndarray, eps: float):
    """min over eta of the KL dual at fixed lam, in closed form:
    eta* = lam * log sum_k p_k exp(f_k/lam) and the eta-terms telescope."""
    m = float(f.max())
    z = p @ np.exp((f - m) / lam)
    eta = m + lam * math.log(z)
    return eta + eps * lam, eta


def _chi2_eta(lam: float, f: np.ndarray, p: np.ndarray) -> float:
    """Root of 1 = sum_k p_k (phi*)'((f_k - eta)/lam) for the chi-square
    conjugate.  (phi*)' is piecewise linear with kinks at eta = f_k + 2 lam,
    so the root is found exactly segment by segment."""
    kinks = f + 2.0 * lam
    order = np.argsort(kinks)
    lo = float(f.min())
    # walk segments from the highest kink down; active set = {k : kinks_k >= eta}
    bounds = np.concatenate([[lo], kinks[order]])
    P = 0.0
    S = 0.0
    for j in range(len(order) - 1, -1, -1):
        k = order[j]
        P += p[k]
        S += p[k] * f[k]
        seg_lo, seg_hi = bounds[j], bounds[j + 1]
        if P <= 0.0:
            continue
        eta = (S - 2.0 * lam * (1.0 - P)) / P
        if seg_lo - 1e-15 <= eta <= seg_hi + 1e-15:
            return float(eta)
    # rounding in 2*lam*(1 - P) can push the lowest segment's root just
    # outside it; the exact root lies in that segment
    return float(min(max(eta, lo), bounds[1]))


def _chi2_dual_value(lam: float, f: np.ndarray, p: np.ndarray, eps: float):
    eta = _chi2_eta(lam, f, p)
    s = (f - eta) / lam
    terms = np.where(s >= -2.0, s + 0.25 * s * s, -1.0)
    return eta + eps * lam + lam * float(p @ terms), eta


def _weight_dual(f: np.ndarray, p: np.ndarray, eps: float, divergence: Divergence):
    """Solve min_{lam>=0, eta} of the dual; returns (value, lam, eta, weights).

    The inner eta-minimization is exact per lambda; the outer lambda search
    is golden-section on log lambda (the profile is unimodal there), with
    the bracket extended to the right when the minimizer hits the edge, and
    the analytic lam -> 0 boundary (value -> max_k f_k) entered as an extra
    candidate at lam = 1e-12.
    """
    value_at = _kl_dual_value if divergence is Divergence.KL else _chi2_dual_value

    u_lo, u_hi = _LOG_LAMBDA_LO, _LOG_LAMBDA_HI
    best = None
    while True:
        # golden-section search on u = log(lam)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = u_lo, u_hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc = value_at(math.exp(c), f, p, eps)[0]
        fd = value_at(math.exp(d), f, p, eps)[0]
        while b - a > _GOLDEN_TOL:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = value_at(math.exp(c), f, p, eps)[0]
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = value_at(math.exp(d), f, p, eps)[0]
        u_star = c if fc < fd else d
        best = (min(fc, fd), math.exp(u_star))
        if u_star < u_hi - 0.5 or u_hi >= _LOG_LAMBDA_CAP:
            break
        u_lo, u_hi = u_hi - 1.0, min(u_hi + 6.0, _LOG_LAMBDA_CAP)

    candidates = [best, (value_at(_LAMBDA_FLOOR, f, p, eps)[0], _LAMBDA_FLOOR)]
    value, lam = min(candidates, key=lambda t: t[0])
    _, eta = value_at(lam, f, p, eps)

    if divergence is Divergence.KL:
        logw = np.log(p, where=p > 0, out=np.full_like(f, -np.inf)) + f / lam
        logw -= logw.max()
        w = np.exp(logw)
    else:
        w = p * np.maximum(1.0 + (f - eta) / (2.0 * lam), 0.0)
    total = w.sum()
    if not np.isfinite(value) or total <= 0.0:
        raise DualSolveFailed("inner weight-robust minimization returned no usable optimum")
    w = w / total
    nominal = float(p @ f)
    if value < nominal - 1e-8:
        raise DualSolveFailed(
            f"dual value {value} fell below the nominal mixture value {nominal}"
        )
    return float(value), float(lam), float(eta), w


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
    if weight_budget < 0.0:
        raise DualSolveFailed(f"weight budget must be >= 0, got {weight_budget}")
    divergence = Divergence(divergence)
    v, g = _component_stats(x, belief, gaussian=gaussian)
    p = belief.weights
    if weight_budget == 0.0:
        return ObjectiveEval(float(p @ v), p @ g, v, inner_dual=None)
    # weights with p_k = 0 can never receive mass (infinite divergence);
    # restrict the dual to the support
    support = p > 0.0
    value, lam, eta, w_s = _weight_dual(v[support], p[support], weight_budget, divergence)
    w = np.zeros_like(p)
    w[support] = w_s
    return ObjectiveEval(min(value, 1.0), w @ g, v, inner_dual=(lam, eta))
