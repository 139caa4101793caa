"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here recomputes expected values by a route different from the
library code: the worst-case value-at-risk curves and root bisection on
them, dense grid search for projections and minimum budgets, and simplex
enumeration for the weight-robust objective, a cell-by-cell CSV reader,
a filter-first dataset CSV reader and a row-by-row csv.writer dataset
writer.
"""

import csv
import math
from dataclasses import replace

import numpy as np
from scipy.special import ndtr, ndtri

from robust_recourse.errors import MissingLabel, NonNumeric, ParseError, RecourseError
from robust_recourse.estimation import LabeledDataset
from robust_recourse.model import Cost


class BetaOutOfRange(RecourseError):
    """Risk level beta outside the valid interval of a value-at-risk curve."""


def var_nonparametric(a, b, c, beta):
    """Worst-case value-at-risk at level beta over the moment ball, for
    the triple (a, b, c):

        a + sqrt((1 - beta)/beta) * b + c / sqrt(beta).
    """
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    return a + math.sqrt((1.0 - beta) / beta) * b + c / math.sqrt(beta)


def var_gaussian(a, b, c, beta):
    """Worst-case value-at-risk at level beta over the Gaussian ball:

        a + z*b + c*sqrt(1 + z^2),  z = Phi^{-1}(1 - beta).

    Only valid for beta in (0, 1/2]; beyond 1/2 the underlying problem
    becomes non-convex and is rejected.
    """
    if not 0.0 < beta <= 0.5:
        raise BetaOutOfRange(f"beta must lie in (0, 0.5], got {beta}")
    z = float(ndtri(1.0 - beta))
    return a + z * b + c * math.sqrt(1.0 + z * z)


def triple(x, comp):
    """(a, b, c) = (-m^T x, sqrt(x^T S x), rho*||x||) of x under the
    component comp, by BLAS dot products."""
    x = np.asarray(x, dtype=float)
    return (-float(comp.mean @ x), math.sqrt(float(x @ comp.cov @ x)),
            comp.radius * float(np.linalg.norm(x)))


def wc_prob_nonparametric_bisect(a, b, c, iters=100):
    """Root in beta of  a + sqrt((1-beta)/beta)*b + c/sqrt(beta) = 0.

    The curve is strictly decreasing in beta, +inf at 0+ and a+c < 0 at 1,
    so the root is the worst-case probability."""
    assert a + c < 0

    def curve(beta):
        return a + math.sqrt((1.0 - beta) / beta) * b + c / math.sqrt(beta)

    lo, hi = 1e-300, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if curve(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wc_prob_gaussian_bisect(a, b, c, iters=200):
    """Root in z >= 0 of  a + b*z + c*sqrt(1+z^2) = 0, mapped to
    1 - Phi(z*).  The left side is increasing in z and negative at 0."""
    assert a + c < 0

    def curve(z):
        return a + b * z + c * math.sqrt(1.0 + z * z)

    hi = 1.0
    while curve(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if curve(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return float(1.0 - ndtr(0.5 * (lo + hi)))


def fd_gradient(fn, x, step=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return grad


# --- simplex grid oracle for the weight-robust objective ------------------------


def _phi_div_rows(P, p_hat, divergence):
    """Row-wise D_phi(p || p_hat) for an (n, K) array of probability rows."""
    P = np.asarray(P, dtype=float)
    out = np.zeros(P.shape[0])
    for k, qk in enumerate(p_hat):
        pk = P[:, k]
        if qk == 0.0:
            out = np.where(pk > 0.0, np.inf, out)
            continue
        t = pk / qk
        if divergence == "kl":
            term = np.where(t > 0.0, t * np.log(np.maximum(t, 1e-300)) - t + 1.0, 1.0)
        else:
            term = (t - 1.0) ** 2
        out = out + qk * term
    return out


def weight_robust_grid(f, p_hat, eps, divergence, coarse=1e-3, refinements=3):
    """max of sum_k p_k f_k over the simplex cap D_phi(p || p_hat) <= eps,
    by grid search with local refinement (K = 2 or 3)."""
    f = np.asarray(f, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    K = f.size
    assert K in (2, 3)

    def value_grid(axes):
        if K == 2:
            p1 = axes[0]
            P = np.stack([p1, 1.0 - p1], axis=-1)
            P = P[np.all(P >= 0.0, axis=-1) & np.all(P <= 1.0, axis=-1)]
        else:
            # keep the simplex on the 2-D grid, then stack only the kept
            # rows: the same rows in the same order as filtering the stack
            g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            g3 = 1.0 - g1 - g2
            keep = (g1 >= 0.0) & (g1 <= 1.0) & (g2 >= 0.0) & (g2 <= 1.0)
            keep &= (g3 >= 0.0) & (g3 <= 1.0)
            P = np.stack([g1[keep], g2[keep], g3[keep]], axis=-1)
        if P.size == 0:
            return None, None
        ok = _phi_div_rows(P, p_hat, divergence) <= eps + 1e-15
        if not np.any(ok):
            return None, None
        vals = P[ok] @ f
        j = int(np.argmax(vals))
        return float(vals[j]), P[ok][j]

    best_val, best_p = value_grid([np.arange(0.0, 1.0 + coarse / 2, coarse)] * (K - 1))
    assert best_val is not None, "nominal weights must be in the cap"
    step = coarse
    for _ in range(refinements):
        width = 6.0 * step  # window safely covers the true basin
        step = width / 600.0
        axes = [
            np.clip(np.arange(best_p[i] - width, best_p[i] + width + step / 2, step), 0.0, 1.0)
            for i in range(K - 1)
        ]
        val, p = value_grid(axes)
        if val is not None and val > best_val:
            best_val, best_p = val, p
    return best_val


# --- 2-D grid oracles for projection and delta_min -------------------------------


def _one_row(spec):
    """A one-row FeasibleSetSpec with its row's arrays unstacked: x0, lower
    and upper (d,), radii (K,), delta a float or None."""
    return replace(spec, x0=spec.x0[0], radii=spec.radii[0], lower=spec.lower[0],
                   upper=spec.upper[0], delta=None if spec.delta is None else spec.delta[0])


def _feasible_mask(X, Y, spec):
    nx = np.sqrt(X**2 + Y**2)
    mask = np.ones_like(X, dtype=bool)
    for k in range(spec.thetas.shape[0]):
        mask &= (
            spec.thetas[k, 0] * X + spec.thetas[k, 1] * Y - spec.radii[k] * nx
            >= spec.margin
        )
    if spec.delta is not None:
        if spec.cost is Cost.L1:
            cost = np.abs(X - spec.x0[0]) + np.abs(Y - spec.x0[1])
        else:
            cost = np.sqrt((X - spec.x0[0]) ** 2 + (Y - spec.x0[1]) ** 2)
        mask &= cost <= spec.delta
    mask &= (X >= spec.lower[0]) & (X <= spec.upper[0])
    mask &= (Y >= spec.lower[1]) & (Y <= spec.upper[1])
    return mask


def _refine_search(objective, spec, center, width, steps, window_factor=20.0):
    """Repeatedly minimize `objective` over feasible grid windows shrinking
    toward the argmin; steps is the sequence of grid resolutions.  Windows
    stay generous relative to the previous resolution so flat valleys (l1
    costs) cannot strand the refinement in the wrong cell."""
    best = (math.inf, None)
    for step in steps:
        n = max(int(round(2 * width / step)) + 1, 11)
        xs = center[0] + np.linspace(-width, width, n)
        ys = center[1] + np.linspace(-width, width, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        mask = _feasible_mask(X, Y, spec)
        vals = np.where(mask, objective(X, Y), np.inf)
        j = np.unravel_index(np.argmin(vals), vals.shape)
        if np.isfinite(vals[j]) and vals[j] < best[0]:
            best = (float(vals[j]), np.array([X[j], Y[j]]))
        if best[1] is not None:
            center = best[1]
        width = window_factor * step
    return best


def grid_project(xp, spec, span=6.0):
    """Grid-search Euclidean projection of xp onto a 2-D feasible set,
    final resolution 1e-5."""
    xp, spec = np.asarray(xp, dtype=float), _one_row(spec)

    def objective(X, Y):
        return (X - xp[0]) ** 2 + (Y - xp[1]) ** 2

    # the window must cover both xp and the region around the set anchor
    center = 0.5 * (xp + spec.x0)
    width = 0.5 * float(np.linalg.norm(xp - spec.x0)) + span
    _, point = _refine_search(
        objective, spec, center=center, width=width,
        steps=[2e-2, 1e-3, 1e-4, 1e-5],
    )
    return point


def projection_close(got, want, xp, value_tol=1e-4, position_tol=2e-3):
    """Compare a projection against the grid oracle.

    The squared distance is flat along the boundary of the feasible set, so
    a grid with value resolution h only localizes the argmin to O(sqrt(h));
    distances are therefore compared at value_tol while positions get the
    matching sqrt-scale sanity bound.  The candidate must also never be
    farther from xp than the oracle point (the grid can only overestimate
    the true minimum distance).
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d_got = float(np.linalg.norm(got - xp))
    d_want = float(np.linalg.norm(want - xp))
    return (
        abs(d_got - d_want) <= value_tol
        and d_got <= d_want + 1e-6
        and float(np.linalg.norm(got - want)) <= position_tol
    )


def grid_delta_min(spec, span=8.0):
    """Grid-search minimum cost over a 2-D margin set, final resolution 1e-5.

    l1 costs develop several competing near-optimal boundary arcs, so the
    coarse full-region pass keeps a handful of well-separated candidate
    cells and refines each of them."""
    assert spec.delta is None
    spec = _one_row(spec)

    def objective(X, Y):
        if spec.cost is Cost.L1:
            return np.abs(X - spec.x0[0]) + np.abs(Y - spec.x0[1])
        return np.sqrt((X - spec.x0[0]) ** 2 + (Y - spec.x0[1]) ** 2)

    step0 = 8e-3
    n = int(round(2 * span / step0)) + 1
    xs = spec.x0[0] + np.linspace(-span, span, n)
    ys = spec.x0[1] + np.linspace(-span, span, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mask = _feasible_mask(X, Y, spec)
    vals = np.where(mask, objective(X, Y), np.inf)
    flat_order = np.argsort(vals, axis=None)
    candidates = []
    for idx in flat_order[:4000]:
        j = np.unravel_index(idx, vals.shape)
        if not np.isfinite(vals[j]):
            break
        point = np.array([X[j], Y[j]])
        if all(np.linalg.norm(point - c) >= 0.1 for c in candidates):
            candidates.append(point)
        if len(candidates) >= 5:
            break
    best = math.inf
    for center in candidates:
        value, _ = _refine_search(
            objective, spec, center=center, width=40 * step0, steps=[1e-3, 1e-4, 1e-5],
            window_factor=40.0,
        )
        best = min(best, value)
    return best


def l1_ball_numpy(v, radius):
    """Euclidean projection onto {w : ||w||_1 <= radius} by the sort-based
    soft threshold (Duchi et al., ICML 2008), on NumPy arrays: sort, then
    cumsum, then the last index that passes the threshold test."""
    v = np.asarray(v, dtype=float)
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


def actionability_bounds_loop(x0, actionability):
    """Lower and upper bounds of the feasible set at x0, one coordinate at
    a time: the box, then max(lower, x0) on each non-decreasing feature,
    then lower = upper = x0 on each immutable one."""
    x0 = np.asarray(x0, dtype=float)
    lower, upper = np.full(x0.size, -np.inf), np.full(x0.size, np.inf)
    if actionability.box is not None:
        lower = np.maximum(lower, actionability.box[:, 0])
        upper = np.minimum(upper, actionability.box[:, 1])
    for i in actionability.non_decreasing:
        lower[i] = max(lower[i], x0[i])
    for i in actionability.immutable:
        lower[i] = upper[i] = x0[i]
    return lower, upper


def cost_ball_numpy(xp, x0, delta, cost):
    """Euclidean projection onto {x : c(x, x0) <= delta}, the l2 radius by
    np.linalg.norm and the l1 step by l1_ball_numpy."""
    xp = np.asarray(xp, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    diff = xp - x0
    if Cost(cost) is Cost.L2:
        n = float(np.linalg.norm(diff))
        if n <= delta:
            return xp.copy()
        return x0 + (delta / n) * diff
    return x0 + l1_ball_numpy(diff, delta)


def load_csv_cellwise(path, label_column):
    """Features and 0/1 labels of a dataset CSV, read through the csv module
    with one float() per cell: rows whose cells are all blank are skipped,
    labels are binarized as value > 0.5.  Well-formed input only."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    header = [name.strip() for name in rows[0]]
    label_idx = header.index(label_column)
    X = np.array([[float(c) for i, c in enumerate(row) if i != label_idx] for row in rows[1:]])
    y = np.array([1 if float(row[label_idx]) > 0.5 else 0 for row in rows[1:]])
    return X, y


# every character that str.isspace() accepts lies below U+3001
_BLANK = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + ',"'


def load_csv_filter_first(path, label_column):
    """(dataset, feature names) of a dataset CSV, blank rows dropped first:
    every line after the header that strip(_BLANK) empties is skipped
    unless it holds an odd number of quotes or a non-blank cell, and the
    rest go to one loadtxt call.  When that fails, the first row that fails
    on its own raises NonNumeric or ParseError naming path:line.  Raises
    the errors harness.load_csv raises, with the same messages."""

    def cells(line_no, line):
        try:
            return next(csv.reader([line]))
        except csv.Error as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None

    def is_row(line_no, line):
        return bool(line.strip(_BLANK)) or line.count('"') % 2 == 1 or any(
            cell.strip() for cell in cells(line_no, line))

    def table(rows):
        t = np.loadtxt(rows, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=np.float64)
        if t.shape[1] != width or not np.isfinite(t[:, label_idx]).all():
            raise ValueError("not a table of numbers with finite labels")
        return t

    with open(path, errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in cells(1, lines[0])]
    if label_column not in header:
        raise MissingLabel(f"{path}: no column named {label_column!r} in header")
    label_idx = header.index(label_column)
    width = len(header)
    rows = [line for n, line in enumerate(lines[1:], start=2) if is_row(n, line)]
    try:
        t = table(rows) if rows else np.empty((0, width))
    except ValueError:
        for line_no, line in enumerate(lines[1:], start=2):
            try:
                if is_row(line_no, line):
                    table([line])
            except ValueError:
                row = cells(line_no, line)
                kind = NonNumeric if len(row) == width else ParseError
                raise kind(f"{path}:{line_no}: not {width} numbers with a finite label: {row}")
        raise ParseError(f"{path}: a quoted cell runs across lines")
    data = LabeledDataset(np.delete(t, label_idx, axis=1), t[:, label_idx] > 0.5)
    return data, [h for i, h in enumerate(header) if i != label_idx]


def save_dataset_csv_rowwise(path, dataset):
    """Write a dataset CSV with one csv.writer row per sample: header
    f0,...,f{d-1},label, then repr(float(v)) per feature and int(label)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*(f"f{i}" for i in range(dataset.features.shape[1])), "label"])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([*(repr(float(v)) for v in row), int(lab)])
