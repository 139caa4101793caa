"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import random_feasible_instance, random_pd_matrix
from oracles import (
    fd_gradient,
    grid_delta_min,
    grid_project,
    projection_close,
    triple,
    wc_prob_gaussian_bisect,
    wc_prob_nonparametric_bisect,
    weight_robust_grid,
)
from robust_recourse import feasibility as fz
from robust_recourse.cli import cli_main
from robust_recourse.estimation import bootstrap_parameters, fit_mixture_moments, train_logistic
from robust_recourse.harness import (
    ProblemTemplate,
    ShiftKind,
    SyntheticConfig,
    build_shift_ensemble,
    evaluate,
    generate_synthetic,
    sweep_frontier,
)
from robust_recourse.model import (
    ComponentMoments,
    Cost,
    Divergence,
    FeatureVector,
    LinearClassifier,
    MixtureBelief,
    Mode,
    RecourseProblem,
)
from robust_recourse.objective import (
    _weight_dual,
    eval_gaussian,
    eval_nonparametric,
    eval_weight_robust,
    eval_worst_component,
)
from robust_recourse.optimizer import SolverConfig, solve


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number} [{name}]: PASS")


def _closed_form_instances(seed, count):
    """Random (triple) instances with a + c < 0, d in {2, 5, 20}, rho in [0, 2]."""
    rng = np.random.default_rng(seed)
    dims = [2, 5, 20]
    out = []
    while len(out) < count:
        d = dims[len(out) % 3]
        x = rng.normal(size=d)
        if not np.any(x):
            continue
        direction = x / np.linalg.norm(x)
        alpha = rng.uniform(0.5, 3.5)
        theta = alpha * direction + 0.3 * rng.normal(size=d)
        margin_rate = float(theta @ x) / float(np.linalg.norm(x))
        if margin_rate <= 0.02:
            continue
        rho = float(rng.uniform(0.0, min(2.0, 0.97 * margin_rate)))
        comp = ComponentMoments(theta, random_pd_matrix(rng, d), rho)
        out.append((x, comp))
    return out


class TestCriterion1:
    def test_nonparametric_closed_form_vs_var_root(self):
        with criterion(1, "nonparametric closed form vs VaR-root bisection, 1000 instances"):
            instances = _closed_form_instances(seed=101, count=1000)
            t0 = time.perf_counter()
            worst = 0.0
            for x, comp in instances:
                a, b, c = triple(x, comp)
                assert a + c < 0
                got = eval_nonparametric(x, MixtureBelief((comp,), [1.0])).value
                want = wc_prob_nonparametric_bisect(a, b, c)
                worst = max(worst, abs(got - want))
            elapsed = time.perf_counter() - t0
            assert worst <= 1e-8, f"worst abs error {worst:.3e}"
            assert elapsed < 5.0, f"took {elapsed:.2f}s"
            print(f"\n  worst |closed form - root| = {worst:.2e} in {elapsed:.2f}s")


class TestCriterion2:
    def test_gaussian_closed_form_vs_var_root(self):
        with criterion(2, "gaussian closed form vs VaR-root bisection + rho=0 identity"):
            instances = _closed_form_instances(seed=202, count=1000)
            t0 = time.perf_counter()
            worst = 0.0
            for x, comp in instances:
                got = eval_gaussian(x, MixtureBelief((comp,), [1.0])).value
                want = wc_prob_gaussian_bisect(*triple(x, comp))
                worst = max(worst, abs(got - want))
            elapsed = time.perf_counter() - t0
            assert worst <= 1e-8, f"worst abs error {worst:.3e}"
            assert elapsed < 5.0, f"took {elapsed:.2f}s"
            # rho = 0 reduces to the plain gaussian tail probability
            worst_id = 0.0
            for x, comp in instances[:300]:
                flat = ComponentMoments(comp.mean, comp.cov, 0.0)
                got = eval_gaussian(x, MixtureBelief((flat,), [1.0])).value
                want = 1.0 - float(
                    ndtr(comp.mean @ x / math.sqrt(x @ comp.cov @ x))
                )
                worst_id = max(worst_id, abs(got - want))
            assert worst_id <= 1e-12, f"identity error {worst_id:.3e}"
            print(f"\n  worst root error {worst:.2e} in {elapsed:.2f}s; identity {worst_id:.2e}")


class TestCriterion3:
    def test_gradients_match_finite_differences(self):
        with criterion(3, "analytic gradients vs central differences, all objective modes"):
            rng = np.random.default_rng(303)
            evaluators = {
                "nonparametric": lambda y, b: eval_nonparametric(y, b),
                "gaussian": lambda y, b: eval_gaussian(y, b),
                "weight_robust": lambda y, b: eval_weight_robust(y, b, 0.15, Divergence.KL),
                "worst_component": lambda y, b: eval_worst_component(y, b),
            }
            worst = {name: 0.0 for name in evaluators}
            for name, make_eval in evaluators.items():
                checked = 0
                while checked < 20:
                    d = int(rng.integers(2, 6))
                    K = int(rng.integers(1, 4))
                    belief, x = random_feasible_instance(rng, d, K)
                    ev = make_eval(x, belief)
                    if name == "worst_component" and K > 1:
                        ordered = np.sort(ev.component_values)
                        if ordered[-1] - ordered[-2] < 1e-3:
                            continue
                    fd = fd_gradient(lambda y: make_eval(y, belief).value, x, step=1e-6)
                    scale = max(float(np.max(np.abs(fd))), 1e-12)
                    rel = float(np.max(np.abs(ev.gradient - fd))) / scale
                    worst[name] = max(worst[name], rel)
                    assert rel <= 1e-5, f"{name}: rel {rel:.2e}"
                    checked += 1
            print("\n  worst relative errors:", {k: f"{v:.1e}" for k, v in worst.items()})


def _random_2d_margin_spec(rng):
    K = int(rng.integers(1, 3))
    base = rng.normal(size=2)
    base /= np.linalg.norm(base)
    thetas = np.array(
        [(base + 0.3 * rng.normal(size=2)) * rng.uniform(0.5, 2.0) for _ in range(K)]
    )
    radii = rng.uniform(0.0, 0.4, size=K)
    if np.any(radii >= np.linalg.norm(thetas, axis=1) - 0.05):
        return None
    x0 = -base * rng.uniform(0.5, 2.0) + 0.3 * rng.normal(size=2)
    cost = Cost.L1 if rng.integers(2) else Cost.L2
    return fz.FeasibleSetSpec(
        x0=x0,
        delta=None,
        cost=cost,
        margin=0.01,
        thetas=thetas,
        radii=radii,
        lower=np.full(2, -np.inf),
        upper=np.full(2, np.inf),
    )


class TestCriterion4:
    def test_projection_and_delta_min_vs_grid(self):
        with criterion(4, "projection and delta_min vs 2-D grid oracles, 50 instances"):
            rng = np.random.default_rng(404)
            t0 = time.perf_counter()
            done = 0
            worst_dm = 0.0
            while done < 50:
                spec = _random_2d_margin_spec(rng)
                if spec is None:
                    continue
                dm = fz.delta_min(spec)
                dm_grid = grid_delta_min(spec)
                worst_dm = max(worst_dm, abs(dm - dm_grid))
                assert abs(dm - dm_grid) <= 1e-3, f"delta_min err {abs(dm - dm_grid):.2e}"
                full = replace(spec, delta=dm + float(rng.uniform(0.3, 1.5)))
                xp = rng.normal(size=2) * 2.5
                got = fz.project_feasible(xp, full, max_iter=20000)
                want = grid_project(xp, full)
                assert fz.is_feasible(got, full, 1e-7)
                assert projection_close(got, want, xp), (
                    f"projection mismatch: got {got}, grid {want}"
                )
                done += 1
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, f"took {elapsed:.1f}s"
            print(f"\n  50 instances in {elapsed:.1f}s; worst delta_min err {worst_dm:.2e}")


class TestCriterion5:
    def test_weight_robust_dual_vs_simplex_grid(self):
        with criterion(5, "weight-robust dual vs simplex grid, KL and Chi2"):
            rng = np.random.default_rng(505)
            worst = 0.0
            for i in range(100):
                K = int(rng.integers(2, 4))
                f = rng.uniform(0.0, 1.0, size=K)
                p_hat = rng.dirichlet(np.ones(K))
                eps = float(rng.uniform(1e-3, 1.0))
                divergence = Divergence.KL if i % 2 == 0 else Divergence.CHI2
                value = _weight_dual(f, p_hat, eps, divergence)[0]
                grid = weight_robust_grid(f, p_hat, eps, divergence.value)
                worst = max(worst, abs(value - grid))
                assert abs(value - grid) <= 1e-4, (
                    f"tuple {i} ({divergence}): dual {value:.8f} vs grid {grid:.8f}"
                )
            # zero budget collapses to the nominal mixture, tight tolerance
            for _ in range(20):
                belief, x = random_feasible_instance(rng, 3, 3)
                zero = eval_weight_robust(x, belief, 0.0).value
                nominal = eval_nonparametric(x, belief).value
                assert abs(zero - nominal) <= 1e-10
            # huge budget approaches the worst supported component
            for i in range(20):
                K = int(rng.integers(2, 4))
                f = rng.uniform(0.0, 1.0, size=K)
                p_hat = rng.dirichlet(np.ones(K))
                divergence = Divergence.KL if i % 2 == 0 else Divergence.CHI2
                value = _weight_dual(f, p_hat, 1e3, divergence)[0]
                assert abs(value - f.max()) <= 1e-4
            print(f"\n  worst |dual - grid| over 100 tuples: {worst:.2e}")


def _synthetic_belief_bank(seed, mu=0.7, adapt=0.25, B=40, l2_reg=0.05):
    """Recourse-problem family for the descent suite.

    Overlapping two-gaussian classes (features min-max normalized to [0, 1]
    as in the evaluation protocol), parameter clouds from regularized
    bootstrap retraining on the original plus one strongly shifted dataset
    per shift type, clustered into K in {1, 2, 3} well-separated
    components.  Returns [(belief, negative instances)] per K.
    """
    datasets = []
    for i, kind in enumerate(ShiftKind):
        config = SyntheticConfig(
            mu0=(-mu, -mu),
            mu1=(mu, mu),
            n_per_class=400,
            shift_kind=kind,
            mu_adapt=adapt,
            cov_adapt=adapt,
            n_shifts=6,
            seed=seed + i,
        )
        datasets.append(generate_synthetic(config))
    original = datasets[0][0]
    lo = original.features.min(axis=0)
    spread = original.features.max(axis=0) - lo

    def normalize(ds):
        from robust_recourse.estimation import LabeledDataset

        return LabeledDataset((ds.features - lo) / spread, ds.labels)

    orig_n = normalize(original)
    theta0 = train_logistic(orig_n, l2_reg=l2_reg)
    clouds = [bootstrap_parameters(orig_n, B=B, seed=seed, l2_reg=l2_reg).thetas]
    for j, (_, shifted) in enumerate(datasets):
        clouds.append(
            bootstrap_parameters(
                normalize(shifted[-1]), B=B, seed=seed + 10 + j, l2_reg=l2_reg
            ).thetas
        )
    X = orig_n.augmented()
    negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0.0]]
    from robust_recourse.estimation import ParameterSample

    bank = []
    for K in (1, 2, 3):
        pool = np.vstack(clouds[:K]) if K > 1 else clouds[0]
        bank.append((fit_mixture_moments(ParameterSample(pool), K=K, seed=seed), negatives))
    return bank


class TestCriterion6:
    # the stationarity-rate suite runs the four smooth objective modes;
    # the worst-component objective is a pointwise max, nonsmooth at ties,
    # where a fixed-step prox-gradient method has no stationarity-decay
    # guarantee (it keeps its monotonicity and feasibility checks below)
    SMOOTH_MODES = [
        Mode.NONPARAMETRIC,
        Mode.GAUSSIAN,
        Mode.WEIGHT_ROBUST,
        Mode.GAUSSIAN_WEIGHT_ROBUST,
    ]

    def _run_one(self, belief, x0, mode, rho, delta_add):
        problem = RecourseProblem(
            x0=x0,
            belief=belief.with_radius(rho),
            delta=2.0**10,
            margin=1e-3,
            cost=Cost.L1,
            mode=mode,
            weight_budget=0.1,
        )
        dmin = fz.delta_min(fz.FeasibleSetSpec.from_problem(problem))
        problem = replace(problem, delta=dmin + delta_add)
        spec = fz.FeasibleSetSpec.from_problem(problem)
        trace = []
        config = SolverConfig(restarts=1, max_iter=200, station_tol=1e-4)
        t0 = time.perf_counter()  # the lone distance program included
        res = solve(problem, config, callback=lambda t, x, v: trace.append((x.copy(), v)))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
        values = [v for _, v in trace]
        assert all(
            b <= a for a, b in zip(values, values[1:])
        ), "objective increased on an accepted step"
        for x, _ in trace:
            assert fz.is_feasible(x, spec, 1e-7), "infeasible iterate"
        return res, elapsed

    def test_descent_behavior_on_200_problems(self):
        with criterion(6, "descent: monotone, feasible iterates, 95% reach stationarity"):
            bank = _synthetic_belief_bank(606)
            rng = np.random.default_rng(606)
            solved = 0
            converged = 0
            slow = 0.0
            problem_index = 0
            while solved < 200:
                belief, negatives = bank[problem_index % len(bank)]
                mode = self.SMOOTH_MODES[problem_index % len(self.SMOOTH_MODES)]
                x0 = negatives[int(rng.integers(len(negatives)))]
                rho = float(rng.choice([0.0, 0.05, 0.1]))
                delta_add = float(rng.uniform(0.1, 0.4))
                problem_index += 1
                res, elapsed = self._run_one(belief, x0, mode, rho, delta_add)
                slow = max(slow, elapsed)
                solved += 1
                if res.converged and res.iterations <= 200:
                    converged += 1
            rate = converged / solved
            assert rate >= 0.95, f"only {rate:.1%} converged"
            print(f"\n  200 solves: {rate:.1%} converged, slowest {slow*1e3:.0f} ms")

    def test_worst_component_descent_stays_monotone_and_feasible(self):
        # the max objective gets the same descent checks, without the
        # stationarity-rate requirement (ties break smoothness)
        bank = _synthetic_belief_bank(606)
        rng = np.random.default_rng(607)
        for mode in (Mode.WORST_COMPONENT, Mode.GAUSSIAN_WORST_COMPONENT):
            for _ in range(10):
                belief, negatives = bank[int(rng.integers(len(bank)))]
                x0 = negatives[int(rng.integers(len(negatives)))]
                self._run_one(belief, x0, mode, 0.05, float(rng.uniform(0.1, 0.4)))


@pytest.fixture(scope="module")
def replication():
    """Shared setup for the scaled synthetic replication (criterion 7)."""
    t_start = time.perf_counter()
    seed = 707
    original, shifted = generate_synthetic(
        SyntheticConfig(n_per_class=500, shift_kind=ShiftKind.MEAN, n_shifts=33, seed=seed)
    )
    for kind, count, offset in (
        (ShiftKind.COV, 33, 1),
        (ShiftKind.BOTH, 34, 2),
    ):
        _, extra = generate_synthetic(
            SyntheticConfig(n_per_class=500, shift_kind=kind, n_shifts=count, seed=seed + offset)
        )
        shifted.extend(extra)
    assert len(shifted) == 100
    theta0 = train_logistic(original)
    sample = bootstrap_parameters(original, B=100, seed=seed)
    belief = fit_mixture_moments(sample, K=1, seed=seed)
    X = original.augmented()
    negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0.0][:60]]
    assert len(negatives) >= 50
    ensemble = build_shift_ensemble(shifted, subsample=0.2, trials=100, seed=seed)
    return {
        "theta0": theta0,
        "belief": belief,
        "negatives": negatives,
        "ensemble": ensemble,
        "t_start": t_start,
    }


class TestCriterion7:
    def test_scaled_synthetic_replication(self, replication):
        with criterion(7, "scaled synthetic replication: validity, ablation gap, frontier"):
            belief = replication["belief"]
            negatives = replication["negatives"]
            ensemble = replication["ensemble"]
            template = ProblemTemplate(
                belief=belief.with_radius(0.1),
                delta_add=1.0,
                margin=1e-3,
                cost=Cost.L1,
                mode=Mode.NONPARAMETRIC,
                config=SolverConfig(lambda_ls=0.7, zeta=1.0, restarts=1),
            )
            rows = sweep_frontier(
                template,
                negatives,
                ensemble,
                deltas_add=[0.0, 0.5, 1.0, 2.0],
                rhos=[0.0, 0.1],
            )
            by_cell = {(r.delta_add, r.rho): r for r in rows}
            for row in rows:
                assert row.n_failed == 0, f"cell {row.delta_add}/{row.rho}: {row.note}"

            # (a) validity under the nominal mean classifier is exactly 1
            from robust_recourse.harness import generate_recourses

            results, errors = generate_recourses(template, negatives)
            assert all(e is None for e in errors)
            recourses = [r.action for r in results]
            nominal_clf = LinearClassifier(belief.components[0].mean)
            report = evaluate(recourses, negatives, nominal_clf, ensemble)
            assert report.m1_validity == 1.0, f"m1 = {report.m1_validity}"

            # (b) robust run beats the rho=0, delta_add=0 ablation by >= 0.05
            m2_main = by_cell[(1.0, 0.1)].m2_validity
            m2_ablation = by_cell[(0.0, 0.0)].m2_validity
            assert m2_main >= m2_ablation + 0.05, (
                f"m2 {m2_main:.3f} vs ablation {m2_ablation:.3f}"
            )

            # robustness dominance per shift type: the ambiguity radius never
            # hurts, and strictly helps for at least one type of shift
            rho_ablation, _ = generate_recourses(
                ProblemTemplate(
                    belief=belief.with_radius(0.0),
                    delta_add=1.0,
                    margin=1e-3,
                    cost=Cost.L1,
                    mode=Mode.NONPARAMETRIC,
                    config=SolverConfig(lambda_ls=0.7, zeta=1.0, restarts=1),
                ),
                negatives,
            )
            Xr_main = np.array([r.action.values for r in results])
            Xr_abl = np.array([r.action.values for r in rho_ablation])
            thetas_ens = ensemble.matrix()
            # ensemble classifier t was trained on shifted dataset t: the
            # first 33 are mean shifts, then 33 covariance, then 34 both
            type_slices = {"mean": slice(0, 33), "cov": slice(33, 66), "both": slice(66, 100)}
            strict = 0
            per_type = {}
            for name, sl in type_slices.items():
                votes_main = float((Xr_main @ thetas_ens[sl].T >= 0.0).mean())
                votes_abl = float((Xr_abl @ thetas_ens[sl].T >= 0.0).mean())
                per_type[name] = (votes_main, votes_abl)
                assert votes_main >= votes_abl - 1e-9, f"{name}: {votes_main} < {votes_abl}"
                if votes_main > votes_abl + 1e-9:
                    strict += 1
            assert strict >= 1, f"no strict per-type improvement: {per_type}"

            # (c) frontier monotone in delta_add at rho = 0.1
            frontier = [by_cell[(da, 0.1)] for da in (0.0, 0.5, 1.0, 2.0)]
            costs = [r.mean_l1_cost for r in frontier]
            m2s = [r.m2_validity for r in frontier]
            assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:])), costs
            assert all(b >= a - 1e-9 for a, b in zip(m2s, m2s[1:])), m2s

            elapsed = time.perf_counter() - replication["t_start"]
            assert elapsed < 600.0, f"took {elapsed:.0f}s"
            print(
                f"\n  m1=1.0, m2 {m2_main:.3f} vs ablation {m2_ablation:.3f}, "
                f"frontier m2 {[round(v, 3) for v in m2s]}, "
                f"cost {[round(c, 3) for c in costs]}, total {elapsed:.0f}s"
            )


class TestCriterion8:
    def test_worst_component_mode(self):
        with criterion(8, "worst-component objective: max, dominance, weight invariance"):
            rng = np.random.default_rng(808)
            for _ in range(60):
                belief, x = random_feasible_instance(rng, 3, 3)
                ev = eval_worst_component(x, belief)
                per_k = ev.component_values
                assert ev.value == per_k.max()
                assert ev.value >= eval_nonparametric(x, belief).value - 1e-14
                for _ in range(3):
                    other = MixtureBelief(belief.components, rng.dirichlet(np.ones(3)))
                    assert eval_worst_component(x, other).value == ev.value
            print("\n  60 random K=3 instances checked")


class TestCriterion9:
    def test_pipeline_determinism(self, tmp_path):
        with criterion(9, "byte-identical pipeline reruns under a fixed seed"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                json.dumps(
                    {
                        "K": 1,
                        "rho": [0.1],
                        "delta_add": 1.0,
                        "bootstrap": {"B": 25},
                        "m2": {"trials": 20},
                        "synthetic": {"n_per_class": 150},
                    }
                )
            )
            outputs = []
            for run in ("a", "b"):
                base = tmp_path / run
                base.mkdir()
                data = base / "data"
                assert cli_main([
                    "synth", "--config", str(cfg), "--out", str(data),
                    "--seed", "17", "--n-shifts", "9", "--kind", "all",
                ]) == 0
                belief = base / "belief.json"
                assert cli_main([
                    "estimate", "--config", str(cfg), "--data", str(data / "original.csv"),
                    "--out", str(belief), "--seed", "17",
                ]) == 0
                recourses = base / "recourses.csv"
                assert cli_main([
                    "generate", "--config", str(cfg), "--belief", str(belief),
                    "--data", str(data / "original.csv"), "--out", str(recourses),
                    "--max-instances", "10", "--seed", "17",
                ]) == 0
                report = base / "report"
                shifted = sorted(str(p) for p in data.glob("shift_*.csv"))
                assert cli_main([
                    "evaluate", "--config", str(cfg), "--belief", str(belief),
                    "--recourses", str(recourses), "--out", str(report),
                    "--seed", "17", "--shifted", *shifted,
                ]) == 0
                outputs.append(
                    {
                        "original": (data / "original.csv").read_bytes(),
                        "belief": belief.read_bytes(),
                        "recourses": recourses.read_bytes(),
                        "report_json": (base / "report.json").read_bytes(),
                        "report_csv": (base / "report.csv").read_bytes(),
                    }
                )
            for key in outputs[0]:
                assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
            print("\n  all pipeline artifacts byte-identical across reruns")
