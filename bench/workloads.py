"""The benchmark's workloads: inputs drawn from the seed, the timed call,
the output checks and the answer-quality metrics.

Imported only after run.py has put this checkout's src/ on the path.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
from pathlib import Path

import numpy as np

from robust_recourse import cli, estimation, harness
from robust_recourse import feasibility as fz
from robust_recourse.model import (
    ActionabilitySpec,
    Cost,
    Divergence,
    FeatureVector,
    LinearClassifier,
    Mode,
)
from robust_recourse.optimizer import SolverConfig, make_objective

WORK_DIR = Path(__file__).resolve().parent / ".work"

# Training data, bootstrap belief and shift ensemble always come from the
# criterion-7 seed; --seed draws the applicants recourse is generated for.
# A belief fitted on other data is a different problem: across data seeds
# 701-705 throughput moved 3x and the converged rate from 0.04 to 0.21 (0.94
# at 707), so no bound could hold across --seed values.
DATA_SEED = 707
RHO = 0.1
DELTA_ADD = 1.0
MARGIN = 1e-3
OBJ_TOL = 1e-10  # slack for "no worse than the projected start"
SWEEP_DELTAS = "0,0.5,1,2"
SWEEP_RHOS = "0,0.1"


class Size:
    """Problem sizes: the full criterion-7 setting, or a tiny one for the
    smoke test."""

    def __init__(self, tiny):
        self.n_per_class = 60 if tiny else 500
        self.shifts = (2, 2, 2) if tiny else (33, 33, 34)  # mean, cov, both
        self.bootstrap = 10 if tiny else 100
        self.trials = 6 if tiny else 100
        # instances per timed call, and how many calls every run makes at
        # least; the quality metrics and the traced run cover exactly those
        self.block = {
            "k1-nonparametric": 3 if tiny else 25,
            "k3-weight-robust": 2 if tiny else 5,
            "cli-sweep": 2 if tiny else 12,
        }
        self.min_blocks = {
            "k1-nonparametric": 2 if tiny else 8,
            "k3-weight-robust": 2 if tiny else 12,
            "cli-sweep": 2,  # repeats of one sweep: its output must not change
        }


def solver_config(seed):
    # every field explicit: the benchmark must not follow library defaults
    return SolverConfig(
        lambda_ls=0.7,
        zeta=1.0,
        max_iter=200,
        station_tol=1e-4,
        max_backtracks=50,
        restarts=1,
        seed=seed,
        finite_diff=False,
        proj_max_iter=20000,
        proj_tol=1e-10,
    )


def applicants(seed, stream, n, theta0):
    """n bias-augmented points of the class-0 population N((-3, -3), I)
    that theta0 rejects; the same (seed, stream) gives the same points.

    The points are a Latin hypercube sample: every marginal is split into n
    equal-probability strata with one point each.  How hard an instance is
    depends mostly on its distance to the boundary, a linear function of
    the features, so stratifying the marginals keeps the solve cost and the
    answer quality of a block nearly the same from seed to seed.
    """
    inv_cdf = np.vectorize(statistics.NormalDist().inv_cdf)
    rng = np.random.default_rng([seed, stream])
    while True:
        strata = np.argsort(rng.random((n, 2)), axis=0)
        u = np.clip((strata + rng.random((n, 2))) / n, 1e-12, 1.0 - 1e-12)
        X = np.hstack([-3.0 + inv_cdf(u), np.ones((n, 1))])
        if np.all(X @ theta0 < 0.0):
            return X


class GenerateWorkload:
    """One harness.generate_recourses call per block over fresh negatives,
    on the criterion-7 synthetic data with a bootstrap belief."""

    def __init__(self, name, K, mode, weight_budget, seed, size):
        self.name, self.K, self.mode, self.weight_budget = name, K, mode, weight_budget
        self.seed, self.size = seed, size
        self.block_size = size.block[name]

    def setup(self):
        sz, seed = self.size, DATA_SEED
        n_mean, n_cov, n_both = sz.shifts
        original, shifted = harness.generate_synthetic(harness.SyntheticConfig(
            n_per_class=sz.n_per_class, shift_kind="mean", n_shifts=n_mean, seed=seed))
        for kind, count, offset in (("cov", n_cov, 1), ("both", n_both, 2)):
            _, extra = harness.generate_synthetic(harness.SyntheticConfig(
                n_per_class=sz.n_per_class, shift_kind=kind, n_shifts=count, seed=seed + offset))
            shifted.extend(extra)
        self.theta0 = estimation.train_logistic(original)
        sample = estimation.bootstrap_parameters(
            original, B=sz.bootstrap, subsample=0.8, seed=seed, l2_reg=1e-4)
        belief = estimation.fit_mixture_moments(sample, K=self.K, seed=seed).with_radius(RHO)
        self.nominal = LinearClassifier(belief.components[0].mean)
        self.ensemble = harness.build_shift_ensemble(
            shifted, subsample=0.2, trials=sz.trials, seed=seed, mode="shifted-only")
        self.template = harness.ProblemTemplate(
            belief=belief,
            delta_add=DELTA_ADD,
            margin=MARGIN,
            cost=Cost.L1,
            mode=self.mode,
            weight_budget=self.weight_budget,
            divergence=Divergence.KL,
            actionability=ActionabilitySpec(),
            config=solver_config(self.seed),
        )
        # warm-up on instances outside every timed block: pays the lazy
        # scipy.optimize import and first-call costs inside set-up
        warm = self.instances(-1, 2)
        _, errors = harness.generate_recourses(self.template, warm, workers=1)
        if any(errors):
            raise RuntimeError(f"warm-up solve failed: {errors}")

    def instances(self, block, n=None):
        X = applicants(self.seed, block + 1, n or self.block_size, self.theta0.theta)
        return [FeatureVector(row) for row in X]

    def run(self, instances):
        return harness.generate_recourses(self.template, instances, workers=1)

    def solves(self, instances):
        return len(instances)

    def fingerprint(self, output):
        results, errors = output
        return [
            None if r is None else
            (r.action.values.tobytes(), r.objective, r.converged, r.iterations)
            for r in results
        ], list(errors)

    def check(self, instances, output):
        """Returns (failed instance count, messages)."""
        results, errors = output
        cfg = self.template.config
        bad = {}
        for i, (x0, res, err) in enumerate(zip(instances, results, errors)):
            if res is None:
                bad[i] = f"error {err}"
                continue
            problem = self.template.problem_for(x0, res.delta_min + self.template.delta_add)
            spec = fz.FeasibleSetSpec.from_problem(problem)
            if not fz.is_feasible(res.action.values, spec):
                bad[i] = "action infeasible at delta_min + delta_add"
            elif not 0.0 <= res.objective <= 1.0:
                bad[i] = f"objective {res.objective} outside [0, 1]"
            else:
                start = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
                start_value = min(max(make_objective(problem)(start).value, 0.0), 1.0)
                if res.objective > start_value + OBJ_TOL:
                    bad[i] = f"objective {res.objective} worse than projected start {start_value}"
        if self.K == 1:
            solved = [i for i, r in enumerate(results) if r is not None]
            if solved:
                report = harness.evaluate(
                    [results[i].action for i in solved], [instances[i] for i in solved],
                    self.nominal, self.ensemble)
                for i, row in zip(solved, report.per_instance):
                    if row["m1"] != 1.0:
                        bad.setdefault(i, "rejected by the nominal mean classifier (m1 < 1)")
        return len(bad), [f"instance {i}: {msg}" for i, msg in sorted(bad.items())]

    def quality(self, blocks):
        """Answer-quality metrics over the given (instances, output) blocks."""
        instances, results = [], []
        for inst, (res, _) in blocks:
            instances.extend(inst)
            results.extend(res)
        pairs = [(x0, r) for x0, r in zip(instances, results) if r is not None]
        report = harness.evaluate([r.action for _, r in pairs], [x0 for x0, _ in pairs],
                                  self.theta0, self.ensemble)
        return {
            "m2_validity": report.m2_validity,
            "mean_objective": statistics.fmean(r.objective for _, r in pairs),
            "converged_rate": statistics.fmean(float(r.converged) for _, r in pairs),
            "mean_l1_cost": report.l1_cost,
        }

    def cleanup(self):
        pass


class SweepWorkload:
    """One in-process `cli sweep` per block over a 4x2 (delta_add x rho)
    grid, reading the CSVs and belief that `synth` and `estimate` wrote
    during set-up."""

    name = "cli-sweep"

    def __init__(self, seed, size, tracer=None):
        self.seed, self.size, self.tracer = seed, size, tracer
        self.n_instances = size.block[self.name]
        self.work = WORK_DIR / f"{self.name}-{seed}-{os.getpid()}"

    def _cli(self, stage, argv):
        span = contextlib.nullcontext()
        if self.tracer is not None:
            span = self.tracer.span_root(f"cli.stage.{stage}")
        with span, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.cli_main([stage, *argv])
        if rc != 0:
            raise RuntimeError(f"cli {stage} exited with {rc}")

    def setup(self):
        sz = self.size
        shutil.rmtree(self.work, ignore_errors=True)
        data = self.work / "data"
        self.config = self.work / "config.json"
        self.belief = self.work / "belief.json"
        self.work.mkdir(parents=True)
        cfg = {
            "mode": "nonparametric", "K": 1, "rho": [RHO], "delta_add": DELTA_ADD,
            "margin": MARGIN, "cost": "l1", "lambda_ls": 0.7, "zeta": 1.0,
            "max_iter": 200, "station_tol": 1e-4, "max_backtracks": 50, "restarts": 1,
            "weight_budget": 0.0, "divergence": "kl", "seed": DATA_SEED,
            "immutable": [], "non_decreasing": [],
            "bootstrap": {"B": sz.bootstrap, "subsample": 0.8, "l2_reg": 1e-4},
            "synthetic": {"mu0": [-3.0, -3.0], "mu1": [3.0, 3.0],
                          "n_per_class": sz.n_per_class, "mu_adapt": 0.1, "cov_adapt": 0.1},
            "m2": {"subsample": 0.2, "trials": sz.trials, "mode": "shifted-only"},
        }
        self.config.write_text(json.dumps(cfg))
        self.common = ["--config", str(self.config), "--seed", str(DATA_SEED)]
        self._cli("synth", [*self.common, "--out", str(data), "--kind", "all",
                            "--n-shifts", str(sum(sz.shifts))])
        self.original = data / "original.csv"
        self.shifted = sorted(str(p) for p in data.glob("shift_*.csv"))
        self._cli("estimate", [*self.common, "--data", str(self.original),
                               "--out", str(self.belief)])
        belief, self.theta0 = cli.load_belief(self.belief)
        # warm-up: the same solve path on applicants outside every block
        warm = [FeatureVector(r) for r in applicants(self.seed, 0, 2, self.theta0.theta)]
        template = harness.ProblemTemplate(
            belief=belief, delta_add=DELTA_ADD, margin=MARGIN, cost=Cost.L1,
            mode=Mode.NONPARAMETRIC, weight_budget=0.0, divergence=Divergence.KL,
            actionability=ActionabilitySpec(), config=solver_config(DATA_SEED))
        _, errors = harness.generate_recourses(template, warm, workers=1)
        if any(errors):
            raise RuntimeError(f"warm-up solve failed: {errors}")
        self.n_cells = len(SWEEP_DELTAS.split(",")) * len(SWEEP_RHOS.split(","))

    def instances(self, block):
        """Writes block's applicants CSV: the swept negatives first
        (--max-instances takes the first ones), then class-1 rows, because
        a dataset must hold both classes."""
        negatives = applicants(self.seed, block + 1, self.n_instances, self.theta0.theta)
        positives = np.random.default_rng([self.seed, block + 1, 1]).multivariate_normal(
            [3.0, 3.0], np.eye(2), size=max(self.n_instances, 10))
        data = self.work / f"applicants-{block}.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1", "label"])
            for rows, label in ((negatives[:, :-1], 0), (positives, 1)):
                writer.writerows([*(repr(float(v)) for v in row), label] for row in rows)
        return data

    def run(self, data):
        out = data.with_name(f"frontier-{data.stem}.csv")
        self._cli("sweep", [
            *self.common, "--data", str(data), "--belief", str(self.belief),
            "--shifted", *self.shifted, "--out", str(out),
            "--deltas", SWEEP_DELTAS, "--rhos", SWEEP_RHOS,
            "--max-instances", str(self.n_instances),
        ])
        return out.read_bytes()

    def solves(self, _):
        return self.n_instances * self.n_cells

    def fingerprint(self, output):
        return output

    @staticmethod
    def rows(output):
        return list(csv.DictReader(io.StringIO(output.decode())))

    def check(self, _, output):
        rows = self.rows(output)
        msgs = []
        failed = 0
        if len(rows) != self.n_cells:
            return self.solves(None), [f"{len(rows)} frontier rows, expected {self.n_cells}"]
        for r in rows:
            unsolved = self.n_instances - int(r["n_solved"])
            if unsolved:
                failed += unsolved
                msgs.append(f"cell {r['delta_add']}/{r['rho']}: {unsolved} unsolved, "
                            f"{r['n_failed']} failed: {r['note']}")
        frontier = sorted((float(r["delta_add"]), r) for r in rows if float(r["rho"]) == RHO)
        for key in ("mean_l1_cost", "m2_validity"):
            vals = [float(r[key]) for _, r in frontier]
            if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
                msgs.append(f"{key} not monotone in delta_add at rho={RHO}: {vals}")
                failed = self.solves(None)
        return failed, msgs

    def quality(self, blocks):
        """Grid means over every cell of the given blocks."""
        rows = [r for _, output in blocks for r in self.rows(output)]
        return {
            "m2_validity": statistics.fmean(float(r["m2_validity"]) for r in rows),
            "mean_l1_cost": statistics.fmean(float(r["mean_l1_cost"]) for r in rows),
        }

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


def make_workload(name, seed, size, tracer=None):
    """tracer, when given, times the CLI stages that cli-sweep calls."""
    if name == "k1-nonparametric":
        return GenerateWorkload(name, 1, Mode.NONPARAMETRIC, 0.0, seed, size)
    if name == "k3-weight-robust":
        return GenerateWorkload(name, 3, Mode.WEIGHT_ROBUST, 0.1, seed, size)
    return SweepWorkload(seed, size, tracer)
