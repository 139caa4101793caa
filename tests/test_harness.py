import csv

import numpy as np
import pytest

from robust_recourse.errors import (
    EmptyInput,
    MissingLabel,
    NonNumeric,
    ParseError,
    TooFewSamples,
)
from robust_recourse.estimation import (
    LabeledDataset,
    bootstrap_parameters,
    fit_mixture_moments,
    train_logistic,
)
from robust_recourse.harness import (
    ProblemTemplate,
    ShiftEnsemble,
    ShiftKind,
    SyntheticConfig,
    build_shift_ensemble,
    evaluate,
    generate_recourses,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    sweep_frontier,
    write_frontier_csv,
)
from robust_recourse import feasibility as fz
from robust_recourse import harness
from robust_recourse.cli import load_recourses_csv, save_recourses_csv
from robust_recourse.errors import MaxIterExceeded
from robust_recourse.model import ActionabilitySpec, FeatureVector, LinearClassifier
from robust_recourse.optimizer import SolverConfig, solve


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        cfg = SyntheticConfig(n_per_class=50, n_shifts=3, seed=1)
        original, shifted = generate_synthetic(cfg)
        assert original.n == 100
        assert len(shifted) == 3
        assert set(np.unique(original.labels)) == {0, 1}

    def test_mean_shift_moves_class_zero(self):
        cfg = SyntheticConfig(
            n_per_class=4000, n_shifts=1, shift_kind=ShiftKind.MEAN, mu_adapt=0.1, seed=2
        )
        _, shifted = generate_synthetic(cfg)
        m0 = shifted[0].features[shifted[0].labels == 0].mean(axis=0)
        # class-0 mean moved from (-3,-3) to (-2.9,-3); tolerance ~3 sigma/sqrt(n)
        assert m0[0] == pytest.approx(-2.9, abs=3.0 / np.sqrt(4000))
        assert m0[1] == pytest.approx(-3.0, abs=3.0 / np.sqrt(4000))

    def test_cov_shift_scales_class_zero(self):
        cfg = SyntheticConfig(
            n_per_class=6000, n_shifts=2, shift_kind=ShiftKind.COV, cov_adapt=0.25, seed=3
        )
        _, shifted = generate_synthetic(cfg)
        X0 = shifted[1].features[shifted[1].labels == 0]
        # shift 2 scales the covariance by 1 + 0.25*2
        assert np.var(X0[:, 0]) == pytest.approx(1.5, rel=0.1)

    def test_zero_adapt_keeps_distribution(self):
        cfg = SyntheticConfig(n_per_class=50, n_shifts=2, mu_adapt=0.0, cov_adapt=0.0, seed=4)
        original, shifted = generate_synthetic(cfg)
        # same generator parameters; different draws but same shapes
        assert shifted[0].n == original.n

    def test_deterministic(self):
        cfg = SyntheticConfig(n_per_class=30, n_shifts=2, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a[0].features, b[0].features)
        assert all(
            np.array_equal(x.features, y.features) for x, y in zip(a[1], b[1])
        )


class TestLoadCsv:
    def test_roundtrip(self, tmp_path, rng):
        path = tmp_path / "toy.csv"
        X = rng.normal(size=(12, 3))
        y = np.array([0, 1] * 6)
        from robust_recourse.estimation import LabeledDataset

        save_dataset_csv(path, LabeledDataset(X, y))
        data, names, norm = load_csv(path, "label")
        assert data.n == 12
        assert names == ["f0", "f1", "f2"]
        assert np.allclose(data.features, X)
        assert np.array_equal(data.labels, y)

    def test_three_row_toy(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n0,0,0\n1,0,1\n0,1,1\n")
        with pytest.raises(Exception):
            load_csv(path, "label")  # n < 10 rejected by dataset validation

    def test_missing_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingLabel):
            load_csv(path, "label")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = "\n".join("1,2,0" for _ in range(9))
        path.write_text(f"a,b,label\n{rows}\n1,2\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "label")
        assert ":11:" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = "\n".join("1,2,0" for _ in range(10))
        path.write_text(f"a,b,label\n{rows}\nx,2,1\n")
        with pytest.raises(NonNumeric):
            load_csv(path, "label")

    def test_normalization(self, tmp_path, rng):
        path = tmp_path / "t.csv"
        lines = ["a,b,label"]
        for i in range(20):
            lines.append(f"{i},5,{i % 2}")
        path.write_text("\n".join(lines) + "\n")
        data, _, norm = load_csv(path, "label", normalize=True)
        assert data.features[:, 0].min() == 0.0
        assert data.features[:, 0].max() == 1.0
        # constant column maps to zero
        assert np.all(data.features[:, 1] == 0.0)
        # inverse mapping recovers original units
        back = norm.invert(data.features)
        assert back[3, 0] == pytest.approx(3.0)
        assert back[0, 1] == pytest.approx(5.0)


def tiny_pipeline(rng, n_shifts=6, n_per_class=120, rho=0.1):
    cfg = SyntheticConfig(n_per_class=n_per_class, n_shifts=n_shifts, shift_kind=ShiftKind.MEAN, seed=5)
    original, shifted = generate_synthetic(cfg)
    theta0 = train_logistic(original)
    sample = bootstrap_parameters(original, B=30, seed=5)
    belief = fit_mixture_moments(sample, K=1, seed=5).with_radius(rho)
    X = original.augmented()
    negatives = [FeatureVector(row) for row in X[X @ theta0.theta < 0][:10]]
    return original, shifted, theta0, belief, negatives


class TestEvaluate:
    def test_hand_counts(self):
        # recourses on known sides of two fixed classifiers
        inst = [FeatureVector([0.0, 0.0, 1.0]), FeatureVector([0.0, 0.0, 1.0])]
        rec = [FeatureVector([2.0, 0.0, 1.0]), FeatureVector([-2.0, 0.0, 1.0])]
        theta0 = LinearClassifier([1.0, 0.0, 0.0])
        ens = ShiftEnsemble(
            (
                LinearClassifier([1.0, 0.0, 0.0]),  # accepts rec[0] only
                LinearClassifier([-1.0, 0.0, 0.0]),  # accepts rec[1] only
            )
        )
        report = evaluate(rec, inst, theta0, ens)
        assert report.m1_validity == 0.5
        assert report.m2_validity == 0.5
        assert report.per_instance[0]["m2"] == 0.5
        assert report.l1_cost == pytest.approx(2.0)
        assert report.l2_cost == pytest.approx(2.0)

    def test_perfect_recourses(self):
        inst = [FeatureVector([1.0, 1.0, 1.0])]
        theta0 = LinearClassifier([1.0, 0.0, 0.0])
        ens = ShiftEnsemble((theta0, LinearClassifier([0.5, 0.5, 0.0])))
        report = evaluate(inst, inst, theta0, ens)
        assert report.m1_validity == 1.0
        assert report.m2_validity == 1.0
        assert report.l1_cost == 0.0

    def test_empty_rejected(self):
        theta0 = LinearClassifier([1.0, 0.0])
        with pytest.raises(EmptyInput):
            evaluate([], [], theta0, ShiftEnsemble((theta0,)))


class TestShiftEnsemble:
    def test_build_from_shifted(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, subsample=0.2, trials=8, seed=1)
        assert ens.size == 8
        assert ens.matrix().shape == (8, 3)

    def test_concat_mode_needs_original(self, rng):
        original, shifted, *_ = tiny_pipeline(rng)
        with pytest.raises(EmptyInput):
            build_shift_ensemble(shifted, trials=2, mode="concat")
        ens = build_shift_ensemble(shifted, trials=2, mode="concat", original=original)
        assert ens.size == 2

    def test_deterministic(self, rng):
        _, shifted, *_ = tiny_pipeline(rng)
        a = build_shift_ensemble(shifted, trials=4, seed=3)
        b = build_shift_ensemble(shifted, trials=4, seed=3)
        assert all(np.array_equal(x.theta, y.theta) for x, y in zip(a.classifiers, b.classifiers))

    @pytest.mark.parametrize("subsample", [0.0, -0.5, 1.5, float("nan")])
    def test_subsample_outside_unit_interval_raises(self, rng, subsample):
        _, shifted, *_ = tiny_pipeline(rng)
        with pytest.raises(TooFewSamples):
            build_shift_ensemble(shifted, subsample=subsample, trials=2)

    def test_no_two_class_subsample_raises(self):
        # one positive among 1,000 rows: at seed 0 all 50 draws of 10 rows miss it
        labels = np.zeros(1000, int)
        labels[0] = 1
        data = LabeledDataset(np.arange(2000.0).reshape(1000, 2), labels)
        with pytest.raises(TooFewSamples):
            build_shift_ensemble([data], subsample=0.01, trials=1, seed=0)


class TestGenerateRecourses:
    def test_batch_solves_and_m1(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=1.0, config=SolverConfig(restarts=1))
        results, errors = generate_recourses(template, negatives)
        assert all(e is None for e in errors)
        # mean-classifier validity is structural: the margin set enforces it
        theta_hat = belief.components[0].mean
        for res in results:
            assert res.action.values @ theta_hat > 0

    def test_pinned_cells_reuse_the_delta_min_point(self, rng, monkeypatch):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.0, config=SolverConfig(restarts=1))
        instances = negatives[:4]
        calls = []
        min_cost_point = fz.min_cost_point

        def counted(*args, **kwargs):
            calls.append(1)
            return min_cost_point(*args, **kwargs)

        monkeypatch.setattr(fz, "min_cost_point", counted)
        results, errors = generate_recourses(template, instances)
        assert all(e is None for e in errors)
        # the block's distance programs run in one call
        assert len(calls) == 1
        for x0, res in zip(instances, results):
            # the path without the carried point runs the distance program again
            again = solve(template.problem_for(x0, res.delta_min), template.config,
                          known_delta_min=res.delta_min)
            assert res.iterations == 0
            assert np.array_equal(res.action.values, again.action.values)

    def test_block_starts_are_the_kernel_projections(self, rng, monkeypatch):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, config=SolverConfig(restarts=1))
        instances = negatives[:4]
        calls = []
        project_starts = fz.project_starts

        def counted(specs, *args):
            calls.append(len(specs))
            return project_starts(specs, *args)

        monkeypatch.setattr(fz, "project_starts", counted)
        results, errors = generate_recourses(template, instances)
        assert not any(errors)
        assert calls == [4]  # the block's starts in one call
        for x0, res in zip(instances, results):
            problem = template.problem_for(x0, res.delta_min + template.delta_add)
            spec = fz.FeasibleSetSpec.from_problem(problem)
            start = project_starts([spec], template.config.proj_tol)[0]
            alone = solve(problem, template.config, known_delta_min=res.delta_min, start=start)
            assert np.array_equal(res.action.values, alone.action.values)
            assert (res.objective, res.iterations) == (alone.objective, alone.iterations)

    def test_rows_without_a_start_project_x0(self, rng, monkeypatch):
        # a row the kernel does not solve is solved as a direct call solves it
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, config=SolverConfig(restarts=1))
        instances = negatives[:3]
        monkeypatch.setattr(fz, "project_starts", lambda specs, *args: [None] * len(specs))
        results, errors = generate_recourses(template, instances)
        assert not any(errors)
        for x0, res in zip(instances, results):
            problem = template.problem_for(x0, res.delta_min + template.delta_add)
            alone = solve(problem, template.config, known_delta_min=res.delta_min)
            assert np.array_equal(res.action.values, alone.action.values)

    def test_failed_rows_pass_through_csv_to_evaluate(self, rng, tmp_path, monkeypatch):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        # feature 0 may only grow and stays at most 0: an input above 0 has
        # no feasible point
        act = ActionabilitySpec(non_decreasing=frozenset({0}),
                                box=[[-np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = ProblemTemplate(belief=belief, actionability=act,
                                   config=SolverConfig(restarts=1))
        instances = [negatives[0], FeatureVector.from_features([0.5, -3.0]), negatives[1]]

        def failing(problem, *args, **kwargs):
            if problem.x0 is instances[2]:
                raise MaxIterExceeded("the projection ran out")
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(harness, "solve", failing)
        results, errors = generate_recourses(template, instances)
        assert results[0] is not None and errors[0] is None
        assert results[1] is None and errors[1].startswith("EmptyFeasibleSet: ")
        assert results[2] is None and errors[2] == "MaxIterExceeded: the projection ran out"

        path = tmp_path / "recourses.csv"
        save_recourses_csv(path, ["a", "b", "c"], instances, results, errors)
        with open(path) as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == ["", *errors[1:]]
        ids, loaded_x0, loaded = load_recourses_csv(path)
        assert ids == ["a"]
        assert np.array_equal(loaded[0].values, results[0].action.values)
        assert np.array_equal(loaded_x0[0].values, instances[0].values)
        report = evaluate(loaded, loaded_x0, theta0, build_shift_ensemble(shifted, trials=4))
        assert len(report.per_instance) == 1
        assert report.m1_validity == 1.0

    def test_worker_pool_matches_sequential(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, config=SolverConfig(restarts=1))
        seq, _ = generate_recourses(template, negatives[:4], workers=1)
        par, _ = generate_recourses(template, negatives[:4], workers=2)
        for a, b in zip(seq, par):
            assert np.array_equal(a.action.values, b.action.values)


class TestSweep:
    def test_single_cell(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=6, seed=2)
        template = ProblemTemplate(belief=belief, config=SolverConfig(restarts=1))
        rows = sweep_frontier(template, negatives[:4], ens, [0.5], [0.1])
        assert len(rows) == 1
        assert rows[0].n_solved == 4
        assert 0.0 <= rows[0].m2_validity <= 1.0

    def test_grid_shape_and_csv(self, rng, tmp_path):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=6, seed=2)
        template = ProblemTemplate(belief=belief, config=SolverConfig(restarts=1))
        rows = sweep_frontier(template, negatives[:3], ens, [0.0, 1.0], [0.0, 0.1])
        assert len(rows) == 4
        path = tmp_path / "frontier.csv"
        write_frontier_csv(path, rows)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 4
        assert float(parsed[1]["delta_add"]) == 1.0

    def test_empty_grid_rejected(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=2, seed=2)
        template = ProblemTemplate(belief=belief)
        with pytest.raises(EmptyInput):
            sweep_frontier(template, negatives[:2], ens, [], [0.1])
