import csv
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from robust_recourse.errors import (
    DimensionMismatch,
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
    FrontierRow,
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
from robust_recourse.cli import cli_main, load_recourses_csv, save_recourses_csv
from robust_recourse import objective
from robust_recourse.errors import DualSolveFailed, MaxIterExceeded
from robust_recourse.model import (
    ActionabilitySpec,
    ComponentMoments,
    Cost,
    FeatureVector,
    LinearClassifier,
    MixtureBelief,
    Mode,
)
from robust_recourse.optimizer import SolverConfig, make_objective, solve


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

    @pytest.mark.parametrize("overrides, message", [
        ({"n_per_class": 9}, "at least 10 samples per class"),
        ({"sigma0": ((1.0, 2.0), (2.0, 1.0))}, "must be positive definite"),
        ({"sigma1": ((0.0, 0.0), (0.0, 1.0))}, "must be positive definite"),
    ], ids=["n-per-class-9", "indefinite-sigma0", "singular-sigma1"])
    def test_bad_config_rejected(self, overrides, message):
        with pytest.raises(DimensionMismatch, match=message):
            SyntheticConfig(**overrides)

    def test_deterministic(self):
        cfg = SyntheticConfig(n_per_class=30, n_shifts=2, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a[0].features, b[0].features)
        assert all(
            np.array_equal(x.features, y.features) for x, y in zip(a[1], b[1])
        )


def _plain_csv():
    """Ten rows, a,b,label; features (i + 0.5, i % 3), labels alternating."""
    return "a,b,label\n" + "".join(f"{i + 0.5},{i % 3},{i % 2}\n" for i in range(10))


_PLAIN_X = np.array([[i + 0.5, i % 3] for i in range(10)])
_PLAIN_Y = np.arange(10) % 2


def _reorder(text, order):
    return "".join(",".join(line.split(",")[i] for i in order) + "\n"
                   for line in text.splitlines())


def _blank_rows(text):
    lines = text.splitlines()
    lines[3:3] = ["", ",,", "  ,\t, ", '"",""']
    lines[8:8] = ["", ""]
    return "\n".join(lines) + "\n"


# files load_csv accepts: the syntax around the numbers varies, the data do not
_EDGE_CSVS = {
    "quoted": "".join(",".join(f'"{c}"' if i < 2 else c for i, c in enumerate(line.split(",")))
                      + "\n" for line in _plain_csv().splitlines()),
    "crlf": _plain_csv().replace("\n", "\r\n"),
    "blank rows": _blank_rows(_plain_csv()),
    "padded cells": _plain_csv().replace(",", " ,  ").replace("\n", " \n"),
    "padded header": _plain_csv().replace("a,b,label", " a ,b  ,  label "),
    "label first": _reorder(_plain_csv(), [2, 0, 1]),
    "label in the middle": _reorder(_plain_csv(), [0, 2, 1]),
}


def _write(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return path


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
        assert np.array_equal(data.features, X)
        assert np.array_equal(data.labels, y)

    # edge values of repr: signed zero, subnormal, extremes, exponent switch,
    # a long shortest round-trip, integral floats
    EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1e300, 1e16, 0.1 + 0.2, 3.0, -2.0, 0.0, -1e16]

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("label_dtype", [int, bool])
    def test_save_writes_the_bytes_of_a_rowwise_csv_writer(self, tmp_path, rng, d, label_dtype):
        n = 12
        X = rng.choice(self.EDGE_VALUES, size=(n, d))
        X[:, 0] = self.EDGE_VALUES + rng.normal(size=n - len(self.EDGE_VALUES)).tolist()
        y = np.array([0, 1] * (n // 2), dtype=label_dtype)
        data = LabeledDataset(X, y)
        save_dataset_csv(tmp_path / "got.csv", data)
        oracles.save_dataset_csv_rowwise(tmp_path / "want.csv", data)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        back, names, _ = load_csv(tmp_path / "got.csv", "label")
        assert names == [f"f{i}" for i in range(d)]
        assert np.array_equal(back.features, X)
        assert np.array_equal(np.signbit(back.features), np.signbit(X))

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

    def test_quoted_cells(self, tmp_path):
        data, names, _ = load_csv(_write(tmp_path, _EDGE_CSVS["quoted"]), "label")
        assert names == ["a", "b"]
        assert data.features[:2].tolist() == [[0.5, 0.0], [1.5, 1.0]]
        assert data.labels[:2].tolist() == [0, 1]

    def test_crlf_line_endings(self, tmp_path):
        data, names, _ = load_csv(_write(tmp_path, _EDGE_CSVS["crlf"]), "label")
        assert names == ["a", "b"]
        assert np.array_equal(data.features, _PLAIN_X)

    def test_blank_rows_in_the_body_are_skipped(self, tmp_path):
        data, _, _ = load_csv(_write(tmp_path, _EDGE_CSVS["blank rows"]), "label")
        assert np.array_equal(data.features, _PLAIN_X)
        assert np.array_equal(data.labels, _PLAIN_Y)

    def test_cells_padded_with_spaces(self, tmp_path):
        data, _, _ = load_csv(_write(tmp_path, _EDGE_CSVS["padded cells"]), "label")
        assert np.array_equal(data.features, _PLAIN_X)

    def test_header_names_padded_with_spaces(self, tmp_path):
        _, names, _ = load_csv(_write(tmp_path, _EDGE_CSVS["padded header"]), "label")
        assert names == ["a", "b"]

    @pytest.mark.parametrize("key", ["label first", "label in the middle"])
    def test_label_column_anywhere(self, tmp_path, key):
        data, names, _ = load_csv(_write(tmp_path, _EDGE_CSVS[key]), "label")
        assert names == ["a", "b"]
        assert np.array_equal(data.features, _PLAIN_X)
        assert np.array_equal(data.labels, _PLAIN_Y)

    def test_single_data_row_reaches_the_dataset_check(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="at least 10 samples, got 1"):
            load_csv(_write(tmp_path, "a,b,label\n1,2,0\n"), "label")

    def test_header_only(self, tmp_path):
        with pytest.raises(DimensionMismatch):
            load_csv(_write(tmp_path, "a,b,label\n"), "label")

    def test_hash_cell_is_not_a_comment(self, tmp_path):
        with pytest.raises(NonNumeric, match=":3:"):
            load_csv(_write(tmp_path, _plain_csv().replace("\n1.5,", "\n#,", 1)), "label")

    def test_bad_cell_after_blank_lines_names_its_line(self, tmp_path):
        lines = _plain_csv().splitlines()
        lines[4:4] = ["", ",,", " , , "]
        lines[8] = "x" + lines[8]  # the fifth data row, below three blank lines
        with pytest.raises(NonNumeric, match=r"t\.csv:9: "):
            load_csv(_write(tmp_path, "\n".join(lines) + "\n"), "label")

    def test_undecodable_byte_is_non_numeric(self, tmp_path):
        path = _write(tmp_path, _plain_csv())
        path.write_bytes(path.read_bytes().replace(b"\n2.5,", b"\n2.5\xff,", 1))
        with pytest.raises(NonNumeric, match=":4:"):
            load_csv(path, "label")

    def test_lone_quote_row_is_not_skipped(self, tmp_path):
        # it opens a quoted cell that swallows the rows below it
        lines = _plain_csv().splitlines()
        lines[4:4] = ['"']
        with pytest.raises(ParseError, match=":5:"):
            load_csv(_write(tmp_path, "\n".join(lines) + "\n"), "label")

    def test_quote_left_open_across_rows(self, tmp_path):
        # each row parses alone, but the open quote merges row 2 into row 1
        text = _plain_csv().replace("\n0.5,0,0\n", '\n0.5,0,"0\n', 1)
        with pytest.raises(ParseError, match="quoted cell runs across lines"):
            load_csv(_write(tmp_path, text), "label")

    def test_underscore_digit_separator_is_non_numeric(self, tmp_path):
        # float() accepts "1_0"; the dataset syntax does not
        with pytest.raises(NonNumeric, match=":2:"):
            load_csv(_write(tmp_path, _plain_csv().replace("\n0.5,", "\n1_0,", 1)), "label")

    @pytest.mark.parametrize("key", sorted(_EDGE_CSVS))
    def test_edge_cases_match_cellwise_parse(self, tmp_path, key):
        path = _write(tmp_path, _EDGE_CSVS[key])
        data, _, _ = load_csv(path, "label")
        X, y = oracles.load_csv_cellwise(path, "label")
        assert np.array_equal(data.features, X) and np.array_equal(data.labels, y)

    def test_csv_module_error_names_the_line(self, tmp_path, monkeypatch):
        # Python 3.10's csv module rejects a NUL byte (3.11 reads it as a cell)
        reader = csv.reader

        def reader_310(lines):
            lines = list(lines)
            if any("\0" in line for line in lines):
                raise csv.Error("line contains NUL")
            return reader(lines)

        monkeypatch.setattr(harness.csv, "reader", reader_310)
        path = _write(tmp_path, _plain_csv().replace("\n2.5,", "\n2.5\0,", 1))
        with pytest.raises(ParseError, match=r"t\.csv:4: line contains NUL$"):
            load_csv(path, "label")
        with pytest.raises(ParseError, match=r"t\.csv:1: line contains NUL$"):
            load_csv(_write(tmp_path, "a\0" + _plain_csv()[1:]), "label")

    @pytest.mark.parametrize("row", [1, 3], ids=["header", "blank-row"])
    def test_cell_over_the_field_limit_names_the_line(self, tmp_path, row):
        lines = _plain_csv().splitlines()
        lines[row - 1 : row - 1] = ['"' + " " * (csv.field_size_limit() + 1) + '"']
        with pytest.raises(ParseError, match=f"t\\.csv:{row}: field larger than field limit"):
            load_csv(_write(tmp_path, "\n".join(lines) + "\n"), "label")

    def test_nul_byte_exits_2_with_one_line(self, tmp_path, capsys):
        path = _write(tmp_path, _plain_csv().replace("\n2.5,", "\n2.5\0,", 1))
        code = cli_main(["estimate", "--data", str(path), "--out", str(tmp_path / "b.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and ":4: " in err and err.count("\n") == 1

    def test_synth_outputs_match_cellwise_parse(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"synthetic": {"n_per_class": 200}}')
        assert cli_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data"),
                         "--seed", "11", "--n-shifts", "6", "--kind", "all"]) == 0
        paths = sorted((tmp_path / "data").glob("*.csv"))
        assert len(paths) == 7
        for path in paths:
            data, _, _ = load_csv(path, "label")
            X, y = oracles.load_csv_cellwise(path, "label")
            assert np.array_equal(data.features, X) and np.array_equal(data.labels, y), path


# rows that strip(harness._BLANK) empties; only the first is a line loadtxt skips
_BLANKISH = ["", "  ", ",,", " , ", '""', "\t", "\x0c", "　"]


@st.composite
def _mixed_csvs(draw):
    """A CSV text: numeric rows (cells quoted at random) with blank-ish rows
    between them, maybe a lone quote or a bad row, LF or CRLF line ends and
    trailing empty lines."""
    numbers = st.floats(-1e6, 1e6, allow_subnormal=False)
    lines = []
    for i in range(draw(st.integers(0, 12))):
        cells = [repr(draw(numbers)), repr(draw(numbers)), str(i % 2)]
        quoted = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        lines.append(",".join(f'"{c}"' if q else c for c, q in zip(cells, quoted)))
    odd = draw(st.sampled_from(['"', "x,1,0", "1,2", "1,2,nan"]))
    for line in draw(st.lists(st.sampled_from(_BLANKISH + [odd]), max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(["a,b,label", *lines]) + eol * draw(st.integers(0, 3))


def _outcome(read, path):
    """What reading path gives: its features, labels and names, or the
    type and message of what it raised; a warning counts as raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, names = read(path)[:2]
    except Exception as exc:  # noqa: BLE001  any difference must show
        return type(exc), str(exc)
    return data.features.tolist(), data.labels.tolist(), names


@settings(max_examples=300, deadline=None)
@given(text=_mixed_csvs())
def test_load_csv_matches_filter_first_parse(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mixed.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda p: load_csv(p, "label"), path) == _outcome(
        lambda p: oracles.load_csv_filter_first(p, "label"), path)


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

    def test_dimension_mismatch_rejected(self):
        theta0 = LinearClassifier([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            evaluate([FeatureVector([1.0, 0.0, 1.0])], [FeatureVector([1.0, 1.0])], theta0,
                     ShiftEnsemble((theta0,)))


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

    def test_bad_inputs_raise(self, rng):
        _, shifted, *_ = tiny_pipeline(rng)
        with pytest.raises(EmptyInput):
            build_shift_ensemble([], trials=2)
        with pytest.raises(ValueError, match="unknown m2 mode"):
            build_shift_ensemble(shifted, trials=2, mode="bogus")
        wide = LabeledDataset(np.hstack([shifted[0].features] * 2), shifted[0].labels)
        with pytest.raises(DimensionMismatch):
            build_shift_ensemble([shifted[0], wide], trials=2)

    def test_bad_classifiers_rejected(self):
        with pytest.raises(EmptyInput, match="at least one classifier"):
            ShiftEnsemble(())
        with pytest.raises(DimensionMismatch, match=r"dimensions disagree: \[2, 3\]"):
            ShiftEnsemble((LinearClassifier([1.0, 0.0]), LinearClassifier([1.0, 0.0, 0.0])))

    def test_no_two_class_subsample_raises(self):
        # one positive among 1,000 rows: at seed 0 all 50 draws of 10 rows miss it
        labels = np.zeros(1000, int)
        labels[0] = 1
        data = LabeledDataset(np.arange(2000.0).reshape(1000, 2), labels)
        with pytest.raises(TooFewSamples):
            build_shift_ensemble([data], subsample=0.01, trials=1, seed=0)


class TestGenerateRecourses:
    def test_no_instances(self):
        belief = MixtureBelief((ComponentMoments([1.0, 0.5, 0.0], np.eye(3), 0.1),), [1.0])
        assert generate_recourses(ProblemTemplate(belief=belief), []) == ([], [])

    def test_negative_delta_add_rejected(self):
        belief = MixtureBelief((ComponentMoments([1.0, 0.5, 0.0], np.eye(3), 0.1),), [1.0])
        with pytest.raises(ValueError, match="delta_add"):
            ProblemTemplate(belief=belief, delta_add=-0.5)

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
            again = solve(template.problem_for(x0, res.delta_min), template.config)
            assert res.iterations == 0
            assert np.array_equal(res.action.values, again.action.values)

    @staticmethod
    def _kernel_calls(rng, monkeypatch, cost):
        """The sizes of the _cone_lp calls of one generate block of 4."""
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, cost=cost,
                                   config=SolverConfig(restarts=1))
        calls = []
        cone_lp = fz._cone_lp

        def counted(c, G, H, sizes):
            calls.append(len(H))
            return cone_lp(c, G, H, sizes)

        monkeypatch.setattr(fz, "_cone_lp", counted)
        results, errors = generate_recourses(template, negatives[:4])
        assert not any(errors)
        return calls

    def test_one_kernel_call_per_block(self, rng, monkeypatch):
        # the l2 block's distance programs; the descents start at their points
        assert self._kernel_calls(rng, monkeypatch, Cost.L2) == [4]

    def test_l1_distances_skip_the_kernel(self, rng, monkeypatch):
        # a one-coordinate move answers each l1 distance program
        assert self._kernel_calls(rng, monkeypatch, Cost.L1) == []

    def test_answers_no_worse_than_the_projected_start(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, config=SolverConfig(restarts=1))
        cfg = template.config
        results, errors = generate_recourses(template, negatives)
        assert not any(errors)
        for x0, res in zip(negatives, results):
            problem = template.problem_for(x0, res.delta_min + template.delta_add)
            spec = fz.FeasibleSetSpec.from_problem(problem)
            assert fz.is_feasible(res.action.values, spec)
            projected = fz.project_feasible(spec.x0, spec, cfg.proj_max_iter, cfg.proj_tol)
            assert res.objective <= make_objective(problem)(projected).value + 1e-10

    def test_failed_rows_pass_through_csv_to_evaluate(self, rng, tmp_path, monkeypatch):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        # feature 0 may only grow and stays at most 0: an input above 0 has
        # no feasible point
        act = ActionabilitySpec(non_decreasing=frozenset({0}),
                                box=[[-np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = ProblemTemplate(belief=belief, actionability=act,
                                   config=SolverConfig(restarts=1))
        instances = [negatives[0], FeatureVector.from_features([0.5, -3.0]), negatives[1]]

        project = fz.RowProjection.__call__

        def failing(self, Y, rows, far=None):
            # the descent's projections of the third instance run out
            points, errors = project(self, Y, rows, far)
            for j, r in enumerate(rows.tolist()):
                if np.array_equal(self.x0[r], instances[2].values):
                    errors[j] = MaxIterExceeded("the projection ran out")
            return points, errors

        monkeypatch.setattr(fz.RowProjection, "__call__", failing)
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

    def test_a_row_that_raises_leaves_the_others_alone(self, rng, monkeypatch):
        # an empty feasible set fails before the descent, a weight dual
        # that fails at the third instance's start fails in it
        original, shifted, theta0, _, negatives = tiny_pipeline(rng)
        belief = fit_mixture_moments(bootstrap_parameters(original, B=30, seed=5), K=3, seed=5)
        act = ActionabilitySpec(non_decreasing=frozenset({0}),
                                box=[[-np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = ProblemTemplate(belief=belief.with_radius(0.1), mode=Mode.WEIGHT_ROBUST,
                                   weight_budget=0.1, actionability=act)
        good = [x0 for x0 in negatives if x0.values[0] < 0.0][:4]
        instances = [good[0], FeatureVector.from_features([0.5, -3.0]), *good[1:]]
        alone, errors = generate_recourses(template, good)
        assert not any(errors)
        problem = template.problem_for(good[1], alone[1].delta_min + template.delta_add)
        start = fz.min_cost_point(fz.FeasibleSetSpec.from_problem(problem), 1e-10)[0][1]
        victim = make_objective(problem)(start).component_values
        weight_dual = objective._weight_dual

        def failing(f, *args):
            if f.tobytes() == victim.tobytes():
                raise DualSolveFailed("no usable optimum")
            return weight_dual(f, *args)

        monkeypatch.setattr(objective, "_weight_dual", failing)
        results, errors = generate_recourses(template, instances)
        assert errors[1] == "EmptyFeasibleSet: actionability bounds exclude the input point"
        assert errors[2] == "DualSolveFailed: no usable optimum"
        assert results[1] is None and results[2] is None
        for i, j in ((0, 0), (3, 2), (4, 3)):
            assert errors[i] is None
            a, b = results[i], alone[j]
            assert a.action.values.tobytes() == b.action.values.tobytes()
            assert (a.objective, a.iterations, a.converged) == (b.objective, b.iterations,
                                                                b.converged)

    def test_worker_pool_matches_sequential(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        template = ProblemTemplate(belief=belief, delta_add=0.5, config=SolverConfig(restarts=1))
        seq, _ = generate_recourses(template, negatives[:4], workers=1)
        par, _ = generate_recourses(template, negatives[:4], workers=2)
        for a, b in zip(seq, par):
            assert np.array_equal(a.action.values, b.action.values)
        # chunks of 1, 1 and 2 rows; feature 0 may only grow and stays at
        # most 0, so the second row's bounds exclude its input
        act = ActionabilitySpec(non_decreasing=frozenset({0}),
                                box=[[-np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = replace(template, actionability=act)
        instances = [negatives[0], FeatureVector.from_features([0.5, -3.0]), *negatives[1:3]]
        seq, seq_errors = generate_recourses(template, instances, workers=1)
        par, par_errors = generate_recourses(template, instances, workers=3)
        assert par_errors == seq_errors and seq_errors[1].startswith("EmptyFeasibleSet: ")
        assert seq[1] is None and par[1] is None
        for i in (0, 2, 3):
            a, b = seq[i], par[i]
            assert np.array_equal(a.action.values, b.action.values)
            assert (a.objective, a.iterations, a.converged) == (b.objective, b.iterations,
                                                                b.converged)

    def test_rows_excluded_by_their_own_bounds(self, rng):
        # feature 0 may only grow and stays at most 0: the first and the
        # third input lie above 0, so those rows, and only those, fail with
        # their own EmptyFeasibleSet; every other row gets the bytes of its
        # lone solve
        _, _, _, belief, negatives = tiny_pipeline(rng)
        act = ActionabilitySpec(non_decreasing=frozenset({0}),
                                box=[[-np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        template = ProblemTemplate(belief=belief, actionability=act)
        good = [x0 for x0 in negatives if x0.values[0] < 0.0][:3]
        outside = [FeatureVector.from_features(x) for x in ([0.5, -3.0], [0.25, -2.0])]
        instances = [outside[0], good[0], outside[1], *good[1:]]
        results, errors = generate_recourses(template, instances)
        for i in (0, 2):
            assert results[i] is None
            assert errors[i] == "EmptyFeasibleSet: actionability bounds exclude the input point"
        for i in (1, 3, 4):
            [alone], [error] = generate_recourses(template, [instances[i]])
            assert errors[i] is None and error is None
            a = results[i]
            assert a.action.values.tobytes() == alone.action.values.tobytes()
            assert a.component_probs.tobytes() == alone.component_probs.tobytes()
            assert (a.objective, a.iterations, a.converged, a.stationarity, a.delta_min) == (
                alone.objective, alone.iterations, alone.converged, alone.stationarity,
                alone.delta_min)

    @pytest.mark.parametrize("cost", ["l1", "l2"])
    def test_budget_within_rounding_of_delta_min_is_pinned(self, cost):
        # the budget rule is one predicate: delta_add = 1e-12 is pinned in
        # the block as in solve, and answered by the cheapest point
        belief = MixtureBelief((ComponentMoments([1.0, 0.9, 0.2], 0.05 * np.eye(3), 0.1),), [1.0])
        instances = [FeatureVector.from_features(x)
                     for x in ([-1.2, -0.8], [-1.0, -1.0], [-2.0, 0.5], [0.3, -1.5])]
        template = ProblemTemplate(belief=belief, delta_add=0.0, cost=cost)
        exact, _ = generate_recourses(template, instances)
        near, _ = generate_recourses(replace(template, delta_add=1e-12), instances)
        for a, b in zip(exact, near):
            assert np.array_equal(a.action.values, b.action.values)
            assert b.iterations == 0


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

    @staticmethod
    def cell_row(template, instances, ens, delta_add, rho):
        """The frontier row of one cell, from its own generate_recourses call."""
        tmpl = replace(template, belief=template.belief.with_radius(rho), delta_add=delta_add)
        results, errors = generate_recourses(tmpl, instances)
        solved = [(r.action.values, x0.values) for r, x0 in zip(results, instances) if r]
        notes = [e for e in errors if e is not None]
        Xr, X0 = (np.array([pair[k] for pair in solved]) for k in (0, 1))
        return FrontierRow(delta_add, rho, float(np.abs(Xr - X0)[:, :-1].sum(axis=1).mean()),
                           float((Xr @ ens.matrix().T >= 0.0).mean()), len(solved), len(notes),
                           "; ".join(sorted(set(notes)))[:200])

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("unattainable", [False, True])
    def test_grid_rows_match_per_cell_generate(self, rng, monkeypatch, restarts, unattainable):
        _, shifted, _, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=6, seed=2)
        template = ProblemTemplate(belief=belief, config=SolverConfig(restarts=restarts, seed=3))
        instances = negatives[:3]
        if unattainable:
            # feature 0 is immutable and theta_1 = 0.05 < rho = 0.1: at rho
            # 0.1 the margin set is out of reach from x0_0 = -1, not from 0.5
            belief = MixtureBelief((ComponentMoments([1.0, 0.05, 0.0], 0.01 * np.eye(3), 0.0),),
                                   [1.0])
            template = replace(template, belief=belief,
                               actionability=ActionabilitySpec(immutable={0}))
            instances = [FeatureVector.from_features(x) for x in ([0.5, -10.0], [-1.0, -1.0])]
        calls = []
        block = harness.solve_block

        def counted(*args, **kw):
            calls.append(1)
            return block(*args, **kw)

        monkeypatch.setattr(harness, "solve_block", counted)
        rows = sweep_frontier(template, instances, ens, [0.0, 1.0], [0.0, 0.1])
        assert len(calls) == 1
        monkeypatch.setattr(harness, "solve_block", block)
        expected = [self.cell_row(template, instances, ens, d, rho)
                    for rho in (0.0, 0.1) for d in (0.0, 1.0)]
        bits = lambda row: [v.hex() if isinstance(v, float) else v for v in astuple(row)]
        assert [bits(r) for r in rows] == [bits(r) for r in expected]
        if unattainable:
            assert [r.n_failed for r in rows] == [0, 0, 1, 1]
            assert all(r.note.startswith("Unattainable") for r in rows[2:])

    def test_no_instances_rejected(self, rng):
        _, shifted, _, belief, _ = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=2, seed=2)
        with pytest.raises(EmptyInput):
            sweep_frontier(ProblemTemplate(belief=belief), [], ens, [0.0], [0.1])

    def test_empty_grid_rejected(self, rng):
        original, shifted, theta0, belief, negatives = tiny_pipeline(rng)
        ens = build_shift_ensemble(shifted, trials=2, seed=2)
        template = ProblemTemplate(belief=belief)
        with pytest.raises(EmptyInput):
            sweep_frontier(template, negatives[:2], ens, [], [0.1])
