import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import robust_recourse
from robust_recourse.cli import cli_main


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "K": 1,
        "rho": [0.1],
        "delta_add": 1.0,
        "mode": "nonparametric",
        "bootstrap": {"B": 20},
        "m2": {"trials": 10},
        "synthetic": {"n_per_class": 120},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


def run(args):
    return cli_main([str(a) for a in args])


class TestPipeline:
    def test_end_to_end(self, workdir, capsys):
        base, cfg = workdir
        data = base / "data"
        assert run(["synth", "--config", cfg, "--out", data, "--seed", 7,
                    "--n-shifts", 6, "--kind", "all"]) == 0
        assert (data / "original.csv").exists()
        shifted = sorted(data.glob("shift_*.csv"))
        assert len(shifted) == 6
        # kinds split 2/2/2
        assert sum("mean" in p.name for p in shifted) == 2

        belief = base / "belief.json"
        assert run(["estimate", "--config", cfg, "--data", data / "original.csv",
                    "--out", belief, "--seed", 7]) == 0
        payload = json.loads(belief.read_text())
        assert payload["dimension"] == 3
        assert payload["components"][0]["radius"] == 0.1

        recourses = base / "recourses.csv"
        assert run(["generate", "--config", cfg, "--belief", belief,
                    "--data", data / "original.csv", "--out", recourses,
                    "--max-instances", 8, "--seed", 7]) == 0

        report = base / "report"
        args = ["evaluate", "--config", cfg, "--belief", belief,
                "--recourses", recourses, "--out", report, "--seed", 7,
                "--shifted", *shifted]
        assert run(args) == 0
        rep = json.loads((base / "report.json").read_text())
        assert rep["m1_validity"] == 1.0
        assert 0.0 <= rep["m2_validity"] <= 1.0
        assert (base / "report.csv").exists()

        frontier = base / "frontier.csv"
        assert run(["sweep", "--config", cfg, "--belief", belief,
                    "--data", data / "original.csv", "--out", frontier,
                    "--deltas", "0,1.0", "--rhos", "0.1",
                    "--max-instances", 4, "--seed", 7,
                    "--shifted", *shifted]) == 0
        lines = frontier.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 cells

    def test_byte_identical_reruns(self, workdir):
        base, cfg = workdir
        data = base / "data"
        run(["synth", "--config", cfg, "--out", data, "--seed", 3, "--n-shifts", 3,
             "--kind", "mean"])
        belief = base / "belief.json"
        run(["estimate", "--config", cfg, "--data", data / "original.csv",
             "--out", belief, "--seed", 3])
        out_a = base / "a.csv"
        out_b = base / "b.csv"
        for out in (out_a, out_b):
            run(["generate", "--config", cfg, "--belief", belief,
                 "--data", data / "original.csv", "--out", out,
                 "--max-instances", 5, "--seed", 3])
        assert out_a.read_bytes() == out_b.read_bytes()

        # synth determinism: regenerate into a second directory
        data2 = base / "data2"
        run(["synth", "--config", cfg, "--out", data2, "--seed", 3, "--n-shifts", 3,
             "--kind", "mean"])
        assert (data / "original.csv").read_bytes() == (data2 / "original.csv").read_bytes()


class TestUsageErrors:
    def test_negative_delta_add_exits_1(self, workdir):
        base, cfg = workdir
        bad = base / "bad.json"
        bad.write_text(json.dumps({"delta_add": -0.5}))
        code = run(["generate", "--config", bad, "--belief", base / "nope.json",
                    "--data", base / "nope.csv", "--out", base / "x.csv"])
        assert code == 1

    def test_unknown_config_key_exits_1(self, workdir):
        base, cfg = workdir
        bad = base / "bad.json"
        bad.write_text(json.dumps({"not_a_key": 1}))
        assert run(["synth", "--config", bad, "--out", base / "d"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert run(["estimate"]) == 1

    def test_unreadable_data_exits_2(self, workdir):
        base, cfg = workdir
        belief = base / "belief.json"
        belief.write_text(json.dumps({
            "dimension": 3, "weights": [1.0], "theta0": [1.0, 0.0, 0.0],
            "components": [{"mean": [1.0, 0.0, 0.0],
                            "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                            "radius": 0.1}],
        }))
        code = run(["generate", "--config", cfg, "--belief", belief,
                    "--data", base / "missing.csv", "--out", base / "x.csv"])
        assert code == 2

    def test_bad_mode_exits_1(self, workdir):
        base, cfg = workdir
        bad = base / "bad.json"
        bad.write_text(json.dumps({"mode": "fancy"}))
        assert run(["synth", "--config", bad, "--out", base / "d"]) == 1


def _write_belief(path, drop=None):
    payload = {
        "dimension": 3, "weights": [1.0], "theta0": [1.0, 0.0, 0.0],
        "components": [{"mean": [1.0, 0.0, 0.0],
                        "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        "radius": 0.1}],
    }
    payload.pop(drop, None)
    path.write_text(json.dumps(payload))
    return path


def _assert_one_usage_line(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["generate", "evaluate", "sweep"])
    @pytest.mark.parametrize("missing", ["components", "theta0"])
    def test_belief_without_key_exits_1(self, workdir, capsys, command, missing):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json", drop=missing)
        args = [command, "--config", cfg, "--belief", belief, "--out", base / "out"]
        if command in ("generate", "sweep"):
            args += ["--data", base / "missing.csv"]
        if command in ("evaluate", "sweep"):
            args += ["--shifted", base / "missing_shift.csv"]
        if command == "evaluate":
            args += ["--recourses", base / "missing_recourses.csv"]
        _assert_one_usage_line(run(args), capsys)

    @pytest.mark.parametrize(
        "header",
        [
            "instance_id,x0_0,x0_1,x0_2,x_0,x_1,x_2,objective",  # no error column
            "instance_id,x0_0,x0_1,x0_2,objective,error",  # no action columns
        ],
    )
    def test_recourse_csv_without_columns_exits_1(self, workdir, capsys, header):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        recourses = base / "recourses.csv"
        n_cells = len(header.split(","))
        recourses.write_text(header + "\n" + ",".join(["1.0"] * n_cells) + "\n")
        code = run(["evaluate", "--config", cfg, "--belief", belief,
                    "--recourses", recourses, "--out", base / "report",
                    "--shifted", base / "missing_shift.csv"])
        _assert_one_usage_line(code, capsys)


class TestBadValues:
    @pytest.mark.parametrize(
        "user_cfg",
        [
            {"zeta": -1}, {"delta_add": "x"}, {"max_iter": -5},
            # each value's JSON type must match its default's
            {"max_iter": 2.5}, {"seed": "x"}, {"immutable": 5}, {"K": "x"},
            {"m2": {"trials": "x"}}, {"max_iter": True}, {"delta_add": False},
            {"immutable": [0.5]}, {"rho": 0.1}, {"rho": ["x"]},
            {"synthetic": {"mu0": [1.0, "x"]}}, {"bootstrap": 3}, {"mode": 1},
            # JSON NaN and Infinity, which Python's json reads as floats
            {"delta_add": float("nan")}, {"margin": float("inf")},
            {"rho": [0.1, -float("inf")]}, {"m2": {"subsample": float("nan")}},
            # subsample fractions outside (0, 1] and a negative ridge
            {"m2": {"subsample": 1.5}}, {"m2": {"subsample": -0.5}},
            {"bootstrap": {"subsample": 0}}, {"bootstrap": {"subsample": 1.5}},
            {"bootstrap": {"l2_reg": -1}},
            # no radius at all, and a negative one
            {"rho": []}, {"rho": [-0.1]},
            # a seed SeedSequence rejects, and a negative ensemble size
            {"seed": -1}, {"m2": {"trials": -2}},
            # a first trial step above the 1e6 clamp on every spectral trial
            {"zeta": 1e308},
            # a margin that is not positive, a negative weight budget, an
            # m2 mode the ensemble does not know
            {"margin": 0}, {"margin": -1e-3}, {"weight_budget": -0.1},
            {"m2": {"mode": "bogus"}},
            # a backtracking factor outside (0, 1)
            {"lambda_ls": 1.0},
        ],
    )
    def test_bad_config_value_exits_1(self, workdir, capsys, user_cfg):
        base, _ = workdir
        bad = base / "bad.json"
        bad.write_text(json.dumps(user_cfg))
        belief = _write_belief(base / "belief.json")
        code = run(["generate", "--config", bad, "--belief", belief,
                    "--data", base / "missing.csv", "--out", base / "x.csv"])
        _assert_one_usage_line(code, capsys)

    def test_unreadable_config_exits_1(self, workdir, capsys):
        base, _ = workdir
        _assert_one_usage_line(run(["synth", "--config", base / "missing.json",
                                    "--out", base / "d"]), capsys)
        assert not (base / "d").exists()

    def test_config_not_an_object_exits_1(self, workdir, capsys):
        base, _ = workdir
        bad = base / "bad.json"
        bad.write_text(json.dumps([1, 2]))
        _assert_one_usage_line(run(["synth", "--config", bad, "--out", base / "d"]), capsys)

    def test_int_stands_for_float(self, tmp_path):
        from robust_recourse.cli import load_config

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"delta_add": 1, "rho": [0, 1], "immutable": [0],
                                    "synthetic": {"mu0": [-3, -3]}, "m2": {"subsample": 1}}))
        cfg = load_config(path)
        assert cfg["delta_add"] == 1 and cfg["rho"] == [0, 1] and cfg["m2"]["subsample"] == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", 0), ("--max-instances", -1), ("--max-instances", 0)],
    )
    def test_count_flag_below_one_exits_1(self, workdir, capsys, flag, value):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        code = run(["generate", "--config", cfg, "--belief", belief,
                    "--data", base / "missing.csv", "--out", base / "x.csv", flag, value])
        _assert_one_usage_line(code, capsys)

    @pytest.mark.parametrize("command", ["synth", "estimate", "generate", "evaluate", "sweep"])
    def test_negative_seed_flag_exits_1(self, workdir, capsys, command):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        args = {"synth": [], "estimate": ["--data", base / "missing.csv"],
                "generate": ["--belief", belief, "--data", base / "missing.csv"],
                "evaluate": ["--belief", belief, "--recourses", base / "missing.csv",
                             "--shifted", base / "missing.csv"],
                "sweep": ["--belief", belief, "--data", base / "missing.csv",
                          "--shifted", base / "missing.csv"]}[command]
        code = run([command, "--config", cfg, "--seed", -1, "--out", base / "out", *args])
        _assert_one_usage_line(code, capsys)
        assert not (base / "out").exists()

    @pytest.mark.parametrize("flags", [["--normalize"], ["--label-column", "y"]])
    def test_synth_rejects_csv_flags(self, workdir, capsys, flags):
        # synth reads no CSV, so it takes neither flag
        base, cfg = workdir
        code = run(["synth", "--config", cfg, "--out", base / "d", *flags])
        _assert_one_usage_line(code, capsys)
        assert not (base / "d").exists()

    def test_non_numeric_recourse_cell_exits_1(self, workdir, capsys):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        recourses = base / "recourses.csv"
        recourses.write_text(
            "instance_id,x0_0,x0_1,x0_2,x_0,x_1,x_2,error\n"
            "0,-1.0,-1.0,1.0,1.0,1.0,1.0,\n"
            "1,-1.0,-1.0,1.0,abc,1.0,1.0,\n"
        )
        code = run(["evaluate", "--config", cfg, "--belief", belief,
                    "--recourses", recourses, "--out", base / "report",
                    "--shifted", base / "missing_shift.csv"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert str(recourses) in err and "line 3" in err

    @pytest.mark.parametrize("flag", ["--deltas", "--rhos"])
    @pytest.mark.parametrize("value", ["abc", "1,,2", "nan", "inf", "0,-inf", "-1"])
    def test_bad_grid_exits_1(self, workdir, capsys, flag, value):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        code = run(["sweep", "--config", cfg, "--belief", belief, "--data", base / "missing.csv",
                    "--out", base / "f.csv", "--shifted", base / "missing.csv", flag, value])
        _assert_one_usage_line(code, capsys)

    @pytest.mark.parametrize("value", ["-2", "-1"])
    def test_negative_shift_count_exits_1(self, workdir, capsys, value):
        base, cfg = workdir
        code = run(["synth", "--config", cfg, "--out", base / "d", "--n-shifts", value])
        _assert_one_usage_line(code, capsys)
        assert not (base / "d").exists()


class TestNothingToDo:
    """Inputs that parse but leave a stage no rows: exit 2, one line."""

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_no_negatives_exits_2(self, workdir, capsys, command):
        # theta0 = (1, 0, 0) accepts every row with feature 0 >= 0
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        data = base / "positive.csv"
        data.write_text("f0,f1,label\n" + "".join(f"{i + 1}.0,-2.0,{i % 2}\n" for i in range(10)))
        args = [command, "--config", cfg, "--belief", belief, "--data", data,
                "--out", base / "out.csv"]
        if command == "sweep":
            args += ["--shifted", base / "missing.csv"]
        code = run(args)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: RecourseError: no negatively classified")
        assert len(err.strip().splitlines()) == 1
        assert not (base / "out.csv").exists()

    def test_recourse_csv_without_a_solved_row_exits_2(self, workdir, capsys):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        recourses = base / "recourses.csv"
        recourses.write_text("instance_id,x0_0,x0_1,x0_2,x_0,x_1,x_2,error\n"
                             "0,-1.0,-1.0,1.0,,,,Unattainable: no\n")
        code = run(["evaluate", "--config", cfg, "--belief", belief, "--recourses", recourses,
                    "--out", base / "report", "--shifted", base / "missing.csv"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: RecourseError: no solved recourses")
        assert len(err.strip().splitlines()) == 1
        assert not (base / "report.json").exists()


def test_load_belief_reads_the_belief_and_theta0(tmp_path):
    from robust_recourse.cli import load_belief

    belief, theta0 = load_belief(_write_belief(tmp_path / "belief.json"))
    assert belief.dim == 3 and belief.weights.tolist() == [1.0]
    assert belief.components[0].radius == 0.1
    assert theta0.theta.tolist() == [1.0, 0.0, 0.0]


class TestNormalize:
    """--normalize scales every file by the min/range of the data estimate
    saw, stored in the belief; never by a file's own columns."""

    def _pipeline(self, base, cfg, data, shifted, flags):
        belief, recourses, report = base / "belief.json", base / "rec.csv", base / "report"
        assert run(["estimate", "--config", cfg, "--data", data / "original.csv",
                    "--out", belief, "--seed", 7, *flags]) == 0
        assert run(["generate", "--config", cfg, "--belief", belief,
                    "--data", data / "original.csv", "--out", recourses,
                    "--max-instances", 6, "--seed", 7, *flags]) == 0
        assert run(["evaluate", "--config", cfg, "--belief", belief, "--recourses",
                    recourses, "--out", report, "--seed", 7, "--shifted", *shifted,
                    *flags]) == 0
        return json.loads(belief.read_text()), json.loads((base / "report.json").read_text())

    def test_matches_data_prescaled_by_the_original(self, workdir):
        from robust_recourse.estimation import LabeledDataset
        from robust_recourse.harness import load_csv, save_dataset_csv

        base, cfg = workdir
        # a budget small in the scaled features, so that m2 stays below 1
        payload = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**payload, "delta_add": 0.05}))
        raw = base / "raw"
        assert run(["synth", "--config", cfg, "--out", raw, "--seed", 7,
                    "--n-shifts", 3, "--kind", "all"]) == 0
        raw_shifted = sorted(raw.glob("shift_*.csv"))
        _, _, norm = load_csv(raw / "original.csv", "label", normalize=True)
        scaled = base / "scaled"
        scaled.mkdir()
        for path in [raw / "original.csv", *raw_shifted]:
            ds = load_csv(path, "label")[0]
            scaled_ds = LabeledDataset(norm.apply(ds.features), ds.labels)
            save_dataset_csv(scaled / path.name, scaled_ds)
        # scaling a shifted file by its own columns would give other features
        assert any(load_csv(p, "label")[0].features.min(axis=0).tolist() != [0.0, 0.0]
                   for p in sorted(scaled.glob("shift_*.csv")))

        (base / "a").mkdir()
        (base / "b").mkdir()
        belief_a, report_a = self._pipeline(base / "a", cfg, raw, raw_shifted, ["--normalize"])
        belief_b, report_b = self._pipeline(
            base / "b", cfg, scaled, sorted(scaled.glob("shift_*.csv")), [])
        assert belief_a["normalization"] == {
            "col_min": norm.col_min.tolist(), "col_range": norm.col_range.tolist()}
        assert "normalization" not in belief_b
        assert report_a["m1_validity"] == report_b["m1_validity"]
        assert report_a["m2_validity"] == report_b["m2_validity"] < 1.0

    @pytest.mark.parametrize("estimate_flags, later_flags", [([], ["--normalize"]),
                                                             (["--normalize"], [])])
    def test_flag_must_match_the_belief(self, workdir, capsys, estimate_flags, later_flags):
        base, cfg = workdir
        data = base / "data"
        assert run(["synth", "--config", cfg, "--out", data, "--seed", 7,
                    "--n-shifts", 1, "--kind", "mean"]) == 0
        belief = base / "belief.json"
        assert run(["estimate", "--config", cfg, "--data", data / "original.csv",
                    "--out", belief, "--seed", 7, *estimate_flags]) == 0
        capsys.readouterr()
        code = run(["generate", "--config", cfg, "--belief", belief,
                    "--data", data / "original.csv", "--out", base / "x.csv", *later_flags])
        _assert_one_usage_line(code, capsys)

    def test_scaling_of_the_wrong_length_exits_1(self, workdir, capsys):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        payload = json.loads(belief.read_text())
        payload["normalization"] = {"col_min": [0.0, 0.0, 0.0], "col_range": [1.0, 1.0, 1.0]}
        belief.write_text(json.dumps(payload))
        code = run(["generate", "--config", cfg, "--belief", belief, "--normalize",
                    "--data", base / "missing.csv", "--out", base / "x.csv"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error:") and "needs 2 columns" in err
        assert len(err.strip().splitlines()) == 1

    def test_data_wider_than_the_scaling_exits_2(self, workdir, capsys):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        payload = json.loads(belief.read_text())
        payload["normalization"] = {"col_min": [0.0, 0.0], "col_range": [1.0, 1.0]}
        belief.write_text(json.dumps(payload))
        data = base / "wide.csv"
        data.write_text("f0,f1,f2,label\n" + "".join(f"{i - 5}.0,2.0,3.0,{int(i >= 5)}\n"
                                                      for i in range(10)))
        code = run(["generate", "--config", cfg, "--belief", belief, "--normalize",
                    "--data", data, "--out", base / "x.csv"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: DimensionMismatch: ")
        assert "scaling has 2 columns" in err and len(err.strip().splitlines()) == 1
        assert not (base / "x.csv").exists()

    def test_malformed_scaling_exits_1(self, workdir, capsys):
        base, cfg = workdir
        belief = _write_belief(base / "belief.json")
        payload = json.loads(belief.read_text())
        payload["normalization"] = {"col_min": [0.0, 0.0], "col_range": [1.0, 0.0]}
        belief.write_text(json.dumps(payload))
        code = run(["generate", "--config", cfg, "--belief", belief, "--normalize",
                    "--data", base / "missing.csv", "--out", base / "x.csv"])
        _assert_one_usage_line(code, capsys)


TINY_CONFIG = {
    "K": 1, "rho": [0.1], "bootstrap": {"B": 5}, "m2": {"trials": 3},
    "synthetic": {"n_per_class": 30},
}


def _tiny_pipeline(base):
    """argv of each stage of synth -> estimate -> generate -> evaluate ->
    sweep on the tiny config, in order, writing under base."""
    cfg, data, belief = base / "cfg.json", base / "data", base / "belief.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    common = ["--config", str(cfg), "--seed", "5"]
    shifted = [str(data / f"shift_00{i}_mean.csv") for i in range(2)]
    csv = str(data / "original.csv")
    return [
        ["synth", *common, "--out", str(data), "--n-shifts", "2", "--kind", "mean"],
        ["estimate", *common, "--data", csv, "--out", str(belief)],
        ["generate", *common, "--belief", str(belief), "--data", csv,
         "--out", str(base / "recourses.csv"), "--max-instances", "3"],
        ["evaluate", *common, "--belief", str(belief), "--recourses",
         str(base / "recourses.csv"), "--out", str(base / "report"), "--shifted", *shifted],
        ["sweep", *common, "--belief", str(belief), "--data", csv, "--out",
         str(base / "frontier.csv"), "--deltas", "0,1", "--rhos", "0,0.1",
         "--max-instances", "3", "--shifted", *shifted],
    ]


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(robust_recourse.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_pipeline_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: every stage runs with it unimportable
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from robust_recourse.cli import cli_main\n"
        "print(json.dumps([cli_main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    stages = json.dumps(_tiny_pipeline(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code, stages], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * 5, proc.stderr


def test_cli_import_leaves_worker_pool_unloaded():
    # the pool (multiprocessing, socket, logging) loads only for --workers > 1
    code = "import sys, robust_recourse.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A finished tiny pipeline whose files the fuzz test corrupts."""
    base = tmp_path_factory.mktemp("fuzz")
    stages = _tiny_pipeline(base)
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli_main(argv) for argv in stages] == [0] * 5
    return base, stages


def _stage(stages, i, **flags):
    """Stage i of the tiny pipeline with some flag values replaced."""
    argv = list(stages[i])
    for flag, value in flags.items():
        argv[argv.index(flag) + 1] = str(value)
    return argv


class TestOtherModes:
    """Stages and settings the tiny pipeline does not use."""

    def test_estimate_with_prior_tau(self, fuzz_base, tmp_path):
        base, stages = fuzz_base
        out = tmp_path / "prior.json"
        assert run([*_stage(stages, 1, **{"--out": out}), "--prior-tau", "0.5"]) == 0
        payload = json.loads(out.read_text())
        [component] = payload["components"]
        assert component["mean"] == payload["theta0"]
        assert component["covariance"] == (0.5 * np.eye(3)).tolist()
        assert component["radius"] == TINY_CONFIG["rho"][0]

    @pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
    def test_estimate_rejects_a_bad_prior_tau(self, fuzz_base, tmp_path, capsys, tau):
        _, stages = fuzz_base
        out = tmp_path / "prior.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*_stage(stages, 1, **{"--out": out}), "--prior-tau", tau])
        _assert_one_usage_line(code, capsys)
        assert not out.exists()

    def test_estimate_with_a_prior_tau_near_the_float_range(self, fuzz_base, tmp_path, capsys):
        # tau = 1e308 is finite, so accepted: the covariance it scales must
        # end in a belief or in one error line, with no warning on the way
        _, stages = fuzz_base
        out = tmp_path / "prior.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*_stage(stages, 1, **{"--out": out}), "--prior-tau", "1e308"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            [component] = json.loads(out.read_text())["components"]
            assert component["covariance"] == (1e308 * np.eye(3)).tolist()
        else:
            assert code == 2 and len(err.strip().splitlines()) == 1

    def test_generate_with_a_prior_tau_near_the_float_range(self, fuzz_base, tmp_path, capsys):
        # x^T S x overflows at every action but 0: each row ends in
        # ObjectiveOverflow, with no warning on the way
        _, stages = fuzz_base
        belief, out = tmp_path / "prior.json", tmp_path / "recourses.csv"
        assert run([*_stage(stages, 1, **{"--out": belief}), "--prior-tau", "1e308"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(_stage(stages, 2, **{"--belief": belief, "--out": out}))
        assert code == 2 and "Traceback" not in capsys.readouterr().err
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert all(r["error"].startswith("ObjectiveOverflow: ") for r in rows)

    def test_concat_m2_mode_needs_the_original_data(self, fuzz_base, tmp_path, capsys):
        base, stages = fuzz_base
        cfg = tmp_path / "concat.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "m2": {"trials": 3, "mode": "concat"}}))
        argv = _stage(stages, 3, **{"--config": cfg, "--out": tmp_path / "report"})
        _assert_one_usage_line(run(argv), capsys)
        assert run([*argv, "--data", base / "data" / "original.csv"]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["n_classifiers"] == 3

    @pytest.mark.parametrize("stage", [2, 4], ids=["generate", "sweep"])
    @pytest.mark.parametrize("user_cfg", [{"immutable": [99]}, {"non_decreasing": [-5]}])
    def test_index_outside_the_dimension_exits_2(self, fuzz_base, tmp_path, capsys, stage,
                                                 user_cfg):
        base, stages = fuzz_base
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, **user_cfg}))
        code = run(_stage(stages, stage, **{"--config": cfg, "--out": tmp_path / "out"}))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: DimensionMismatch: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("synthetic", [{"mu0": [-3.0, -3.0, -3.0]}, {"mu1": [3.0]}])
    def test_synthetic_mean_of_the_wrong_length_exits_2(self, tmp_path, capsys, synthetic):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "synthetic": synthetic}))
        code = run(["synth", "--config", cfg, "--out", tmp_path / "data"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: DimensionMismatch: ")
        assert len(err.strip().splitlines()) == 1

    def test_huge_margin_raises_no_warning(self, fuzz_base, tmp_path, capsys):
        # |h| overflows in the distance program, whose rows end FAILED
        base, stages = fuzz_base
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "margin": 1e308}))
        out = tmp_path / "recourses.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(_stage(stages, 2, **{"--config": cfg, "--out": out}))
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and "solved 0/3" in captured.out
        with open(out) as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]
        assert errors == ["Unattainable: the distance program did not converge"] * 3

    def test_huge_radius_raises_no_warning(self, fuzz_base, tmp_path, capsys):
        # a radius past ~1e154 squares to inf in the empty-margin-set test
        _, stages = fuzz_base
        cfg, belief = tmp_path / "cfg.json", tmp_path / "belief.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "rho": [1e200]}))
        out = tmp_path / "recourses.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(_stage(stages, 1, **{"--config": cfg, "--out": belief})) == 0
            code = run(_stage(stages, 2, **{"--config": cfg, "--belief": belief, "--out": out}))
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and "solved 0/3" in captured.out
        with open(out) as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]
        assert all(e.startswith("Unattainable: ") for e in errors) and len(errors) == 3

    @pytest.mark.parametrize("user_cfg, code, solved", [
        # perturbed restarts from points past ~1e154 overflow the cone test
        ({"restarts": 2, "delta_add": 1e308}, 2, 0),
        # every backtrack after the first underflows to a zero step
        ({"lambda_ls": 1e-300}, 0, 3),
    ], ids=["restarts-huge-budget", "lambda-ls-1e-300"])
    def test_extreme_descent_settings_raise_no_warning(self, fuzz_base, tmp_path, capsys,
                                                         user_cfg, code, solved):
        _, stages = fuzz_base
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, **user_cfg}))
        out = tmp_path / "recourses.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(_stage(stages, 2, **{"--config": cfg, "--out": out}))
        captured = capsys.readouterr()
        assert got == code and captured.err == "" and f"solved {solved}/3" in captured.out
        if not solved:
            with open(out) as fh:
                errors = [row["error"] for row in csv.DictReader(fh)]
            assert errors == ["MaxIterExceeded: the projection program did not converge"] * 3

    def test_sweep_cell_without_a_solution_reads_nan(self, fuzz_base, tmp_path):
        # rho = 100 exceeds every direction norm: no margin set holds a
        # point; rho = 1e308 squares to inf there, and warns nothing
        base, stages = fuzz_base
        out = tmp_path / "frontier.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(_stage(stages, 4, **{"--out": out, "--rhos": "0,100,1e308"})) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["rho"]) for r in rows] == [0.0, 0.0, 100.0, 100.0, 1e308, 1e308]
        for r in rows[2:]:
            assert (r["n_solved"], r["n_failed"]) == ("0", "3")
            assert math.isnan(float(r["mean_l1_cost"])) and math.isnan(float(r["m2_validity"]))
            assert r["note"].startswith("Unattainable: ")


# corruptions no input survives, as (kind, what, detail)
_BAD_NUMBERS = ["abc", "", "1,,2", "nan", "inf", "-inf", "1e999", "-2", "0x1p3", "1;2"]
_BAD_JSON_VALUES = ["NaN", "Infinity", "-Infinity", '"x"', "null", "[]", "{}", "true"]
_NUMERIC_KEYS = ["delta_add", "margin", "lambda_ls", "zeta", "station_tol", "weight_budget"]
# (section, key, value) out of range inside a config section
_BAD_SECTION_VALUES = [("bootstrap", "subsample", v) for v in ("1.5", "-0.5", "0")] + [
    ("m2", "subsample", v) for v in ("1.5", "-0.5", "0")] + [("bootstrap", "l2_reg", "-1")]
_BELIEF_EDITS = [("components", "[]"), ("weights", "[0.5]"), ("theta0", '"x"'),
                 ("theta0", "[NaN, 0, 0]"), ("components", '[{"mean": [1, 0, 0]}]'),
                 ("weights", "NaN"), ("theta0", None), ("normalization", "[1]")]
_CSV_EDITS = ["x", "", "nan", "1,2", "inf"]

corruptions = st.one_of(
    st.tuples(st.just("flag"), st.sampled_from(["--deltas", "--rhos"]),
              st.sampled_from(_BAD_NUMBERS)),
    st.tuples(st.just("shifts"), st.sampled_from(["-2", "-1", "abc", "1.5", ""]), st.none()),
    st.tuples(st.just("config"), st.sampled_from(_NUMERIC_KEYS), st.sampled_from(_BAD_JSON_VALUES)),
    st.tuples(st.just("section"), st.sampled_from(_BAD_SECTION_VALUES), st.none()),
    st.tuples(st.just("belief"), st.sampled_from(_BELIEF_EDITS), st.integers(0, 3)),
    st.tuples(st.just("csv"), st.sampled_from(_CSV_EDITS), st.integers(1, 40)),
    st.tuples(st.just("bytes"), st.sampled_from(["belief", "csv"]), st.binary(max_size=60)),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corruption=corruptions)
@example(corruption=("flag", "--deltas", "nan"))
@example(corruption=("flag", "--deltas", "abc"))
@example(corruption=("config", "delta_add", "NaN"))
@example(corruption=("shifts", "-2", None))
@example(corruption=("csv", "nan", 14))  # a NaN label, which once read as class 0
@example(corruption=("section", ("m2", "subsample", "1.5"), None))  # once a NumPy traceback
@example(corruption=("section", ("m2", "subsample", "-0.5"), None))
@example(corruption=("section", ("bootstrap", "l2_reg", "-1"), None))
def test_cli_fuzz(fuzz_base, tmp_path_factory, corruption):
    """Whatever is malformed, the CLI exits 1 or 2 with one stderr line."""
    base, stages = fuzz_base
    work = tmp_path_factory.mktemp("case")
    kind, what, detail = corruption
    argv = list(stages[4])  # sweep reads every kind of input file
    cfg_text = (base / "cfg.json").read_text()
    belief_text = (base / "belief.json").read_text()
    csv_text = (base / "data" / "original.csv").read_text()
    if kind == "flag":
        argv[argv.index(what) + 1] = detail
    elif kind == "shifts":
        argv = list(stages[0])
        argv[argv.index("--n-shifts") + 1] = what
        argv[argv.index("--out") + 1] = str(work / "data")
    elif kind == "config":
        cfg_text = cfg_text.rstrip()[:-1] + f', "{what}": {detail}}}'
    elif kind == "section":
        section, key, value = what
        cfg = json.loads(cfg_text)
        cfg[section] = {**cfg.get(section, {}), key: "@@"}
        cfg_text = json.dumps(cfg).replace('"@@"', value)
    elif kind == "belief":
        key, value = what
        payload = json.loads(belief_text)
        if value is None:
            payload.pop(key)
            belief_text = json.dumps(payload)
        else:
            belief_text = json.dumps({**payload, key: "@@"}).replace('"@@"', value)
    elif kind == "csv":
        lines = csv_text.splitlines()
        row = lines[detail % len(lines)].split(",")
        row[detail % len(row)] = what
        lines[detail % len(lines)] = ",".join(row)
        csv_text = "\n".join(lines) + "\n"
    elif what == "belief":  # raw bytes in place of a file
        belief_text = detail.decode("latin-1")
    else:
        csv_text = detail.decode("latin-1")
    files = {"--config": ("cfg.json", cfg_text), "--belief": ("belief.json", belief_text),
             "--data": ("original.csv", csv_text)}
    for flag, (name, text) in files.items():
        if flag in argv:
            (work / name).write_text(text)
            argv[argv.index(flag) + 1] = str(work / name)
    if "--out" in argv and kind != "shifts":
        argv[argv.index("--out") + 1] = str(work / "out.csv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (1, 2), (corruption, code)
    assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
    assert "Traceback" not in err.getvalue()
