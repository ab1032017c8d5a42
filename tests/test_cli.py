"""Experiment runner: file outputs, error contract, determinism, CLI."""

import csv
import json
import math

import numpy as np
import pytest

from dapien import cli, pipeline
from dapien.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    main,
    run_experiment,
    run_suite,
)
from dapien.distributions import DistFamily
from dapien.grouping import Sample, as_records
from dapien.synthdata import GeneratorSpec, NoiseKind, generate, write_csv


def small_config(dataset, out, **overrides):
    base = dict(
        dataset=dataset,
        d=5,
        replicates=8,
        bootstrap_b=3,
        folds=2,
        max_iterations=200,
        data_seed=5,
        split_seed=6,
        train_seed=7,
        output_dir=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_outputs(tmp_path):
    config = small_config("B", tmp_path / "exp")
    report = run_experiment(config)
    out = tmp_path / "exp"
    assert (out / "report.json").exists()
    assert (out / "intervals.csv").exists()
    assert (out / "config.json").exists()
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"dapien", "bootstrap"}
    for method in doc.values():
        assert set(method) == {"picp", "mpiw", "nmpiw", "cwc", "n", "confidence"}
        assert 0.0 <= method["picp"] <= 1.0
    assert doc == report


def test_intervals_csv_shape_and_ordering(tmp_path):
    config = small_config("C", tmp_path / "exp")
    run_experiment(config)
    with open(tmp_path / "exp" / "intervals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2^5 = 32 groups, ceil(0.2 * 32) = 7 test groups of 8 replicates
    assert len(rows) == 7 * 8
    for row in rows:
        for method in ("dapien", "bootstrap"):
            lo = float(row[f"{method}_lower"])
            pt = float(row[f"{method}_point"])
            hi = float(row[f"{method}_upper"])
            assert lo <= pt <= hi


def test_report_byte_identical_across_runs(tmp_path):
    config_a = small_config("A", tmp_path / "a")
    config_b = small_config("A", tmp_path / "b")
    run_experiment(config_a)
    run_experiment(config_b)
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_family_defaults():
    assert ExperimentConfig(dataset="A").resolved_family().value == "gaussian"
    assert ExperimentConfig(dataset="C").resolved_family().value == "gamma"


def test_csv_dataset_input(tmp_path):
    exit_code = main(
        ["generate", "--dataset", "B", "--seed", "3", "--d", "4",
         "--replicates", "5", "--out", str(tmp_path / "data.csv")]
    )
    assert exit_code == EXIT_OK
    config = small_config(str(tmp_path / "data.csv"), tmp_path / "exp", family="gaussian")
    report = run_experiment(config)
    assert report["dapien"]["n"] > 0


def test_invalid_csv_leaves_no_outputs(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_0,x_1,y\n0,1,2.0\n0,1\n")
    out = tmp_path / "exp"
    config = small_config(str(bad), out)
    with pytest.raises(Exception):
        run_experiment(config)
    assert not out.exists()


def test_a_failed_write_removes_the_outputs_written_before_it(tmp_path):
    out = tmp_path / "exp"
    (out / "config.json").mkdir(parents=True)
    with pytest.raises(OSError) as caught:
        run_experiment(small_config("A", out))
    # the write's own error, not one raised while cleaning up after it
    assert caught.value.__context__ is None
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]
    assert (out / "config.json").is_dir()


def test_the_runner_drops_what_the_gamma_fit_rejects(tmp_path):
    # group 1111 has spread, but below the float resolution of its values
    records = generate(GeneratorSpec(NoiseKind.SCALED_GAMMA, d=4, replicates=20, seed=3))
    flat = [math.nextafter(3e7, math.inf)] + [3e7] * 19
    samples = [
        Sample(s.x, flat[i % 20] if s.x == (1, 1, 1, 1) else s.y) for i, s in enumerate(records)
    ]
    write_csv(samples, tmp_path / "data.csv")
    config = ExperimentConfig(
        dataset=str(tmp_path / "data.csv"), family="gamma", bootstrap_b=3, split_seed=1,
        output_dir=str(tmp_path / "exp"),
    )
    report = run_experiment(config)
    assert report["dapien"]["n"] > 0
    echo = json.loads((tmp_path / "exp" / "config.json").read_text())
    assert echo["dropped_groups"] == ["0000", "1111"]


def test_the_runner_checks_each_group_size_in_one_call(monkeypatch):
    # five groups of sizes 4, 3, 3, 4, 3; the three of size 3 are degenerate
    groups = {
        (0, 0, 0): [1.0, 1.5, 2.7, 1.2],
        (0, 0, 1): [3e7, 3e7, 3e7 + 3.7e-9],
        (0, 1, 0): [1.0, 1.0 + 2**-52, 1.0 + 2**-52],
        (0, 1, 1): [2.0, 2.25, 4.0, 3.1],
        (1, 0, 0): [2.0, 2.0, 2.0],
    }
    records = as_records([Sample(x, y) for x, ys in groups.items() for y in ys])
    family = pipeline._FAMILIES[DistFamily.GAMMA]
    calls = []

    def counting_degeneracy(ys):
        calls.append(np.shape(ys))
        return family.degeneracy(ys)

    monkeypatch.setitem(
        pipeline._FAMILIES, DistFamily.GAMMA, family._replace(degeneracy=counting_degeneracy)
    )
    kept, dropped = cli._drop_degenerate_groups(records, DistFamily.GAMMA)
    assert calls == [(2, 4), (3, 3)]
    assert dropped == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert kept.inputs == ((0, 0, 0), (0, 1, 1))


def test_config_echo_of_a_csv_run_leaves_out_the_generator_fields(tmp_path):
    write_csv(generate(GeneratorSpec(NoiseKind.SCALED_WHITE, d=4, replicates=6, seed=3)),
              tmp_path / "data.csv")
    run_experiment(small_config(str(tmp_path / "data.csv"), tmp_path / "csv"))
    run_experiment(small_config("B", tmp_path / "synthetic"))
    csv_echo = json.loads((tmp_path / "csv" / "config.json").read_text())
    synthetic_echo = json.loads((tmp_path / "synthetic" / "config.json").read_text())
    assert set(synthetic_echo) - set(csv_echo) == {"d", "replicates", "data_seed"}
    assert synthetic_echo["d"] == 5 and synthetic_echo["data_seed"] == 5


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"dataset": "A", "bogus": 1})


def test_run_suite_table_and_failures(tmp_path):
    configs = [
        small_config("A", tmp_path),
        small_config("nonexistent.csv", tmp_path),
    ]
    rows, status = run_suite(configs, tmp_path / "suite")
    assert status == EXIT_RUNTIME
    assert [r["status"] for r in rows] == ["ok", "ok", "FAILED", "FAILED"]
    summary = (tmp_path / "suite" / "summary.md").read_text()
    assert "FAILED" in summary
    assert (tmp_path / "suite" / "summary.csv").exists()


def test_run_suite_empty(tmp_path):
    rows, status = run_suite([], tmp_path / "suite")
    assert rows == [] and status == EXIT_OK
    assert (tmp_path / "suite" / "summary.md").exists()


def test_gaussian_family_on_gamma_noise_covers_worse(tmp_path):
    gamma_cfg = small_config("C", tmp_path / "g", d=7, replicates=20)
    gauss_cfg = small_config("C", tmp_path / "n", d=7, replicates=20, family="gaussian")
    gamma_rep = run_experiment(gamma_cfg)
    gauss_rep = run_experiment(gauss_cfg)
    # skewed noise misfits a symmetric t interval
    assert gauss_rep["dapien"]["picp"] < gamma_rep["dapien"]["picp"]


class TestCommandLine:
    def test_run_command(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": "A", "d": 4, "replicates": 6, "bootstrap_b": 2,
            "folds": 2, "max_iterations": 100,
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_command_bad_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"dataset": "A", "bogus": true}')
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    def test_run_command_missing_file(self):
        assert main(["run", "--config", "no/such/file.json"]) == EXIT_CONFIG

    def test_run_command_wrong_typed_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"dataset": "A", "confidence": "high"}')
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    def test_suite_missing_directory(self, tmp_path):
        code = main(["suite", "--configs", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "suite")])
        assert code == EXIT_CONFIG

    def test_suite_without_configs_is_a_config_error(self, tmp_path, caplog):
        configs_dir = tmp_path / "configs"
        configs_dir.mkdir()
        (configs_dir / "notes.txt").write_text("{}")
        out = tmp_path / "suite"
        code = main(["suite", "--configs", str(configs_dir), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "holds no *.json config" in caplog.text
        assert not out.exists()

    def test_generate_defaults_are_the_config_defaults(self, tmp_path):
        assert main(["generate", "--dataset", "B", "--out", str(tmp_path / "cli.csv")]) == EXIT_OK
        write_csv(generate(ExperimentConfig(dataset="B").generator_spec()), tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_a_group_below_float_resolution_is_dropped(self, tmp_path, caplog):
        # three of the five inputs hold groups a gamma fit cannot resolve: two
        # with a spread below float resolution, so whichever the split sends to
        # the test side one is trained on, and one whose log-spread rounds to
        # 0, which the seeded split trains on; the runner drops them by
        # fit_gamma's own predicate
        groups = {
            "0,0,0": [1.0, 1.5, 2.7, 1.2],
            "0,0,1": [3e7, 3e7, 3e7 + 3.7e-9],
            "0,1,0": [1.0, 1.0 + 2**-52, 1.0 + 2**-52],
            "0,1,1": [2.0, 2.25, 4.0, 3.1],
            "1,0,0": [3e7, 3e7 + 3.7e-9, 3e7],
        }
        data = tmp_path / "data.csv"
        data.write_text("x_0,x_1,x_2,y\n" + "".join(
            f"{x},{y!r}\n" for x, ys in groups.items() for y in ys
        ))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": str(data), "family": "gamma", "bootstrap_b": 2,
            "folds": 2, "max_iterations": 50,
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_OK
        assert "dropping 2 group(s) unusable for a gamma fit" in caplog.text
        echo = json.loads((out / "config.json").read_text())
        assert echo["dropped_groups"] == ["001", "010"]

    def test_generate_rejects_unknown_dataset(self, tmp_path):
        code = main(["generate", "--dataset", "Z", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_generate_rejects_an_out_of_range_size(self, tmp_path, caplog):
        code = main(["generate", "--dataset", "A", "--d", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "d must lie in" in caplog.text
        assert not (tmp_path / "x.csv").exists()

    def test_generate_to_an_unwritable_path_is_a_runtime_error(self, tmp_path, caplog):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["generate", "--dataset", "A", "--d", "3", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert str(out) in caplog.text
        assert not out.parent.exists()

    def test_suite_to_an_unwritable_path_is_a_runtime_error(self, tmp_path, caplog):
        configs_dir = tmp_path / "configs"
        configs_dir.mkdir()
        (configs_dir / "a.json").write_text(json.dumps({"dataset": "A", "d": 3}))
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        code = main(["suite", "--configs", str(configs_dir), "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert str(out) in caplog.text
        assert out.read_text() == "a file, not a directory"

    def test_suite_command(self, tmp_path):
        configs_dir = tmp_path / "configs"
        configs_dir.mkdir()
        for name in ("a", "b"):
            (configs_dir / f"{name}.json").write_text(json.dumps({
                "dataset": "A", "d": 4, "replicates": 6, "bootstrap_b": 2,
                "folds": 2, "max_iterations": 100,
            }))
        code = main(["suite", "--configs", str(configs_dir),
                     "--out", str(tmp_path / "suite")])
        assert code == EXIT_OK
        assert (tmp_path / "suite" / "summary.md").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"dataset": "A", "folds": 0},
            {"dataset": "A", "max_iterations": 0},
            {"test_fraction": 1.5},
            {"dataset": "B", "d": 0},
            {"dataset": "C", "replicates": 0},
            # wrong types: float counts and seeds, a bool, string rates, a number
            {"dataset": "B", "folds": 2.5},
            {"dataset": "B", "folds": True},
            {"dataset": "A", "d": 4.0},
            {"dataset": "A", "replicates": 6.0},
            {"dataset": "A", "bootstrap_b": 3.0},
            {"dataset": "A", "max_iterations": 100.0},
            {"dataset": "A", "data_seed": 1.5},
            {"dataset": "A", "cwc_eta": "50"},
            {"dataset": "A", "cwc_mu": "0.9"},
            {"dataset": "A", "train_seed": 3.5},
            {"dataset": 5},
            # negative seeds: numpy's seeding rejects them mid-run
            {"dataset": "A", "d": 4, "data_seed": -1},
            {"dataset": "A", "d": 4, "split_seed": -1},
            {"dataset": "A", "d": 4, "train_seed": -1},
        ],
    )
    def test_out_of_range_values_are_config_errors(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_suite_rejects_an_out_of_range_config_up_front(self, tmp_path):
        configs_dir = tmp_path / "configs"
        configs_dir.mkdir()
        (configs_dir / "a.json").write_text(json.dumps({"dataset": "A", "d": 4}))
        (configs_dir / "b.json").write_text(json.dumps({"dataset": "A", "folds": 0}))
        out = tmp_path / "suite"
        code = main(["suite", "--configs", str(configs_dir), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
