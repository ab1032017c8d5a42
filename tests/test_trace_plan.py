"""The benchmark's per-layer trace still finds every function it wraps.

``perfbench/run.py`` traces dapien by replacing module attributes; a
renamed or moved function would make its traced runs fail, so every
``(module, attribute)`` of its plan must resolve in the package.  A
wrapper sees only calls that look the name up in its module at call time,
so the runner must keep calling each traced name through ``dapien.cli``.
"""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import dapien
import dapien.cli
from dapien.cli import METHODS, ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run_module():
    """Import perfbench/run.py, undoing its path and environment changes."""
    saved_env = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(saved_env)
    return module


def test_the_benchmark_workloads_run_on_the_data_api(tmp_path, monkeypatch):
    """perfbench's ingest pass and query models run and pass their own checks."""
    run = load_run_module()
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "INGEST_D", 4)
    (tmp_path / "tmp").mkdir()
    _, records = run.Ingest(dapien, 0).op()
    assert records == 2 * 2**4 * run.INGEST_REPLICATES
    models = run.Query(dapien, 0).fit_models()
    assert len(models) == 4


def test_every_traced_attribute_resolves():
    plan = load_run_module().trace_plan(dapien)
    assert plan
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in plan
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_the_tracer_sees_every_call_the_runner_makes(tmp_path):
    run = load_run_module()
    # dataset C takes the gamma path, which drops groups via group_by_unique_input
    config = ExperimentConfig(
        dataset="C", d=4, replicates=8, bootstrap_b=3, folds=2, max_iterations=100,
        output_dir=str(tmp_path),
    )
    tracer = run.Tracer()
    tracer.install(run.trace_plan(dapien))
    try:
        dapien.cli.run_experiment(config)
    finally:
        tracer.uninstall()
    assert tracer.names[tracer.spans[0][0]] == "cli.run_experiment"
    # the spans whose parent is run_experiment are the calls through dapien.cli
    direct = Counter(tracer.names[name] for name, _, _, parent in tracer.spans if parent == 0)

    # each method predicts every distinct test input in one call
    for name in (
        "pipeline.dapien_predict_interval",
        "pipeline.dapien_predict_point",
        "bootstrap.bootstrap_predict_interval",
        "bootstrap.bootstrap_predict_sigma",
    ):
        assert direct[name] == 1, name
    # the gamma family needs no t critical value; the bootstrap's one
    # interval call computes it once
    assert tracer.calls["distributions.t_quantile"] == 1
    assert direct["metrics.evaluate"] == len(METHODS)
    for name in (
        "pipeline.dapien_fit",
        "bootstrap.bootstrap_fit",
        "grouping.group_by_unique_input",
        "synthdata.generate",
        "synthdata.group_split",
    ):
        assert direct[name] >= 1, name
