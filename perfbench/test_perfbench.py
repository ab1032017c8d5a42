"""Tests of the benchmark itself: tracer arithmetic, repeatable traced
counts, and refusal to run without the package sources.

Run from the checkout root with ``python3 -m pytest perfbench``; the
traced-count test runs every workload twice and takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REPEATABLE_COUNTS = (
    "regressor.train_rows",
    "regressor.gradient_evals",
    "distributions.t_quantile_calls",
    "distributions.gamma_inverse_cdf_calls",
    "synthdata.records",
)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_install_wraps_module_attributes_and_uninstall_restores():
    module = types.SimpleNamespace()

    def inner(fail=False):
        if fail:
            raise ValueError("boom")
        return 7

    module.inner, module.helper = inner, len
    tracer = Tracer()
    tracer.install([
        (module, "inner", "layer_b.inner", None),
        (module, "helper", None, "layer_b.helper_calls"),
    ])
    assert module.inner() == 7
    with pytest.raises(ValueError):
        module.inner(fail=True)
    assert module.helper("abc") == 3
    tracer.uninstall()
    assert module.inner is inner and module.helper is len

    assert tracer.calls == {"layer_b.inner": 2}
    assert tracer.errors == {"layer_b": 1}
    assert tracer.counts == {"layer_b.helper_calls": 1}
    assert [tracer.names[s[0]] for s in tracer.spans] == ["layer_b.inner"] * 2
    assert all(s[3] == -1 for s in tracer.spans)


def test_nested_spans_record_parents_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(50000)), "b.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "a.outer")
    outer()
    outer_span = tracer.spans[0]
    children = tracer.spans[1:]
    assert [s[3] for s in children] == [0, 0, 0]
    total = outer_span[2] - outer_span[1]
    child_total = sum(s[2] - s[1] for s in children)
    assert tracer.self_s["b.inner"] == pytest.approx(child_total)
    assert tracer.self_s["a.outer"] == pytest.approx(total - child_total)
    assert 0 < tracer.self_s["a.outer"] < total


@pytest.mark.parametrize("workload", ["suite", "query", "ingest"])
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        line = last_json(proc.stdout)
        assert line["correct"] and line["failed"] == 0
        runs.append({k: v["value"] for k, v in line["metrics"].items()})
    for name in REPEATABLE_COUNTS:
        assert runs[0][name] == runs[1][name], name
    busy = {
        "suite": ("regressor.train_rows", "regressor.gradient_evals", "synthdata.records"),
        "query": ("distributions.t_quantile_calls", "distributions.gamma_inverse_cdf_calls"),
        "ingest": ("synthdata.records", "distributions.fit_gamma_calls"),
    }[workload]
    assert all(runs[0][name] > 0 for name in busy)


def test_refuses_to_run_without_the_package_sources():
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        (bare / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_bench(bare, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
