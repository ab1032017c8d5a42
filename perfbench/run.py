#!/usr/bin/env python3
"""Benchmark of the dapien library through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, plain and traced

Workloads (one closed-loop caller each):

* ``suite``: the checked-in configs through ``cli.run_suite``, one pass per
  operation.  Regressor training is nearly all of its time.
* ``query``: four models fitted in set-up answer a seeded stream of single
  interval queries; one operation is one query to all four models.
* ``ingest``: the data path on datasets B and C at d=13 with the per-group
  fits and no training; one operation is one pass over both datasets.

The last line of standard output is one JSON object.  With ``--trace 0``
it holds the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
the per-layer metrics, taken from a traced second half of the run and
expressed per set-up plus per operation.  Outputs are checked outside the
timed region.  Seed 0 reproduces the checked-in config seeds (data 101,
split 202, train 303); any other seed derives every seed of the workload.
"""

import os

# pinned before numpy loads: OpenBLAS otherwise starts a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = {"suite": 7, "query": 3, "ingest": 7}

QUERY_REPLICATES = 3
QUERY_CONFIDENCES = (0.80, 0.90, 0.95, 0.99)
QUERY_CHECK_SHARE = 1 / 64
INGEST_D = 13
INGEST_REPLICATES = 20

# set-up of suite and ingest: a fresh interpreter importing the package and
# reading the configs, which is what a CLI user waits for before any work
STARTUP_SNIPPET = (
    "import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); import dapien.cli; "
    "[dapien.cli.ExperimentConfig.from_dict(json.loads(p.read_text())) "
    "for p in sorted(pathlib.Path(sys.argv[2]).glob('*.json'))]"
)


class CheckFailed(Exception):
    """An output check found a wrong result."""


def load_dapien():
    """Import dapien from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dapien" / "__init__.py").is_file():
        sys.exit(f"error: no dapien sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import dapien
    import dapien.cli

    if Path(dapien.__file__).resolve().parent != SRC / "dapien":
        sys.exit(f"error: imported dapien from {dapien.__file__}, not {SRC}")
    return dapien


def workload_seeds(seed, dp):
    """(data, split, train, stream) seeds of a workload.

    The default seed keeps the checked-in config seeds for the first three.
    """
    derived = [int(v) for v in np.random.SeedSequence(seed).generate_state(4, np.uint64)]
    if seed == DEFAULT_SEED:
        defaults = dp.cli.ExperimentConfig()
        derived[:3] = [defaults.data_seed, defaults.split_seed, defaults.train_seed]
    return derived


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def startup_seconds():
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", STARTUP_SNIPPET, str(SRC), str(CONFIGS)],
        check=True, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads: set_up() -> seconds; op() -> (timed seconds, records), checking
# its outputs after the clock stops; finish() -> reported values, after all
# timing
# ---------------------------------------------------------------------------


class Suite:
    def __init__(self, dp, seed):
        self.cli = dp.cli
        self.configs = [
            self.cli.ExperimentConfig.from_dict(json.loads(p.read_text()))
            for p in sorted(CONFIGS.glob("*.json"))
        ]
        if not self.configs:
            sys.exit(f"error: no configs under {CONFIGS}")
        if seed != DEFAULT_SEED:
            data, split, train, _ = workload_seeds(seed, dp)
            self.configs = [
                replace(c, data_seed=data, split_seed=split, train_seed=train)
                for c in self.configs
            ]
        self.records = sum(2 ** c.d * c.replicates for c in self.configs)
        self.quality = None

    def set_up(self):
        return startup_seconds()

    def op(self):
        out_dir = tempfile.mkdtemp(dir=OUT / "tmp", prefix="suite-")
        try:
            seconds, (rows, status) = timed(self.cli.run_suite, self.configs, out_dir)
            self.check(Path(out_dir), rows, status)
        finally:
            shutil.rmtree(out_dir)
        return seconds, self.records

    def check(self, out_dir, rows, status):
        if status != 0 or any(r["status"] != "ok" for r in rows):
            raise CheckFailed(f"suite status {status}: {rows}")
        names = sorted(p.name for p in out_dir.iterdir())
        experiments = [n for n in names if n.startswith("experiment_")]
        if names != sorted(experiments + ["summary.csv", "summary.md"]):
            raise CheckFailed(f"unexpected suite outputs {names}")
        if len(experiments) != len(self.configs):
            raise CheckFailed(f"{len(experiments)} experiment dirs for {len(self.configs)} configs")
        quality = {}
        for name in experiments:
            exp = out_dir / name
            files = sorted(p.name for p in exp.iterdir())
            if files != ["config.json", "intervals.csv", "report.json"]:
                raise CheckFailed(f"{name}: partial or extra outputs {files}")
            report = json.loads((exp / "report.json").read_text())
            with open(exp / "intervals.csv", newline="") as fh:
                table = list(csv.DictReader(fh))
            y = np.array([float(r["y"]) for r in table])
            for method in ("dapien", "bootstrap"):
                lo, pt, up = (
                    np.array([float(r[f"{method}_{k}"]) for r in table])
                    for k in ("lower", "point", "upper")
                )
                if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(pt)) and np.all(np.isfinite(up))):
                    raise CheckFailed(f"{name}/{method}: non-finite interval values")
                if not (np.all(lo <= pt) and np.all(pt <= up)):
                    raise CheckFailed(f"{name}/{method}: lower <= point <= upper violated")
                picp = float(np.mean((y >= lo) & (y <= up)))
                mpiw = float(np.mean(up - lo))
                doc = report[method]
                if picp != doc["picp"] or not math.isclose(mpiw, doc["mpiw"], rel_tol=1e-12):
                    raise CheckFailed(
                        f"{name}/{method}: intervals.csv gives PICP {picp} MPIW {mpiw}, "
                        f"report.json {doc['picp']} {doc['mpiw']}"
                    )
                quality[(name, method)] = (doc["picp"], doc["confidence"], doc["nmpiw"])
        self.quality = quality

    def finish(self):
        values = {}
        for method in ("dapien", "bootstrap"):
            mine = [v for (_, m), v in self.quality.items() if m == method]
            values[f"{method}_picp_gap"] = statistics.fmean(abs(p - c) for p, c, _ in mine)
            values[f"{method}_nmpiw"] = statistics.fmean(w for _, _, w in mine)
        return values


class Query:
    def __init__(self, dp, seed):
        self.dp = dp
        self.data_seed, self.split_seed, self.train_seed, stream_seed = workload_seeds(seed, dp)
        self.rng = np.random.default_rng(stream_seed)
        self.seen = set()
        self.repeats = 0
        self.asked = 0
        self.checked = []
        self.pending = []
        self.models = None

    def set_up(self):
        seconds, self.models = timed(self.fit_models)
        return seconds

    def fit_models(self):
        """Gaussian and gamma dapien models plus a bootstrap each, as the CLI fits them."""
        dp = self.dp
        synthdata, pipeline, bootstrap = dp.synthdata, dp.pipeline, dp.bootstrap
        config = dp.cli.ExperimentConfig()
        train_configs = [
            dp.TrainConfig(
                max_iterations=config.max_iterations, folds=config.folds,
                seed=int(s.generate_state(1, np.uint64)[0]),
            )
            for s in np.random.SeedSequence(self.train_seed).spawn(2)
        ]
        models = []
        for noise, family in (
            (synthdata.NoiseKind.SCALED_WHITE, dp.DistFamily.GAUSSIAN),
            (synthdata.NoiseKind.SCALED_GAMMA, dp.DistFamily.GAMMA),
        ):
            samples = synthdata.generate(
                synthdata.GeneratorSpec(
                    noise=noise, d=config.d, replicates=QUERY_REPLICATES, seed=self.data_seed
                )
            )
            train, _ = synthdata.group_split(
                samples, synthdata.SplitSpec(test_fraction=config.test_fraction, seed=self.split_seed)
            )
            fit_rows = train
            if family is dp.DistFamily.GAMMA:
                fit_rows = [s for s in train if sum(s.x) > 0]  # f(x) = 0 groups are constant
            models.append(pipeline.dapien_fit(fit_rows, family, train_configs[0]))
            models.append(bootstrap.bootstrap_fit(train, config.bootstrap_b, train_configs[1]))
        return models

    def next_query(self):
        if not self.pending:
            n, d = 4096, self.models[0].dim
            codes = self.rng.integers(0, 2 ** d, size=n)
            confs = self.rng.choice(QUERY_CONFIDENCES, size=n)
            keep = self.rng.random(n) < QUERY_CHECK_SHARE
            self.pending = [
                (tuple((int(c) >> j) & 1 for j in range(d)), float(q), bool(k))
                for c, q, k in zip(codes, confs, keep)
            ][::-1]
        return self.pending.pop()

    def op(self):
        x, conf, keep = self.next_query()
        pipeline, bootstrap = self.dp.pipeline, self.dp.bootstrap
        dg, bg, dm, bm = self.models
        start = time.perf_counter()
        answers = (
            pipeline.dapien_predict_interval(dg, x, conf),
            bootstrap.bootstrap_predict_interval(bg, x, conf),
            pipeline.dapien_predict_interval(dm, x, conf),
            bootstrap.bootstrap_predict_interval(bm, x, conf),
        )
        seconds = time.perf_counter() - start
        self.asked += 1
        if (x, conf) in self.seen:
            self.repeats += 1
        else:
            self.seen.add((x, conf))
        if keep:
            self.checked.append((x, conf, answers))
        return seconds, 1

    def finish(self):
        """Compare the sampled answers with scipy's t and gamma quantiles."""
        from scipy import stats

        pipeline, bootstrap = self.dp.pipeline, self.dp.bootstrap
        dg, bg, dm, bm = self.models
        for x, conf, (d_g, b_g, d_m, b_m) in self.checked:
            tail = 0.5 * (1.0 - conf)
            p = pipeline.predict_params(dg, x)
            c = stats.t.ppf(1.0 - tail, dg.ndf)
            expect = [(d_g, p.mean, c * math.sqrt(p.variance))]
            for model, answer in ((bg, b_g), (bm, b_m)):
                mu, sigma = bootstrap.bootstrap_predict_sigma(model, x)
                expect.append((answer, mu, stats.t.ppf(1.0 - tail, model.b) * sigma))
            for answer, centre, half in expect:
                close(answer.lower, centre - half, x, conf)
                close(answer.upper, centre + half, x, conf)
            g = pipeline.predict_params(dm, x)
            for got, q in ((d_m.lower, tail), (d_m.upper, 1.0 - tail)):
                close(got, g.location + stats.gamma.ppf(q, g.shape, scale=1.0 / g.rate), x, conf)
        return {
            "repeat_share": self.repeats / self.asked,
            "queries": self.asked,
            "checked_answers": 4 * len(self.checked),
        }


def close(got, want, x, conf):
    if not (math.isfinite(got) and math.isclose(got, want, rel_tol=1e-7, abs_tol=1e-9)):
        raise CheckFailed(f"query {x} at {conf}: got {got!r}, scipy gives {want!r}")


class Ingest:
    def __init__(self, dp, seed):
        self.dp = dp
        self.data_seed, self.split_seed, _, _ = workload_seeds(seed, dp)

    def set_up(self):
        return startup_seconds()

    def op(self):
        synthdata, grouping, family = self.dp.synthdata, self.dp.grouping, self.dp.DistFamily
        seconds = 0.0
        records = 0
        out_dir = tempfile.mkdtemp(dir=OUT / "tmp", prefix="ingest-")
        try:
            for noise, fam in (
                (synthdata.NoiseKind.SCALED_WHITE, family.GAUSSIAN),
                (synthdata.NoiseKind.SCALED_GAMMA, family.GAMMA),
            ):
                path = Path(out_dir) / f"{noise.value}.csv"
                start = time.perf_counter()
                samples = synthdata.generate(
                    synthdata.GeneratorSpec(
                        noise=noise, d=INGEST_D, replicates=INGEST_REPLICATES, seed=self.data_seed
                    )
                )
                synthdata.write_csv(samples, path)
                read = synthdata.read_csv(path)
                train, _ = synthdata.group_split(read, synthdata.SplitSpec(seed=self.split_seed))
                grouped = grouping.group_by_unique_input(train)
                if fam is family.GAMMA:
                    # a gamma fit needs spread; f(x) = 0 groups are constant
                    grouped = replace(
                        grouped,
                        groups=tuple(g for g in grouped.groups if np.ptp(g[1]) > 0 and g[1].size >= 3),
                    )
                dist = grouping.build_dist_dataset(grouped, fam)
                seconds += time.perf_counter() - start
                records += len(samples)
                self.check(samples, read, dist, grouped)
        finally:
            shutil.rmtree(out_dir)
        return seconds, records

    @staticmethod
    def check(samples, read, dist, grouped):
        if len(read) != len(samples) or any(a.x != b.x for a, b in zip(samples, read)):
            raise CheckFailed("read_csv changed the records' inputs")
        ys = np.array([s.y for s in samples])
        if ys.tobytes() != np.array([s.y for s in read]).tobytes():
            raise CheckFailed("read_csv did not reproduce every target bit for bit")
        if len(dist.rows) != len(grouped.groups):
            raise CheckFailed("build_dist_dataset dropped groups")

    def finish(self):
        return {}


WORKLOAD_TYPES = {"suite": Suite, "query": Query, "ingest": Ingest}


# ---------------------------------------------------------------------------
# tracing plan: every wrapped name, where it is looked up
# ---------------------------------------------------------------------------


def _add(counter, size):
    def note(tracer, args, kwargs, result):
        tracer.counts[counter] += size(args, result)
    return note


def _train_name(args, kwargs):
    activation = args[2] if len(args) > 2 else kwargs["activation"]
    return f"regressor.train_{activation.value}"


def _train_note(tracer, args, kwargs, result):
    tracer.counts["regressor.train_calls"] += 1
    tracer.counts["regressor.train_rows"] += len(args[1])


def _t_quantile_note(tracer, args, kwargs, result):
    tracer.distinct["distributions.t_quantile"].add(tuple(args) + tuple(sorted(kwargs.items())))


def _output_bytes(args, result):
    out_dir = Path(args[0].output_dir)
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def trace_plan(dp):
    cli, pipeline, bootstrap = dp.cli, dp.pipeline, dp.bootstrap
    synthdata, grouping, distributions = dp.synthdata, dp.grouping, dp.distributions
    records = _add("synthdata.records", lambda a, r: len(r))
    groups = _add("grouping.groups", lambda a, r: len(r))
    spans = [
        (cli, "run_suite", "cli.run_suite", None),
        (cli, "run_experiment", "cli.run_experiment", _add("cli.output_bytes", _output_bytes)),
        (cli, "evaluate", "metrics.evaluate", None),
        (cli, "dapien_fit", "pipeline.dapien_fit", None),
        (cli, "dapien_predict_interval", "pipeline.dapien_predict_interval", None),
        (cli, "dapien_predict_point", "pipeline.dapien_predict_point", None),
        (cli, "bootstrap_fit", "bootstrap.bootstrap_fit",
         _add("bootstrap.resampled_rows", lambda a, r: len(a[0]) * a[1])),
        (cli, "bootstrap_predict_interval", "bootstrap.bootstrap_predict_interval", None),
        (cli, "bootstrap_predict_sigma", "bootstrap.bootstrap_predict_sigma", None),
        (cli, "group_by_unique_input", "grouping.group_by_unique_input", groups),
    ]
    for owner in (cli, synthdata):
        spans += [
            (owner, "generate", "synthdata.generate", records),
            (owner, "group_split", "synthdata.group_split", None),
            (owner, "read_csv", "synthdata.read_csv", records),
            (owner, "write_csv", "synthdata.write_csv",
             _add("synthdata.csv_bytes", lambda a, r: os.path.getsize(a[1]))),
        ]
    spans += [
        (grouping, "group_by_unique_input", "grouping.group_by_unique_input", groups),
        (grouping, "build_dist_dataset", "grouping.build_dist_dataset", None),
        (grouping, "fit_gaussian", "distributions.fit_gaussian", None),
        (grouping, "fit_gamma", "distributions.fit_gamma", None),
        (pipeline, "dapien_fit", "pipeline.dapien_fit", None),
        (pipeline, "dapien_predict_interval", "pipeline.dapien_predict_interval", None),
        (pipeline, "group_by_unique_input", "grouping.group_by_unique_input", groups),
        (pipeline, "build_dist_dataset", "grouping.build_dist_dataset", None),
        (pipeline, "train", _train_name, _train_note),
        (pipeline, "predict", "regressor.predict", None),
        (pipeline, "t_quantile", "distributions.t_quantile", _t_quantile_note),
        (bootstrap, "bootstrap_fit", "bootstrap.bootstrap_fit",
         _add("bootstrap.resampled_rows", lambda a, r: len(a[0]) * a[1])),
        (bootstrap, "bootstrap_predict_interval", "bootstrap.bootstrap_predict_interval", None),
        (bootstrap, "bootstrap_predict_sigma", "bootstrap.bootstrap_predict_sigma", None),
        (bootstrap, "train", _train_name, _train_note),
        (bootstrap, "predict_batch", "regressor.predict", None),
        (bootstrap, "t_quantile", "distributions.t_quantile", _t_quantile_note),
        (distributions, "gamma_inverse_cdf", "distributions.gamma_inverse_cdf", None),
        (dp.regressor, "loss_and_gradient", None, "regressor.gradient_evals"),
    ]
    return spans


def layer_values(tracer):
    """Every value a tracer holds, under its per-layer metric name."""
    values = dict(tracer.counts)
    for name, seconds in tracer.self_s.items():
        values[f"{name}_s"] = seconds
        values[f"{name}_calls"] = tracer.calls[name]
    for layer, n in tracer.errors.items():
        values[f"{layer}.errors"] = n
    return values


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def measure(workload, seconds, stats):
    """Run whole operations for about ``seconds``, at least one.

    Another operation starts only while it would end nearer the deadline
    than the last one did, so a run of long operations does not overshoot
    by up to one of them.  Returns the durations and the records carried.
    """
    durations = []
    records = 0
    start = time.perf_counter()
    while True:
        stats["attempted"] += 1
        op_start = time.perf_counter()
        try:
            op_seconds, op_records = workload.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            stats["failed"] += 1
            stats["failures"].append(f"{type(exc).__name__}: {exc}")
        else:
            durations.append(op_seconds)
            records += op_records
        now = time.perf_counter()
        if now - start + (now - op_start) / 2 >= seconds:
            return durations, records


def percentile_tail(durations):
    """p99 when at least ten operations lie beyond it, else the slowest."""
    if len(durations) >= 1000:
        return statistics.quantiles(durations, n=100)[98]
    return max(durations)


def environment():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        head = "unknown (not a git checkout)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": head,
        "platform": platform.platform(),
    }


def run_workload(spec, name, seed, seconds, trace):
    dp = load_dapien()
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_TYPES[name](dp, seed)
    stats = {"attempted": 0, "failed": 0, "failures": []}
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(trace_plan(dp))
    try:
        setups = [workload.set_up() for _ in range(SETUP_REPEATS[name])]
    finally:
        setup_tracer.uninstall()
    stats["attempted"] += len(setups)

    op_tracer = Tracer()
    if trace:
        # end-to-end values come from the plain first half only
        durations, records = measure(workload, seconds / 2, stats)
        op_tracer.install(trace_plan(dp))
        try:
            traced, _ = measure(workload, seconds / 2, stats)
        finally:
            op_tracer.uninstall()
    else:
        durations, records = measure(workload, seconds, stats)
    rss = peak_rss_mb()

    try:
        extra = workload.finish()
    except CheckFailed as exc:
        stats["failed"] += 1
        stats["failures"].append(str(exc))
        extra = {}
    if not durations or (trace and not traced):
        print(f"{name}: every operation failed", *stats["failures"], sep="\n", file=sys.stderr)
        sys.exit(1)

    p50 = statistics.median(durations)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * p50,
        "latency_p99_ms": 1e3 * percentile_tail(durations),
        # records of one operation at the median operation time
        "records_per_s": records / len(durations) / p50,
        "peak_rss_mb": rss,
    }
    error_rate = stats["failed"] / stats["attempted"]
    named = {"setup_s": (end_to_end["setup_s"], "s"), "peak_rss_mb": (rss, "MB"),
             "error_rate": (error_rate, "ratio")}
    if name == "suite":
        named["suite_s"] = (p50, "s")
        named.update({k: (v, "ratio") for k, v in extra.items()})
    elif name == "query":
        named["query_p50_us"] = (1e3 * end_to_end["latency_p50_ms"], "us")
        named["query_p99_us"] = (1e3 * end_to_end["latency_p99_ms"], "us")
        named["query_repeat_share"] = (extra.get("repeat_share", 0.0), "ratio")
    else:
        named["ingest_records_per_s"] = (end_to_end["records_per_s"], "records/s")

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "operations": len(durations),
        "setup_samples_s": setups,
        "end_to_end": end_to_end,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "extra": extra,
        "attempted": stats["attempted"], "failed": stats["failed"], "failures": stats["failures"],
    }
    if trace:
        n_setup, n_ops = len(setups), len(traced)
        setup_values, op_values = layer_values(setup_tracer), layer_values(op_tracer)
        keys = set(setup_values) | set(op_values)
        per_layer = {
            k: setup_values.get(k, 0) / n_setup + op_values.get(k, 0) / n_ops for k in keys
        }
        calls = setup_tracer.calls["distributions.t_quantile"] + op_tracer.calls["distributions.t_quantile"]
        distinct = setup_tracer.distinct["distributions.t_quantile"] | op_tracer.distinct["distributions.t_quantile"]
        per_layer["distributions.t_quantile_distinct_share"] = len(distinct) / calls if calls else 0.0
        overhead = statistics.median(traced) / p50 - 1.0
        per_layer["trace.overhead"] = overhead
        result["per_layer"] = dict(sorted(per_layer.items()))
        setup_tracer.write_spans(OUT / f"{name}-setup.spans.npz")
        op_tracer.write_spans(OUT / f"{name}-ops.spans.npz")
        metrics = {m["name"]: per_layer.get(m["name"], 0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for key, doc in sorted(result["named"].items()):
        print(f"{name} {key} {doc['value']:.6g} {doc['unit']}")
    if trace:
        print(f"{name} trace.overhead {overhead:.4f} ratio (traced/plain op median - 1)")
    for failure in stats["failures"]:
        print(f"{name} FAILED CHECK {failure}")
    line = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))


def run_all(seed, seconds):
    """Every workload, plain then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOAD_TYPES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            print(proc.stdout, end="")
            summary[f"{name}-trace{trace}"] = json.loads(
                (OUT / f"{name}-seed{seed}-trace{trace}.json").read_text()
            )
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"results written to {path}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_TYPES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
