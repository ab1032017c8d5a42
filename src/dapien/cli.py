"""Experiment runner: generate or load data, fit both methods, evaluate.

``run`` produces three files per experiment: ``report.json`` with the
aggregate interval metrics per method, ``intervals.csv`` with one row per
test sample (the data behind interval plots), and ``config.json`` echoing
the resolved configuration for provenance.  ``suite`` runs several
experiments and tabulates PICP/MPIW per (dataset, method).  All outputs
are byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bootstrap import bootstrap_fit, bootstrap_predict_interval, bootstrap_predict_sigma
from .distributions import DistFamily
from .errors import DapienError
from .grouping import group_by_unique_input
from .metrics import evaluate
from .pipeline import dapien_fit, dapien_predict_interval, dapien_predict_point
from .regressor import TrainConfig, child_seed
from .synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    group_split,
    read_csv,
    write_csv,
)

log = logging.getLogger("dapien")

_DATASET_NOISE = {
    "A": NoiseKind.CONDITIONAL_WHITE,
    "B": NoiseKind.SCALED_WHITE,
    "C": NoiseKind.SCALED_GAMMA,
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; serialisable to/from JSON."""

    dataset: str = "A"
    family: str | None = None
    confidence: float = 0.95
    bootstrap_b: int = 20
    data_seed: int = 101
    split_seed: int = 202
    train_seed: int = 303
    test_fraction: float = 0.2
    d: int = 10
    replicates: int = 20
    folds: int = 5
    max_iterations: int = 500
    cwc_mu: float | None = None
    cwc_eta: float = 50.0
    output_dir: str = "."

    def __post_init__(self):
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.bootstrap_b < 2:
            raise ValueError("bootstrap_b must be >= 2")
        if self.family is not None:
            DistFamily(self.family)
        # the specs the run builds check their own fields; a bad value is
        # a config error, found before anything runs
        TrainConfig(max_iterations=self.max_iterations, folds=self.folds)
        SplitSpec(test_fraction=self.test_fraction)
        if self.dataset in _DATASET_NOISE:
            GeneratorSpec(
                noise=_DATASET_NOISE[self.dataset], d=self.d, replicates=self.replicates
            )

    def resolved_family(self) -> DistFamily:
        if self.family is not None:
            return DistFamily(self.family)
        return DistFamily.GAMMA if self.dataset == "C" else DistFamily.GAUSSIAN

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)


def _load_samples(config: ExperimentConfig):
    name = config.dataset
    if name in _DATASET_NOISE:
        spec = GeneratorSpec(
            noise=_DATASET_NOISE[name],
            d=config.d,
            replicates=config.replicates,
            seed=config.data_seed,
        )
        return generate(spec)
    return read_csv(name)


def _drop_degenerate_groups(samples, family: DistFamily):
    """Remove groups a gamma fit cannot use; returns (kept, dropped keys)."""
    if family is not DistFamily.GAMMA:
        return list(samples), []
    grouped = group_by_unique_input(samples)
    bad = {
        x
        for x, ys in grouped.groups
        if ys.size < 3 or bool(np.all(ys == ys[0]))
    }
    if bad:
        log.warning(
            "dropping %d group(s) unusable for a gamma fit (e.g. %s)",
            len(bad),
            "".join(map(str, sorted(bad)[0])),
        )
    return [s for s in samples if s.x not in bad], sorted(bad)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; writes report/intervals/config files.

    Returns the report dictionary.  On any failure the partially written
    outputs are removed and the error re-raised.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        family = config.resolved_family()
        samples = _load_samples(config)
        train_samples, test_samples = group_split(
            samples, SplitSpec(test_fraction=config.test_fraction, seed=config.split_seed)
        )
        fit_samples, dropped = _drop_degenerate_groups(train_samples, family)

        dapien_config, boot_config = (
            TrainConfig(
                max_iterations=config.max_iterations,
                folds=config.folds,
                seed=child_seed(config.train_seed, i),
            )
            for i in range(2)
        )
        model = dapien_fit(fit_samples, family, dapien_config)
        boot = bootstrap_fit(train_samples, config.bootstrap_b, boot_config)

        # test groups share intervals, so predict once per unique input
        cache: dict[tuple[int, ...], tuple] = {}
        rows = []
        for s in test_samples:
            if s.x not in cache:
                d_iv = dapien_predict_interval(model, s.x, config.confidence)
                d_pt = dapien_predict_point(model, s.x)
                b_iv = bootstrap_predict_interval(boot, s.x, config.confidence)
                b_pt = bootstrap_predict_sigma(boot, s.x)[0]
                cache[s.x] = (d_iv, d_pt, b_iv, b_pt)
            rows.append((s, *cache[s.x]))

        targets = [s.y for s, *_ in rows]
        d_report = evaluate(
            [r[1] for r in rows], targets, config.confidence,
            cwc_mu=config.cwc_mu, cwc_eta=config.cwc_eta,
        )
        b_report = evaluate(
            [r[3] for r in rows], targets, config.confidence,
            cwc_mu=config.cwc_mu, cwc_eta=config.cwc_eta,
        )

        def public(report):
            doc = report.to_dict()
            return {k: doc[k] for k in ("picp", "mpiw", "nmpiw", "cwc", "n", "confidence")}

        report = {"dapien": public(d_report), "bootstrap": public(b_report)}

        report_path = out_dir / "report.json"
        written.append(report_path)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

        intervals_path = out_dir / "intervals.csv"
        written.append(intervals_path)
        dim = len(rows[0][0].x)
        with open(intervals_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"x_{j}" for j in range(dim)]
                + [
                    "y",
                    "dapien_lower", "dapien_point", "dapien_upper",
                    "bootstrap_lower", "bootstrap_point", "bootstrap_upper",
                ]
            )
            for s, d_iv, d_pt, b_iv, b_pt in rows:
                writer.writerow(
                    list(s.x)
                    + [repr(v) for v in (
                        s.y, d_iv.lower, d_pt, d_iv.upper,
                        b_iv.lower, b_pt, b_iv.upper,
                    )]
                )

        config_path = out_dir / "config.json"
        written.append(config_path)
        echo = asdict(config)
        echo["resolved_family"] = family.value
        echo["dropped_groups"] = ["".join(map(str, x)) for x in dropped]
        config_path.write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
        return report
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def run_suite(configs, output_dir) -> tuple[list[dict], int]:
    """Run several experiments; failures are recorded, not fatal.

    Returns the summary rows and the exit status (nonzero if any
    experiment failed).  Writes ``summary.md`` and ``summary.csv``.
    """
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    status = EXIT_OK
    for i, config in enumerate(configs):
        label = config.dataset if config.dataset in _DATASET_NOISE else f"csv{i}"
        config = replace(config, output_dir=str(out_dir / f"experiment_{i}_{label}"))
        try:
            report = run_experiment(config)
            for method in ("dapien", "bootstrap"):
                rows.append(
                    {
                        "dataset": label,
                        "method": method,
                        "picp": report[method]["picp"],
                        "mpiw": report[method]["mpiw"],
                        "status": "ok",
                    }
                )
        except Exception as exc:
            log.error("experiment %d (%s) failed: %s", i, label, exc)
            status = EXIT_RUNTIME
            for method in ("dapien", "bootstrap"):
                rows.append(
                    {
                        "dataset": label,
                        "method": method,
                        "picp": math.nan,
                        "mpiw": math.nan,
                        "status": "FAILED",
                    }
                )

    csv_path = out_dir / "summary.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dataset", "method", "picp", "mpiw", "status"])
        writer.writeheader()
        writer.writerows(rows)

    md_lines = ["| dataset | method | PICP | MPIW | status |", "| --- | --- | --- | --- | --- |"]
    for r in rows:
        picp_s = "-" if math.isnan(r["picp"]) else f"{100 * r['picp']:.1f}%"
        mpiw_s = "-" if math.isnan(r["mpiw"]) else f"{r['mpiw']:.3g}"
        md_lines.append(
            f"| {r['dataset']} | {r['method']} | {picp_s} | {mpiw_s} | {r['status']} |"
        )
    (out_dir / "summary.md").write_text("\n".join(md_lines) + "\n")
    return rows, status


def _cmd_generate(args) -> int:
    if args.dataset not in _DATASET_NOISE:
        log.error("unknown dataset %r (expected A, B or C)", args.dataset)
        return EXIT_CONFIG
    spec = GeneratorSpec(
        noise=_DATASET_NOISE[args.dataset],
        d=args.d,
        replicates=args.replicates,
        seed=args.seed,
    )
    samples = generate(spec)
    write_csv(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        config = ExperimentConfig.from_dict(doc)
    except (OSError, ValueError, TypeError) as exc:
        log.error("bad config %s: %s", args.config, exc)
        return EXIT_CONFIG
    if args.out is not None:
        config.output_dir = args.out
    try:
        report = run_experiment(config)
    except (DapienError, OSError, ValueError) as exc:
        log.error("experiment failed: %s", exc)
        return EXIT_RUNTIME
    for method, metrics_doc in sorted(report.items()):
        print(
            f"{method}: PICP {100 * metrics_doc['picp']:.1f}%  "
            f"MPIW {metrics_doc['mpiw']:.4g}"
        )
    return EXIT_OK


def _cmd_suite(args) -> int:
    configs_dir = Path(args.configs)
    if not configs_dir.is_dir():
        log.error("configs directory %s does not exist", configs_dir)
        return EXIT_CONFIG
    configs = []
    for path in sorted(configs_dir.glob("*.json")):
        try:
            configs.append(ExperimentConfig.from_dict(json.loads(path.read_text())))
        except (OSError, ValueError, TypeError) as exc:
            log.error("bad config %s: %s", path, exc)
            return EXIT_CONFIG
    rows, status = run_suite(configs, args.out)
    print((Path(args.out) / "summary.md").read_text(), end="")
    return status


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(
        prog="dapien",
        description="Prediction-interval experiments on binary nominal inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    p_gen.add_argument("--dataset", required=True, help="A, B or C")
    p_gen.add_argument("--seed", type=int, default=101)
    p_gen.add_argument("--d", type=int, default=10)
    p_gen.add_argument("--replicates", type=int, default=20)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run every *.json config in a directory")
    p_suite.add_argument("--configs", required=True)
    p_suite.add_argument("--out", default="suite_output")
    p_suite.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
