"""Experiment runner: generate or load data, fit both methods, evaluate.

``run`` produces three files per experiment: ``report.json`` with the
aggregate interval metrics per method, ``intervals.csv`` with one row per
test sample (the data behind interval plots, written by
``synthdata.csv_lines`` with one column per method and bound), and
``config.json`` echoing the resolved configuration for provenance, less
the generator fields for a CSV dataset.  The runner drops the training
groups that its family's ``degeneracy`` names (gamma's only).  ``suite``
runs several experiments and tabulates PICP/MPIW per (dataset, method).
All outputs are byte-stable for a fixed configuration.  Each output loops
over ``METHODS``, and an ``ExperimentConfig`` builds every spec a run uses.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bootstrap import bootstrap_fit, bootstrap_predict_interval, bootstrap_predict_sigma
from .distributions import DistFamily
from .errors import DapienError
from .grouping import group_by_unique_input
from .metrics import evaluate
from .pipeline import _FAMILIES, dapien_fit, dapien_predict_interval, dapien_predict_point
from .regressor import TrainConfig, child_seed
from .synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    csv_lines,
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

# the compared methods, in report and intervals.csv column order
METHODS = ("dapien", "bootstrap")
_REPORT_KEYS = ("picp", "mpiw", "nmpiw", "cwc", "n", "confidence")
_SUMMARY_FIELDS = ("dataset", "method", "picp", "mpiw", "status")
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}

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
        # a field holds a value of its annotated type; JSON's true and false
        # are ints to Python but never a count or a rate here
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value, allowed = getattr(self, f.name), _FIELD_TYPES[kind]
            if optional and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.bootstrap_b < 2:
            raise ValueError("bootstrap_b must be >= 2")
        if min(self.data_seed, self.split_seed, self.train_seed) < 0:
            raise ValueError("data_seed, split_seed and train_seed must be >= 0")
        if self.family is not None:
            DistFamily(self.family)
        # the specs check their own fields, so a bad value is a config error
        # found before anything runs; training is checked without the seeds,
        # whose derivation would import numpy.random into every config parse
        TrainConfig(max_iterations=self.max_iterations, folds=self.folds)
        self.split_spec()
        if self.dataset in _DATASET_NOISE:
            self.generator_spec()

    def generator_spec(self) -> GeneratorSpec:
        """The synthetic dataset's spec; only for the datasets A, B and C."""
        return GeneratorSpec(
            noise=_DATASET_NOISE[self.dataset],
            d=self.d,
            replicates=self.replicates,
            seed=self.data_seed,
        )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(test_fraction=self.test_fraction, seed=self.split_seed)

    def train_config(self, index: int) -> TrainConfig:
        """Training settings of ``METHODS[index]``: 0 is dapien, 1 the bootstrap."""
        return TrainConfig(
            max_iterations=self.max_iterations,
            folds=self.folds,
            seed=child_seed(self.train_seed, index),
        )

    def resolved_family(self) -> DistFamily:
        if self.family is not None:
            return DistFamily(self.family)
        return DistFamily.GAMMA if self.dataset == "C" else DistFamily.GAUSSIAN

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)


def _load_samples(config: ExperimentConfig):
    if config.dataset in _DATASET_NOISE:
        return generate(config.generator_spec())
    return read_csv(config.dataset)


def _drop_degenerate_groups(records, family: DistFamily):
    """Remove the groups the family's ``degeneracy`` names; returns (kept, sorted dropped keys)."""
    degeneracy = _FAMILIES[family].degeneracy
    if degeneracy is None:
        return records, []
    # one group per input of ``records``, in the same order
    grouped = group_by_unique_input(records)
    bad = np.array([degeneracy(ys) is not None for _, ys in grouped.groups])
    dropped = sorted(records.inputs[i] for i in np.flatnonzero(bad))
    if dropped:
        log.warning(
            "dropping %d group(s) unusable for a %s fit (e.g. %s)",
            len(dropped), family.value, "".join(map(str, dropped[0])),
        )
    return records.subset(~bad), dropped


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; writes report/intervals/config files.

    Returns the report dictionary.  On any failure the partially written
    outputs are removed and the error re-raised.
    """
    out_dir = Path(config.output_dir)
    written: list[Path] = []
    try:
        family = config.resolved_family()
        train, test = group_split(_load_samples(config), config.split_spec())
        fit_records, dropped = _drop_degenerate_groups(train, family)
        model = dapien_fit(fit_records, family, config.train_config(0))
        boot = bootstrap_fit(train, config.bootstrap_b, config.train_config(1))

        # test groups share intervals, so each method predicts every distinct
        # input in one call; per method, (lower, point, upper) in METHODS order
        U = np.asarray(test.inputs, dtype=np.float64)
        dapien_iv = dapien_predict_interval(model, U, config.confidence)
        boot_iv = bootstrap_predict_interval(boot, U, config.confidence)
        answers = (
            (dapien_iv.lower, dapien_predict_point(model, U), dapien_iv.upper),
            (boot_iv.lower, bootstrap_predict_sigma(boot, U)[0], boot_iv.upper),
        )

        report = {}
        for method, (lower, _, upper) in zip(METHODS, answers):
            doc = evaluate(
                lower[test.index], upper[test.index], test.targets, config.confidence,
                cwc_mu=config.cwc_mu, cwc_eta=config.cwc_eta,
            ).to_dict()
            report[method] = {k: doc[k] for k in _REPORT_KEYS}

        ends = ("lower", "point", "upper")
        columns = {f"{m}_{e}": v for m, a in zip(METHODS, answers) for e, v in zip(ends, a)}
        echo = asdict(config)
        if config.dataset not in _DATASET_NOISE:
            # a CSV dataset is not drawn, so the generator's fields describe nothing
            for key in ("d", "replicates", "data_seed"):
                del echo[key]
        echo["resolved_family"] = family.value
        echo["dropped_groups"] = ["".join(map(str, x)) for x in dropped]
        texts = {
            "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
            "intervals.csv": "".join(csv_lines(test, **columns)),
            "config.json": json.dumps(echo, indent=2, sort_keys=True) + "\n",
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            path = out_dir / name
            written.append(path)
            path.write_text(text, newline="")
        return report
    except Exception:
        for path in written:
            if path.is_file():
                path.unlink()
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
            report, outcome = run_experiment(config), "ok"
        except Exception as exc:
            log.error("experiment %d (%s) failed: %s", i, label, exc)
            status = EXIT_RUNTIME
            failed = {"picp": math.nan, "mpiw": math.nan}
            report, outcome = dict.fromkeys(METHODS, failed), "FAILED"
        rows += [
            {"dataset": label, "method": method, "picp": report[method]["picp"],
             "mpiw": report[method]["mpiw"], "status": outcome}
            for method in METHODS
        ]

    summary = [_SUMMARY_FIELDS] + [[str(r[k]) for k in _SUMMARY_FIELDS] for r in rows]
    (out_dir / "summary.csv").write_text(
        "".join(",".join(cells) + "\r\n" for cells in summary), newline=""
    )
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
    config = ExperimentConfig(
        dataset=args.dataset, d=args.d, replicates=args.replicates, data_seed=args.seed
    )
    records = generate(config.generator_spec())
    try:
        write_csv(records, args.out)
    except OSError as exc:
        log.error("cannot write %s: %s", args.out, exc)
        return EXIT_RUNTIME
    print(f"wrote {len(records)} samples to {args.out}")
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
    if not configs:
        log.error("configs directory %s holds no *.json config", configs_dir)
        return EXIT_CONFIG
    try:
        rows, status = run_suite(configs, args.out)
    except OSError as exc:
        log.error("cannot write the suite to %s: %s", args.out, exc)
        return EXIT_RUNTIME
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
    p_gen.add_argument("--seed", type=int, default=ExperimentConfig.data_seed)
    p_gen.add_argument("--d", type=int, default=ExperimentConfig.d)
    p_gen.add_argument("--replicates", type=int, default=ExperimentConfig.replicates)
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
