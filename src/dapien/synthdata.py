"""Seeded benchmark generators and the group-respecting train/test split.

All three benchmarks share the signal ``f(x) = sum of bits`` over every
binary vector of length ``d`` and differ only in the additive noise:

* ``CONDITIONAL_WHITE``: zero noise when f(x) is even, otherwise Gaussian
  with standard deviation 0.2 per replicate.
* ``SCALED_WHITE``: Gaussian with standard deviation 0.1, scaled by f(x).
* ``SCALED_GAMMA``: a unit-rate, unit-shape gamma draw scaled by f(x).

Reproducibility contract: all draws come from NumPy's PCG64 generator as
constructed by ``numpy.random.default_rng(seed)`` with a 64-bit seed.  At
seed 42 the first five uniform draws of that generator are
0.77395605, 0.43887844, 0.85859792, 0.69736803, 0.09417735; a regression
test pins this sequence.  Input vectors are enumerated in ascending
integer order with bit j of the counter stored at feature j, and the
replicates of one vector are drawn consecutively, so a (seed, spec) pair
identifies the dataset bit for bit; one draw call per dataset keeps
that order.  ``generate``, ``read_csv`` and ``group_split`` return a
checked ``grouping.Records``.
``csv_lines`` formats records as ``x_0..x_{d-1},y`` lines for both
``write_csv`` and the runner's ``intervals.csv``.  ``read_csv`` builds the
``Records`` straight from the file's lines, with no per-record object: it
splits each line at its last comma, numbers the raw text before it, and
parses and checks each distinct spelling of an input once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, InvalidRecord, RaggedFeatures, TooFewGroups
from .grouping import Records, as_records


class NoiseKind(Enum):
    CONDITIONAL_WHITE = "conditional_white"
    SCALED_WHITE = "scaled_white"
    SCALED_GAMMA = "scaled_gamma"


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and noise choice for one synthetic dataset."""

    noise: NoiseKind
    d: int = 10
    replicates: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.d <= 24):
            raise ValueError("d must lie in [1, 24] (full enumeration bound)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass(frozen=True)
class SplitSpec:
    """Fraction of unique inputs routed to the test side, plus seed."""

    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must lie in (0, 1)")


def generate(spec: GeneratorSpec) -> Records:
    """Emit ``2**d * replicates`` records, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    bits = (np.arange(2 ** spec.d)[:, None] >> np.arange(spec.d)) & 1
    index = np.repeat(np.arange(2 ** spec.d), spec.replicates)
    f = bits.sum(axis=1).astype(np.float64)[index]
    # one call per dataset draws what one call per input vector drew, in order
    if spec.noise is NoiseKind.CONDITIONAL_WHITE:
        ys = f.copy()
        odd = f % 2 == 1
        ys[odd] += rng.normal(0.0, 0.2, size=int(odd.sum()))
    elif spec.noise is NoiseKind.SCALED_WHITE:
        ys = f + f * rng.normal(0.0, 0.1, size=f.size)
    else:
        ys = f + f * rng.gamma(shape=1.0, scale=1.0, size=f.size)
    return Records._of(tuple(map(tuple, bits.tolist())), index, ys)


def group_split(samples, spec: SplitSpec) -> tuple[Records, Records]:
    """Partition samples so train and test share no input vector.

    ``ceil(test_fraction * p)`` of the p distinct inputs, chosen by a
    seeded shuffle, go to the test side together with all their
    replicates.

    ``samples`` may be any iterable of records, checked as ``as_records``
    checks them.

    Raises
    ------
    TooFewGroups
        If fewer than 2 distinct input vectors are present.
    """
    try:
        records = as_records(samples)
    except EmptyDataset:
        records = None
    p = 0 if records is None else len(records.inputs)
    if p < 2:
        raise TooFewGroups(f"need at least 2 distinct inputs, got {p}")
    order = np.random.default_rng(spec.seed).permutation(p)
    # both sides keep at least one group
    n_test = min(math.ceil(spec.test_fraction * p), p - 1)
    is_test = np.zeros(p, dtype=bool)
    is_test[order[:n_test]] = True
    return records.subset(~is_test), records.subset(is_test)


def csv_lines(samples, **columns):
    """Check samples and give their CSV lines, as ``csv.writer`` writes them.

    The header is ``x_0..x_{d-1},y`` and the names of ``columns``, which must
    hold no comma, quote or line break; each column holds one float per
    distinct input.  Each input's cells are formatted once, every float as a
    Python float's ``repr``.  Write the lines with ``newline=""``.
    """
    records = as_records(samples)
    header = ",".join([f"x_{j}" for j in range(len(records.inputs[0]))] + ["y", *columns])
    heads = [",".join(map(str, x)) + "," for x in records.inputs]
    table = np.asarray(list(columns.values()), dtype=np.float64).reshape(len(columns), len(heads))
    tails = ["".join("," + repr(v) for v in row) + "\r\n" for row in table.T.tolist()]
    index, targets = records.index.tolist(), records.targets.tolist()
    return chain([header + "\r\n"], (heads[i] + repr(y) + tails[i] for i, y in zip(index, targets)))


def write_csv(samples, path) -> None:
    """Check samples, then write them as ``x_0..x_{d-1}, y`` with full float precision."""
    lines = csv_lines(samples)  # checks the samples before the file is opened
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def read_csv(path) -> Records:
    """Read and check a dataset written by :func:`write_csv`.

    After the header each line is split at its last comma.  The text
    before it is looked up among the spellings seen so far, and only a new
    spelling is parsed as CSV cells and checked, so ``0,01``, ``0, 1`` and
    ``"0","1"`` are one input parsed three times, and a file of repeated
    inputs parses each once.  The text after it is the target, read by
    ``float``; a quoted target is unquoted first.  Lines empty apart from
    their line end are skipped; ``\r\n``, ``\n`` and ``\r`` all end a
    line.  Quoting must be strict CSV, and no quoted cell may hold a comma
    or a line break, both of which ``csv.reader`` would accept; a file
    that ``write_csv`` writes has neither.

    Raises
    ------
    RaggedFeatures
        If any row's length disagrees with the header.
    EmptyDataset
        If the file holds no records.
    InvalidRecord
        On a missing or invalid header, an unparsable cell or malformed
        quoting, a non-binary bit or a non-finite target, naming the file
        and row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InvalidRecord(f"{path}: empty file, expected a header row") from None
        if len(header) < 2 or header[-1] != "y":
            raise InvalidRecord(f"{path}: expected header x_0..x_{{d-1}},y")
        d = len(header) - 1
        spellings = {}  # raw text before the last comma to its input's number
        numbers = {}  # parsed input to its number, in order of first appearance
        index, ys = [], []
        for i, line in enumerate(fh, start=2):
            head, comma, tail = line.rpartition(",")
            number = spellings.get(head)
            try:
                if number is None:  # a new spelling, or no comma ("" is never a spelling)
                    if not (comma or line.strip("\r\n")):
                        continue
                    cells = _cells(head) if comma else []
                    if len(cells) != d:
                        raise RaggedFeatures(
                            f"{path}: row {i} has {len(cells) + 1} cells, expected {d + 1}"
                        )
                    x = tuple(map(int, cells))
                    if any(b not in (0, 1) for b in x):
                        raise ValueError(f"feature vector must be binary, got {x}")
                    number = spellings[head] = numbers.setdefault(x, len(numbers))
                try:
                    y = float(tail)  # float reads a line end as whitespace
                except ValueError:
                    y = float(_cells(tail.rstrip("\r\n"))[0])
            except (ValueError, csv.Error) as exc:
                raise InvalidRecord(f"{path}: row {i}: {exc}") from None
            index.append(number)
            ys.append(y)
    if not ys:
        raise EmptyDataset(f"{path}: no records")
    targets = np.array(ys, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(targets))
    if bad.size:  # the first bad record's row, counted as the loop above counts rows
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            row = next(islice((i for i, s in enumerate(fh, 2) if s.strip("\r\n")), bad[0], None))
        raise InvalidRecord(f"{path}: row {row}: target must be finite, got {targets[bad[0]]}")
    return Records._of(tuple(numbers), np.array(index, dtype=np.intp), targets)


def _cells(text):
    """The cells of one line's worth of CSV text; empty text is one empty cell."""
    return next(csv.reader([text], strict=True)) or [""]
