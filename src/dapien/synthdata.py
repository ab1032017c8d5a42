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
``write_csv`` and the runner's ``intervals.csv``; it formats each input's
cells once, and turns the index and targets into Python lists a bounded
chunk at a time, which ``write_csv`` joins and writes one chunk per call.
``read_csv`` builds the ``Records`` straight from the file's lines, with
no per-record object: it splits each line at its last comma, numbers the
raw text before it, and parses and checks each distinct spelling of an
input once, splitting one without a quote at its commas.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, InvalidRecord, LengthMismatch, RaggedFeatures, TooFewGroups
from .grouping import Records, as_records
from .regressor import _check_count, _check_integer


_WRITE_CHUNK = 4096  # records per list and lines per write: about 160 kB of a d=13 file


class NoiseKind(Enum):
    CONDITIONAL_WHITE = "conditional_white"
    SCALED_WHITE = "scaled_white"
    SCALED_GAMMA = "scaled_gamma"


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and noise choice for one synthetic dataset.

    ``noise`` must be a ``NoiseKind`` member, else ``ValueError``.  ``d``,
    ``replicates`` and ``seed`` must be integers (a numpy integer is one, a
    bool is not), else ``TypeError``; ``d`` must lie in [1, 24],
    ``replicates`` be at least 1 and ``seed`` at least 0, else ``ValueError``.
    """

    noise: NoiseKind
    d: int = 10
    replicates: int = 20
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.noise, NoiseKind):
            raise ValueError(f"noise must be a NoiseKind member, got {self.noise!r}")
        _check_integer("d", self.d)
        if not (1 <= self.d <= 24):
            raise ValueError("d must lie in [1, 24] (full enumeration bound)")
        _check_count("replicates", self.replicates)
        _check_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class SplitSpec:
    """Fraction of unique inputs routed to the test side, plus seed.

    ``seed`` is checked as ``GeneratorSpec.seed`` is.
    """

    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must lie in (0, 1)")
        _check_count("seed", self.seed, least=0)


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

    The header is ``x_0..x_{d-1},y`` and the names of ``columns``; each
    column holds one float per distinct input.  Each input's cells are
    formatted once, every float as a Python float's ``repr``.  Write the
    lines with ``newline=""``.

    Raises
    ------
    InvalidRecord
        If a column name holds a comma, quote or line break.
    LengthMismatch
        If a column does not hold one value per distinct input.
    """
    records = as_records(samples)
    p, d = len(records.inputs), len(records.inputs[0])
    table = []
    for name, values in columns.items():
        if any(c in name for c in ',"\r\n'):
            raise InvalidRecord(f"column name {name!r} holds a comma, quote or line break")
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (p,):
            raise LengthMismatch(
                f"column {name!r} needs one value per distinct input ({p}), "
                f"got shape {values.shape}"
            )
        table.append(values.tolist())
    header = ",".join([f"x_{j}" for j in range(d)] + ["y", *columns])
    heads = ["%d," * d % x for x in records.inputs]
    tails = ["".join("," + repr(v) for v in row) + "\r\n" for row in zip(*table)] or ["\r\n"] * p
    return chain([header + "\r\n"], _record_lines(heads, tails, records.index, records.targets))


def _record_lines(heads, tails, index, targets):
    """Record i's line, ``heads[index[i]] + repr(targets[i]) + tails[index[i]]``, for each i.

    The arrays become Python lists ``_WRITE_CHUNK`` records at a time,
    which bounds the memory those lists take.
    """
    for start in range(0, index.size, _WRITE_CHUNK):
        part = slice(start, start + _WRITE_CHUNK)
        for i, y in zip(index[part].tolist(), targets[part].tolist()):
            yield heads[i] + repr(y) + tails[i]


def write_csv(samples, path) -> None:
    """Check samples, then write them as ``x_0..x_{d-1}, y`` with full float precision.

    The lines are joined and written ``_WRITE_CHUNK`` at a time, which
    bounds the memory that joined lines take.
    """
    lines = csv_lines(samples)  # checks the samples before the file is opened
    with open(path, "w", newline="") as fh:
        while chunk := "".join(islice(lines, _WRITE_CHUNK)):
            fh.write(chunk)


def read_csv(path) -> Records:
    """Read and check a dataset written by :func:`write_csv`.

    After the header each line is split at its last comma.  The text
    before it is looked up among the spellings seen so far, and only a new
    spelling is parsed as CSV cells and checked, so ``0,01``, ``0, 1`` and
    ``"0","1"`` are one input parsed three times, and a file of repeated
    inputs parses each once.  A spelling without a quote is split at its
    commas, which is what ``csv.reader`` makes of it.  The text after it is the target, read by
    ``float``; a quoted target is unquoted first.  Lines empty apart from
    their line end are skipped; ``\r\n``, ``\n`` and ``\r`` all end a
    line.  Quoting must be strict CSV, and no quoted cell may hold a comma
    or a line break, both of which ``csv.reader`` would accept; a file
    that ``write_csv`` writes has neither.  A header cell holding a line
    break is refused, so the header is one line and a row is named by its
    file line.

    Raises
    ------
    RaggedFeatures
        If any row's length disagrees with the header.
    EmptyDataset
        If the file holds no records.
    InvalidRecord
        On a missing or invalid header (one whose cell holds a line break
        included), an unparsable cell or malformed
        quoting, a non-binary bit or a non-finite target, naming the file
        and row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InvalidRecord(f"{path}: empty file, expected a header row") from None
        if len(header) < 2 or header[-1] != "y" or any("\r" in c or "\n" in c for c in header):
            raise InvalidRecord(f"{path}: expected header x_0..x_{{d-1}},y on one line")
        d = len(header) - 1
        spellings = {}  # raw text before the last comma to its input's number
        numbers = {}  # parsed input to its number, in order of first appearance
        index, ys = [], []
        number_of, add_number, add_target = spellings.get, index.append, ys.append
        for line in fh:
            head, comma, tail = line.rpartition(",")
            number = number_of(head)
            try:
                if number is None:  # a new spelling, or no comma ("" is never a spelling)
                    if not (comma or line.strip("\r\n")):
                        continue
                    cells = (_cells(head) if '"' in head else head.split(",")) if comma else []
                    if len(cells) != d:
                        raise RaggedFeatures(
                            f"{path}: row {_row(path, len(ys))} has {len(cells) + 1} cells, "
                            f"expected {d + 1}"
                        )
                    x = tuple(map(int, cells))
                    if x.count(0) + x.count(1) != d:
                        raise ValueError(f"feature vector must be binary, got {x}")
                    number = spellings[head] = numbers.setdefault(x, len(numbers))
                try:
                    y = float(tail)  # float reads a line end as whitespace
                except ValueError:
                    y = float(_cells(tail.rstrip("\r\n"))[0])
            except (ValueError, csv.Error) as exc:
                raise InvalidRecord(f"{path}: row {_row(path, len(ys))}: {exc}") from None
            add_number(number)
            add_target(y)
    if not ys:
        raise EmptyDataset(f"{path}: no records")
    targets = np.array(ys, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(targets))
    if bad.size:
        raise InvalidRecord(
            f"{path}: row {_row(path, bad[0])}: target must be finite, got {targets[bad[0]]}"
        )
    return Records._of(tuple(numbers), np.array(index, dtype=np.intp), targets)


def _row(path, record):
    """The file line of record number ``record``, counted as ``read_csv`` counts lines.

    ``read_csv`` keeps no line numbers; only an error, which names its row,
    reads the file again up to that record.
    """
    with open(path, newline="") as fh:
        next(csv.reader(fh))
        return next(islice((i for i, s in enumerate(fh, 2) if s.strip("\r\n")), record, None))


def _cells(text):
    """The cells of one line's worth of CSV text; empty text is one empty cell."""
    return next(csv.reader([text], strict=True)) or [""]
