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
that order.  ``group_split``, ``write_csv`` and ``read_csv`` check their
records through ``grouping.index_by_unique_input``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import RaggedFeatures, TooFewGroups
from .grouping import Sample, index_by_unique_input


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


def generate(spec: GeneratorSpec) -> list[Sample]:
    """Emit ``2**d * replicates`` samples, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    reps = spec.replicates
    bits = (np.arange(2 ** spec.d)[:, None] >> np.arange(spec.d)) & 1
    f = np.repeat(bits.sum(axis=1).astype(np.float64), reps)
    # one call per dataset draws what one call per input vector drew, in order
    if spec.noise is NoiseKind.CONDITIONAL_WHITE:
        ys = f.copy()
        odd = f % 2 == 1
        ys[odd] += rng.normal(0.0, 0.2, size=int(odd.sum()))
    elif spec.noise is NoiseKind.SCALED_WHITE:
        ys = f + f * rng.normal(0.0, 0.1, size=f.size)
    else:
        ys = f + f * rng.gamma(shape=1.0, scale=1.0, size=f.size)
    inputs = list(map(tuple, bits.tolist()))
    return [Sample(inputs[i // reps], y) for i, y in enumerate(ys.tolist())]


def group_split(samples, spec: SplitSpec) -> tuple[list[Sample], list[Sample]]:
    """Partition samples so train and test share no input vector.

    ``ceil(test_fraction * p)`` of the p distinct inputs, chosen by a
    seeded shuffle, go to the test side together with all their
    replicates.

    Raises
    ------
    TooFewGroups
        If fewer than 2 distinct input vectors are present.
    """
    samples = list(samples)
    inputs, index, _ = index_by_unique_input(samples) if samples else ((), None, None)
    p = len(inputs)
    if p < 2:
        raise TooFewGroups(f"need at least 2 distinct inputs, got {p}")
    order = np.random.default_rng(spec.seed).permutation(p)
    # both sides keep at least one group
    n_test = min(math.ceil(spec.test_fraction * p), p - 1)
    is_test = np.zeros(p, dtype=bool)
    is_test[order[:n_test]] = True
    on_test = is_test[index]
    train = list(compress(samples, (~on_test).tolist()))
    return train, list(compress(samples, on_test.tolist()))


def write_csv(samples, path) -> None:
    """Check samples, then write them as ``x_0..x_{d-1}, y`` with full float precision."""
    inputs, index, targets = index_by_unique_input(samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(len(inputs[0]))] + ["y"])
        writer.writerows(
            (*inputs[i], repr(y)) for i, y in zip(index.tolist(), targets.tolist())
        )


def read_csv(path) -> list[Sample]:
    """Read and check a dataset written by :func:`write_csv`.

    Raises
    ------
    RaggedFeatures
        If any row's length disagrees with the header.
    EmptyDataset
        If the file holds no records.
    ValueError
        On a missing/invalid header, an unparsable cell, a non-binary bit
        or a non-finite target.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        if len(header) < 2 or header[-1] != "y":
            raise ValueError(f"{path}: expected header x_0..x_{{d-1}},y")
        d = len(header) - 1
        samples = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise RaggedFeatures(
                    f"{path}: row {i} has {len(row)} cells, expected {d + 1}"
                )
            samples.append(Sample(tuple(map(int, row[:d])), float(row[d])))
    index_by_unique_input(samples)
    return samples
