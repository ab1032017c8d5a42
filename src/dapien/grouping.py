"""Grouping of raw records by unique binary input vector.

Records with identical bit vectors are collected into one group each; the
per-group target vectors are then summarised into distribution parameters,
producing the derived training set that the parameter regressors consume.
Gaussian groups of one size are summarised in one call on their stacked
targets.
Group identity is exact bit equality and group order is first appearance,
so downstream training is deterministic.  A ``Sample`` is not checked
when it is built: ``as_records`` checks a record list once (bits 0 or 1,
finite targets) into a ``Records`` table that carries its input index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .distributions import DistFamily, GaussianParams, fit_gamma, fit_gaussian
from .errors import DapienError, EmptyDataset, InvalidRecord, LengthMismatch, RaggedFeatures


class Sample(NamedTuple):
    """One record: a binary feature vector and a real-valued target."""

    x: tuple[int, ...]
    y: float


class Records(Sequence):
    """Checked records, held as the distinct inputs, an index into them and the targets.

    ``inputs`` holds the distinct input vectors as tuples of ints in order
    of first appearance, ``index[i]`` numbers record i's input and
    ``targets[i]`` is its float64 target; both arrays are read-only.  As a
    ``Sequence[Sample]`` it has a length, and ``[i]`` and iteration give
    ``Sample``s; ``==`` compares record by record with any sequence.  It is
    not a list: there is no ``append`` and no ``+``.  Only ``as_records``,
    ``synthdata.generate``, ``synthdata.read_csv`` and ``subset`` build one.
    """

    __slots__ = ("inputs", "index", "targets")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Records are built by as_records, generate, read_csv and group_split")

    @classmethod
    def _of(cls, inputs, index, targets) -> "Records":
        """Wrap checked fields; the arrays become read-only."""
        records = object.__new__(cls)
        index.flags.writeable = targets.flags.writeable = False
        for name, value in zip(cls.__slots__, (inputs, index, targets)):
            object.__setattr__(records, name, value)
        return records

    def __setattr__(self, name, value):
        raise AttributeError("Records are immutable")

    def __len__(self):
        return self.index.size

    def __getitem__(self, i):
        return Sample(self.inputs[self.index[i]], float(self.targets[i]))

    def __iter__(self):
        xs = map(self.inputs.__getitem__, self.index.tolist())
        return map(Sample, xs, self.targets.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def subset(self, keep) -> "Records":
        """The records of the inputs that the boolean mask ``keep`` (one per input) marks.

        Raises ``LengthMismatch`` unless ``keep`` has one entry per input,
        and ``TypeError`` if its entries are not booleans.
        """
        keep = np.asarray(keep)
        if keep.shape != (len(self.inputs),):
            raise LengthMismatch(
                f"subset needs one flag per input ({len(self.inputs)}), got shape {keep.shape}"
            )
        if keep.size and keep.dtype != bool:  # an empty list reads as float64
            raise TypeError(f"subset needs a boolean mask, got {keep.dtype} entries")
        keep = keep.astype(bool)
        on = keep[self.index]
        # whole inputs are kept, so their old order is still first appearance
        renumber = np.cumsum(keep) - 1
        return Records._of(
            tuple(compress(self.inputs, keep.tolist())),
            renumber[self.index[on]],
            self.targets[on],
        )


@dataclass(frozen=True)
class GroupedDataset:
    """Distinct input vectors paired with all targets observed for each."""

    groups: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    d: int

    def __len__(self):
        return len(self.groups)

    def sizes(self):
        return [ys.size for _, ys in self.groups]


@dataclass(frozen=True)
class DistDataset:
    """Per-unique-input distribution parameters, one row per group."""

    rows: tuple
    family: DistFamily


def as_records(samples) -> Records:
    """Check records and number their distinct inputs; a ``Records`` is returned as is.

    Inputs are numbered in order of first appearance and kept as tuples of
    ints, the targets as float64.  Each distinct input is checked once, the
    targets together; apart from ``synthdata.read_csv``, which numbers the
    lines of a file itself, this is the only code that hashes records.

    Raises
    ------
    EmptyDataset
        If no samples are given.
    RaggedFeatures
        If feature vectors differ in length.
    InvalidRecord
        If a feature vector is empty, a bit is not 0 or 1, or a target is
        not finite.
    """
    if isinstance(samples, Records) and len(samples):
        return samples
    samples = list(samples)
    if not samples:
        raise EmptyDataset("no samples to group")
    numbers: dict[tuple, int] = {}
    index = np.array([numbers.setdefault(s.x, len(numbers)) for s in samples], dtype=np.intp)
    d = len(samples[0].x)
    if d == 0:
        raise InvalidRecord("feature vector must not be empty")
    for x in numbers:
        if len(x) != d:
            raise RaggedFeatures(f"feature length {len(x)} differs from first sample's {d}")
        if any(b not in (0, 1) for b in x):
            raise InvalidRecord(f"feature vector must be binary, got {x}")
    targets = np.array([s.y for s in samples], dtype=np.float64)
    if not np.isfinite(targets).all():
        raise InvalidRecord(f"target must be finite, got {targets[~np.isfinite(targets)][0]}")
    return Records._of(tuple(tuple(map(int, x)) for x in numbers), index, targets)


def group_by_unique_input(samples) -> GroupedDataset:
    """Partition samples into one group per distinct input vector.

    Group contents keep the original sample order; group order is first
    appearance.

    Raises
    ------
    EmptyDataset
        If no samples are given.
    RaggedFeatures
        If feature vectors differ in length.
    """
    records = as_records(samples)
    by_group = records.targets[np.argsort(records.index, kind="stable")]
    ends = np.cumsum(np.bincount(records.index))
    groups = tuple(zip(records.inputs, np.split(by_group, ends[:-1])))
    return GroupedDataset(groups=groups, d=len(records.inputs[0]))


def build_dist_dataset(grouped: GroupedDataset, family: DistFamily) -> DistDataset:
    """Fit the chosen family to every group's targets.

    Gaussian groups of one size are fitted in one ``fit_gaussian`` call on
    their stacked targets, which gives each group the bits its own call
    gives.  Fit errors are re-raised with the offending input vector
    attached, naming the first such group in group order.
    """
    if family is DistFamily.GAUSSIAN:
        rows = _gaussian_rows(grouped)
        if rows is not None:
            return DistDataset(rows=rows, family=family)
    rows = []
    for x, ys in grouped.groups:
        try:
            if family is DistFamily.GAUSSIAN:
                params = fit_gaussian(ys)
            else:
                params = fit_gamma(ys)
        except DapienError as exc:
            raise type(exc)(f"group {''.join(map(str, x))}: {exc}") from exc
        rows.append((x, params))
    return DistDataset(rows=tuple(rows), family=family)


def _gaussian_rows(grouped: GroupedDataset):
    """Each group's ``(x, GaussianParams)`` row from one fit per group size, or None if a fit fails."""
    by_size = {}  # group size to the positions of the groups of that size
    for k, (_, ys) in enumerate(grouped.groups):
        by_size.setdefault(ys.size, []).append(k)
    means, variances = np.empty(len(grouped)), np.empty(len(grouped))
    for members in by_size.values():
        try:
            params = fit_gaussian(np.stack([grouped.groups[k][1] for k in members]))
        except DapienError:
            return None  # the caller's per-group pass names the first failing group
        means[members], variances[members] = params.mean, params.variance
    return tuple(
        (x, GaussianParams(mean=m, variance=v))
        for (x, _), m, v in zip(grouped.groups, means.tolist(), variances.tolist())
    )


def mean_group_size(grouped: GroupedDataset) -> float:
    """Arithmetic mean of group sizes; the degrees of freedom for t intervals."""
    sizes = grouped.sizes()
    return float(sum(sizes)) / len(sizes)
