"""Grouping of raw records by unique binary input vector.

Records with identical bit vectors are collected into one group each; the
per-group target vectors are then summarised into distribution parameters,
producing the derived training set that the parameter regressors consume.
The groups of one size are summarised in one call on their stacked
targets, for either family.
Group identity is exact bit equality and group order is first appearance,
so downstream training is deterministic.  A ``Sample`` is not checked
when it is built: ``as_records`` checks a record list once (bits 0 or 1,
finite targets) into a ``Records`` table that carries its input index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import compress
from typing import NamedTuple

import numpy as np

from .distributions import DistFamily, fit_gamma, fit_gaussian
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

    def by_size(self):
        """Per group size, in first-appearance order: its groups' positions and stacked targets."""
        positions = {}
        for k, (_, ys) in enumerate(self.groups):
            positions.setdefault(ys.size, []).append(k)
        for size, members in positions.items():
            # one concatenate is several times cheaper than np.stack's per-group calls
            stacked = np.concatenate([self.groups[k][1] for k in members])
            yield members, stacked.reshape(len(members), size)


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
    bounds = [0, *np.cumsum(np.bincount(records.index)).tolist()]
    # slicing views directly is several times faster than np.split's per-piece calls
    groups = tuple(zip(records.inputs, [by_group[a:b] for a, b in zip(bounds, bounds[1:])]))
    return GroupedDataset(groups=groups, d=len(records.inputs[0]))


def build_dist_dataset(grouped: GroupedDataset, family: DistFamily) -> DistDataset:
    """Fit the chosen family to every group's targets.

    The groups of one size are fitted in one ``fit_gaussian`` or
    ``fit_gamma`` call on their stacked targets, which gives each group the
    bits its own call gives.  If a fit fails, each group is fitted on its
    own, and the error is re-raised with the offending input vector
    attached, naming the first such group in group order.  A family that is
    not a ``DistFamily`` member raises ``ValueError``.
    """
    if not isinstance(family, DistFamily):
        raise ValueError(f"family must be a DistFamily member, got {family!r}")
    # looked up when called, so a wrapper set on this module sees the calls
    fit = fit_gaussian if family is DistFamily.GAUSSIAN else fit_gamma
    rows = _rows_by_size(grouped, fit)
    if rows is None:
        rows = []
        for x, ys in grouped.groups:
            try:
                rows.append((x, fit(ys)))
            except DapienError as exc:
                raise type(exc)(f"group {''.join(map(str, x))}: {exc}") from exc
    return DistDataset(rows=tuple(rows), family=family)


def _rows_by_size(grouped: GroupedDataset, fit):
    """Each group's ``(x, params)`` row from one ``fit`` per group size, or None if one fails."""
    columns = kind = None  # one row per parameter field, one column per group
    for members, stacked in grouped.by_size():
        try:
            params = fit(stacked)
        except DapienError:
            return None  # the caller's per-group pass names the first failing group
        values = [getattr(params, f.name) for f in fields(params)]
        if columns is None:
            columns, kind = np.empty((len(values), len(grouped))), type(params)
        columns[:, members] = values
    if columns is None:
        return ()
    return tuple((x, kind(*v)) for (x, _), v in zip(grouped.groups, columns.T.tolist()))


def mean_group_size(grouped: GroupedDataset) -> float:
    """Arithmetic mean of group sizes; the degrees of freedom for t intervals."""
    sizes = grouped.sizes()
    return float(sum(sizes)) / len(sizes)
