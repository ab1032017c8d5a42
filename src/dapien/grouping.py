"""Grouping of raw records by unique binary input vector.

Records with identical bit vectors are collected into one group each; the
per-group target vectors are then summarised into distribution parameters,
producing the derived training set that the parameter regressors consume.
Group identity is exact bit equality and group order is first appearance,
so downstream training is deterministic.  A ``Sample`` is not checked
when it is built: every function that takes a record list checks it
through ``index_by_unique_input`` (bits 0 or 1, finite targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DistFamily, fit_gamma, fit_gaussian
from .errors import DapienError, EmptyDataset, RaggedFeatures


class Sample(NamedTuple):
    """One record: a binary feature vector and a real-valued target."""

    x: tuple[int, ...]
    y: float


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


def index_by_unique_input(samples):
    """Check records; return distinct inputs, each record's index into them, targets.

    Inputs are numbered in order of first appearance and returned as tuples
    of ints; the index and the float64 targets follow the record order.
    Each distinct input is checked once, the targets together.

    Raises
    ------
    EmptyDataset
        If no samples are given.
    RaggedFeatures
        If feature vectors differ in length.
    ValueError
        If a bit is not 0 or 1, or a target is not finite.
    """
    samples = list(samples)
    if not samples:
        raise EmptyDataset("no samples to group")
    numbers: dict[tuple, int] = {}
    index = np.array([numbers.setdefault(s.x, len(numbers)) for s in samples], dtype=np.intp)
    d = len(samples[0].x)
    for x in numbers:
        if len(x) != d:
            raise RaggedFeatures(f"feature length {len(x)} differs from first sample's {d}")
        if any(b not in (0, 1) for b in x):
            raise ValueError(f"feature vector must be binary, got {x}")
    targets = np.array([s.y for s in samples], dtype=np.float64)
    if not np.isfinite(targets).all():
        raise ValueError(f"target must be finite, got {targets[~np.isfinite(targets)][0]}")
    return tuple(tuple(map(int, x)) for x in numbers), index, targets


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
    inputs, index, targets = index_by_unique_input(samples)
    by_group = targets[np.argsort(index, kind="stable")]
    ends = np.cumsum(np.bincount(index))
    groups = tuple(zip(inputs, np.split(by_group, ends[:-1])))
    return GroupedDataset(groups=groups, d=len(inputs[0]))


def build_dist_dataset(grouped: GroupedDataset, family: DistFamily) -> DistDataset:
    """Fit the chosen family to every group's targets.

    Fit errors are re-raised with the offending input vector attached.
    """
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


def mean_group_size(grouped: GroupedDataset) -> float:
    """Arithmetic mean of group sizes; the degrees of freedom for t intervals."""
    sizes = grouped.sizes()
    return float(sum(sizes)) / len(sizes)
