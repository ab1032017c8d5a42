"""Grouping of records by unique input and the derived parameter dataset."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from dapien import distributions, grouping
from dapien.bootstrap import bootstrap_fit
from dapien.distributions import DistFamily, GaussianParams, fit_gamma, fit_gaussian
from dapien.errors import (
    DapienError,
    DegenerateGroup,
    EmptyDataset,
    InvalidRecord,
    InvalidTarget,
    NonConvergence,
    RaggedFeatures,
)
from dapien.grouping import (
    GroupedDataset,
    Sample,
    as_records,
    build_dist_dataset,
    group_by_unique_input,
    mean_group_size,
)
from dapien.pipeline import dapien_fit
from dapien.regressor import TrainConfig
from dapien.synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    group_split,
    read_csv,
    write_csv,
)


def test_direct_grouping():
    samples = [
        Sample((0, 1), 1.0),
        Sample((0, 1), 3.0),
        Sample((1, 0), 2.0),
    ]
    grouped = group_by_unique_input(samples)
    assert len(grouped) == 2
    assert grouped.groups[0][0] == (0, 1)
    assert list(grouped.groups[0][1]) == [1.0, 3.0]
    assert list(grouped.groups[1][1]) == [2.0]


def test_singleton():
    grouped = group_by_unique_input([Sample((1, 1, 0), 5.0)])
    assert len(grouped) == 1
    assert grouped.sizes() == [1]


def test_empty_dataset():
    with pytest.raises(EmptyDataset):
        group_by_unique_input([])


def test_ragged_features():
    with pytest.raises(RaggedFeatures):
        group_by_unique_input([Sample((0, 1), 1.0), Sample((0, 1, 1), 2.0)])


def test_an_empty_feature_vector_is_an_invalid_record():
    # d = 0 has no CSV form: the header would be "y" alone
    with pytest.raises(InvalidRecord, match="feature vector must not be empty"):
        as_records([Sample((), 1.0)])


def test_dataset_a_group_count():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=3)
    samples = generate(spec)
    assert len(samples) == 20480
    grouped = group_by_unique_input(samples)
    assert len(grouped) == 1024
    assert set(grouped.sizes()) == {20}


def test_grouping_is_a_partition():
    rng = np.random.default_rng(0)
    samples = [
        Sample(tuple(rng.integers(0, 2, 3)), float(rng.normal()))
        for _ in range(200)
    ]
    grouped = group_by_unique_input(samples)
    assert sum(grouped.sizes()) == len(samples)
    rebuilt = sorted(
        (x, y) for x, ys in grouped.groups for y in ys
    )
    assert rebuilt == sorted((s.x, s.y) for s in samples)


def test_grouping_permutation_insensitive():
    rng = np.random.default_rng(1)
    samples = [
        Sample(tuple(rng.integers(0, 2, 4)), float(rng.normal()))
        for _ in range(300)
    ]
    grouped_a = group_by_unique_input(samples)
    shuffled = list(samples)
    rng.shuffle(shuffled)
    grouped_b = group_by_unique_input(shuffled)
    contents_a = {x: sorted(ys) for x, ys in grouped_a.groups}
    contents_b = {x: sorted(ys) for x, ys in grouped_b.groups}
    assert contents_a == contents_b


def test_build_dist_dataset_constant_group():
    grouped = group_by_unique_input(
        [Sample((0, 1), 2.0), Sample((0, 1), 2.0), Sample((0, 1), 2.0)]
    )
    dist = build_dist_dataset(grouped, DistFamily.GAUSSIAN)
    assert len(dist.rows) == 1
    params = dist.params
    assert params.mean[0] == 2.0 and params.variance[0] == 0.0


def test_build_dist_dataset_row_count_and_family():
    spec = GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=6, replicates=5, seed=8)
    grouped = group_by_unique_input(generate(spec))
    dist = build_dist_dataset(grouped, DistFamily.GAUSSIAN)
    assert len(dist.rows) == len(grouped)
    assert type(dist.params) is GaussianParams


@pytest.mark.parametrize("family", ["gaussian", "GAUSSIAN", "gamma", None])
def test_build_dist_dataset_rejects_a_family_that_is_not_a_member(family):
    grouped = group_by_unique_input([Sample((0, 1), y) for y in (1.0, 2.0, 4.0)])
    with pytest.raises(ValueError, match=f"DistFamily member, got {family!r}"):
        build_dist_dataset(grouped, family)


def test_gamma_family_small_group_error_names_input():
    samples = [Sample((1, 0), 1.0), Sample((1, 0), 2.0)]
    grouped = group_by_unique_input(samples)
    with pytest.raises(DegenerateGroup, match="10"):
        build_dist_dataset(grouped, DistFamily.GAMMA)


def test_gamma_non_convergence_names_input(monkeypatch):
    monkeypatch.setattr(distributions, "_shape_mle", lambda s: math.nan)
    grouped = group_by_unique_input(
        [Sample((0, 1), 1.0), Sample((0, 1), 2.0), Sample((0, 1), 4.0)]
    )
    with pytest.raises(NonConvergence, match="group 01: gamma fit produced invalid parameters"):
        build_dist_dataset(grouped, DistFamily.GAMMA)


@pytest.mark.filterwarnings("error")
def test_gaussian_variance_overflow_names_input():
    # both targets are finite, but their squared deviation overflows
    samples = [Sample((0, 1), 1e200), Sample((0, 1), -1e200), Sample((1, 0), 1.0)]
    with pytest.raises(InvalidTarget, match="group 01: Gaussian fit needs finite mean"):
        dapien_fit(samples, DistFamily.GAUSSIAN, TrainConfig(folds=1))


def interleaved_groups(sizes, seed):
    """A GroupedDataset whose group k has sizes[k] normal draws at a scale of its own."""
    rng = np.random.default_rng(seed)
    groups = tuple(
        ((k,), rng.normal(rng.normal(), 10.0 ** rng.uniform(-4, 4), size=n))
        for k, n in enumerate(sizes)
    )
    return GroupedDataset(groups=groups)


@pytest.mark.parametrize("family, fit, sizes", [
    (DistFamily.GAUSSIAN, fit_gaussian, [1, 2, 3, 20]), (DistFamily.GAMMA, fit_gamma, [3, 4, 5, 20]),
], ids=["GAUSSIAN", "GAMMA"])
def test_groups_of_mixed_sizes_get_their_own_fits_bit_for_bit(family, fit, sizes):
    grouped = interleaved_groups(sizes * 25 + sizes[::-1] * 25, seed=3)
    dist = build_dist_dataset(grouped, family)
    assert dist.rows.dtype == np.float64 and dist.rows.shape == (len(grouped), 1)
    for k, (x, ys) in enumerate(grouped.groups):
        assert tuple(dist.rows[k]) == x
        own = fit(ys)
        for f in fields(own):
            column = getattr(dist.params, f.name)
            assert column.dtype == np.float64 and column.shape == (len(grouped),)
            assert column[k].tobytes() == np.float64(getattr(own, f.name)).tobytes()


def test_gaussian_groups_are_fitted_once_per_size(monkeypatch):
    calls = []

    def counting_fit(ys):
        calls.append(np.shape(ys))
        return fit_gaussian(ys)

    monkeypatch.setattr(grouping, "fit_gaussian", counting_fit)
    build_dist_dataset(interleaved_groups([3, 20, 3, 1, 20, 3], seed=4), DistFamily.GAUSSIAN)
    assert sorted(calls) == [(1, 1), (2, 20), (3, 3)]


@pytest.mark.filterwarnings("error")
def test_the_first_gaussian_group_in_group_order_that_fails_is_named():
    # the size-3 class holds a later bad group and is fitted first; the
    # size-2 class holds the earlier one
    grouped = interleaved_groups([3, 3, 2, 2, 3], seed=5)
    groups = list(grouped.groups)
    groups[2] = ((2,), np.array([1e200, -1e200]))
    groups[4] = ((4,), np.array([1.0, math.inf, 2.0]))
    with pytest.raises(InvalidTarget, match="group 2: Gaussian fit needs finite mean"):
        build_dist_dataset(GroupedDataset(groups=tuple(groups)), DistFamily.GAUSSIAN)


@pytest.mark.filterwarnings("error")
def test_a_class_of_single_record_groups_has_variance_zero_without_a_warning():
    dist = build_dist_dataset(interleaved_groups([1, 1, 1], seed=6), DistFamily.GAUSSIAN)
    assert dist.params.variance.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("family", list(DistFamily), ids=lambda f: f.name)
def test_no_groups_are_an_empty_dataset(family):
    with pytest.raises(EmptyDataset, match="no groups"):
        build_dist_dataset(GroupedDataset(groups=()), family)


def test_gamma_groups_are_fitted_once_per_size_bit_for_bit(monkeypatch):
    calls = []

    def counting_fit(ys):
        calls.append(np.shape(ys))
        return fit_gamma(ys)

    grouped = interleaved_groups([3, 20, 3, 5, 20, 3], seed=7)
    monkeypatch.setattr(grouping, "fit_gamma", counting_fit)
    dist = build_dist_dataset(grouped, DistFamily.GAMMA)
    assert sorted(calls) == [(1, 5), (2, 20), (3, 3)]
    assert dist.rows.tolist() == [list(x) for x, _ in grouped.groups]
    for k, (_, ys) in enumerate(grouped.groups):
        own = fit_gamma(ys)
        assert dist.params.shape.dtype == np.float64
        params = (dist.params.shape[k], dist.params.rate[k], dist.params.location[k])
        assert params == (own.shape, own.rate, own.location)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [
    [1e308, 1.5e308, 1.7e308, 1.6e308], [math.inf, -math.inf, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0],
    [3e7, 3e7, 3e7 + 3.7e-9, 3e7], [1.0, 1.0 + 2**-52, 1.0 + 2**-52, 1.0 + 2**-52],
])
def test_the_first_gamma_group_in_group_order_that_fails_is_named(bad):
    # the size-3 class is fitted first and holds the later bad group, group 3
    grouped = interleaved_groups([3, 3, 4, 3], seed=8)
    groups = list(grouped.groups)
    groups[2] = ((2,), np.array(bad))
    groups[3] = ((3,), np.array(bad[:3]))
    reason = distributions.gamma_degeneracy(bad)
    assert reason is not None and distributions.gamma_degeneracy(bad[:3]) is not None
    with pytest.raises(DegenerateGroup, match=f"^group 2: {re.escape(reason)}$"):
        build_dist_dataset(GroupedDataset(groups=tuple(groups)), DistFamily.GAMMA)


def test_dataset_a_odd_group_variances_concentrate():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=5)
    grouped = group_by_unique_input(generate(spec))
    dist = build_dist_dataset(grouped, DistFamily.GAUSSIAN)
    odd_vars = dist.params.variance[dist.rows.sum(axis=1) % 2 == 1]
    assert len(odd_vars) == 512
    assert abs(float(np.median(odd_vars)) - 0.04) < 0.01


def test_mean_group_size():
    samples = [Sample((0,), 1.0), Sample((1,), 2.0), Sample((1,), 3.0), Sample((1,), 4.0)]
    grouped = group_by_unique_input(samples)
    assert mean_group_size(grouped) == 2.0


def test_mean_group_size_dataset_a_training_split():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=11)
    samples = generate(spec)
    train, _ = group_split(samples, SplitSpec(test_fraction=0.2, seed=12))
    grouped = group_by_unique_input(train)
    assert mean_group_size(grouped) == 20.0


VALID_RECORDS = [Sample((0, 1), 1.5), Sample((1, 1), 2.0), Sample((0, 1), -0.25)]


def _read_back(records, tmp_path):
    """The records as CSV text, then through ``read_csv``."""
    path = tmp_path / "records.csv"
    lines = ["x_0,x_1,y"] + [",".join(map(str, s.x)) + f",{s.y!r}" for s in records]
    path.write_text("\n".join(lines) + "\n")
    return read_csv(path)


CONSUMERS = {
    "read_csv": _read_back,
    "write_csv": lambda records, tmp_path: write_csv(records, tmp_path / "out.csv"),
    "group_split": lambda records, _: group_split(records, SplitSpec(test_fraction=0.5)),
    "group_by_unique_input": lambda records, _: group_by_unique_input(records),
    "bootstrap_fit": lambda records, _: bootstrap_fit(records, 2, TrainConfig(seed=0)),
    "dapien_fit": lambda records, _: dapien_fit(
        records, DistFamily.GAUSSIAN, TrainConfig(seed=0)
    ),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize(
    "bad",
    [
        Sample((0, 2), 1.0),
        Sample((0, -1), 1.0),
        Sample((0, 0.5), 1.0),
        Sample((1, 0), math.nan),
        Sample((1, 0), math.inf),
    ],
    ids=["bit 2", "bit -1", "bit 0.5", "target nan", "target inf"],
)
def test_every_consumer_rejects_an_invalid_record(tmp_path, consumer, bad):
    with pytest.raises(ValueError) as caught:
        CONSUMERS[consumer](VALID_RECORDS + [bad], tmp_path)
    assert isinstance(caught.value, DapienError)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "bit, target",
    [(np.int64, float), (np.uint8, float), (bool, float), (float, float), (int, np.float64)],
    ids=["numpy int64", "numpy uint8", "bool", "float bit", "numpy float64 target"],
)
def test_numeric_kinds_are_read_as_ints_and_floats(tmp_path, bit, target):
    other = [Sample(tuple(map(bit, s.x)), target(s.y)) for s in VALID_RECORDS]
    write_csv(VALID_RECORDS, tmp_path / "plain.csv")
    write_csv(other, tmp_path / "other.csv")
    assert (tmp_path / "other.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    grouped = group_by_unique_input(other)
    keys = [x for x, _ in grouped.groups]
    assert keys == [(0, 1), (1, 1)]
    assert all(type(b) is int for x in keys for b in x)
    assert all(ys.dtype == np.float64 for _, ys in grouped.groups)
