"""Benchmark generators, split protocol and CSV round trips."""

import hashlib

import numpy as np
import pytest

from dapien import synthdata
from dapien.errors import DapienError, InvalidRecord, RaggedFeatures, TooFewGroups
from dapien.grouping import group_by_unique_input
from dapien.synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    group_split,
    read_csv,
    write_csv,
)

# first five uniforms of numpy's default PCG64 stream at seed 42; the
# documented reproducibility contract for every dataset in this package
PCG64_SEED42_FIRST5 = [0.77395605, 0.43887844, 0.85859792, 0.69736803, 0.09417735]


def test_prng_reference_sequence():
    draws = np.random.default_rng(42).random(5)
    assert np.allclose(draws, PCG64_SEED42_FIRST5, atol=1e-8)


def test_dataset_a_counts():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=0)
    samples = generate(spec)
    assert len(samples) == 20480
    assert len({s.x for s in samples}) == 1024


def test_conditional_white_zero_branch():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=6, replicates=20, seed=1)
    samples = generate(spec)
    zeros = [s for s in samples if sum(s.x) == 0]
    assert len(zeros) == 20
    assert all(s.y == 0.0 for s in zeros)
    # every even-sum group is exactly constant, odd groups are not
    for x, ys in group_by_unique_input(samples).groups:
        if sum(x) % 2 == 0:
            assert float(np.ptp(ys)) == 0.0
        else:
            assert float(np.ptp(ys)) > 0.0


def test_conditional_white_odd_group_std():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=2, replicates=10**5, seed=2)
    grouped = group_by_unique_input(generate(spec))
    for x, ys in grouped.groups:
        if sum(x) % 2 == 1:
            assert abs(float(ys.std(ddof=1)) - 0.2) < 0.005


def test_scaled_white_noise_scales_with_signal():
    spec = GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=3, replicates=2 * 10**4, seed=3)
    grouped = group_by_unique_input(generate(spec))
    for x, ys in grouped.groups:
        f = sum(x)
        if f == 0:
            assert float(np.ptp(ys)) == 0.0
        else:
            assert abs(float(ys.std(ddof=1)) / f - 0.1) < 0.01


def test_scaled_gamma_group_support_and_mean():
    spec = GeneratorSpec(noise=NoiseKind.SCALED_GAMMA, d=3, replicates=10**4, seed=4)
    grouped = group_by_unique_input(generate(spec))
    for x, ys in grouped.groups:
        f = sum(x)
        assert float(ys.min()) >= f
        if f > 0:
            assert abs(float(ys.mean()) - 2.0 * f) < 0.1 * f


def test_generate_deterministic():
    spec = GeneratorSpec(noise=NoiseKind.SCALED_GAMMA, d=5, replicates=7, seed=99)
    a = generate(spec)
    b = generate(spec)
    assert a == b


# sha256 of every target's float64 bytes at d=6, replicates=5, seed=7, as
# drawn by one PCG64 stream in the documented order
GOLDEN_TARGET_DIGESTS = {
    NoiseKind.CONDITIONAL_WHITE: "5535100935af2999a2e3c89c90f7cd40945a5589985abe3b7c2a275ec0a898e3",
    NoiseKind.SCALED_WHITE: "2fc932aa37aac7101ecd3f7145b3a4a08b873a414f66e7ea77e175fed2b7e46a",
    NoiseKind.SCALED_GAMMA: "7cb57fc9d6aedbfc7762c63fa8ca6d715402b6d16ea227562eaf22a92928418c",
}


@pytest.mark.parametrize("noise", list(NoiseKind))
def test_generate_golden_bits(noise):
    samples = generate(GeneratorSpec(noise=noise, d=6, replicates=5, seed=7))
    ys = np.array([s.y for s in samples])
    assert hashlib.sha256(ys.tobytes()).hexdigest() == GOLDEN_TARGET_DIGESTS[noise]
    # ascending counter, bit j at feature j, replicates consecutive
    expected = [tuple((code >> j) & 1 for j in range(6)) for code in range(64) for _ in range(5)]
    assert [s.x for s in samples] == expected
    assert all(type(b) is int for s in samples for b in s.x)
    assert all(type(s.y) is float for s in samples)


def test_split_counts_dataset_a():
    spec = GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=5)
    samples = generate(spec)
    train, test = group_split(samples, SplitSpec(test_fraction=0.2, seed=6))
    test_keys = {s.x for s in test}
    train_keys = {s.x for s in train}
    assert len(test_keys) == 205  # ceil(0.2 * 1024)
    assert len(test) == 205 * 20
    assert len(train_keys) == 819
    assert not (test_keys & train_keys)
    assert len(train) + len(test) == len(samples)


def test_split_two_groups():
    samples = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=1, replicates=3, seed=0))
    train, test = group_split(samples, SplitSpec(test_fraction=0.5, seed=1))
    assert len({s.x for s in train}) == 1
    assert len({s.x for s in test}) == 1


def test_split_deterministic():
    samples = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=4, replicates=3, seed=0))
    split_a = group_split(samples, SplitSpec(test_fraction=0.3, seed=42))
    split_b = group_split(samples, SplitSpec(test_fraction=0.3, seed=42))
    assert split_a == split_b


def test_split_needs_two_groups():
    samples = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=1, replicates=5, seed=0))
    only_one = [s for s in samples if s.x == (0,)]
    with pytest.raises(TooFewGroups):
        group_split(only_one, SplitSpec(test_fraction=0.5, seed=0))


def test_split_takes_any_iterable_of_records():
    samples = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=4, replicates=3, seed=0))
    spec = SplitSpec(test_fraction=0.3, seed=42)
    assert group_split(iter(samples), spec) == group_split(samples, spec)
    with pytest.raises(TooFewGroups, match="got 0"):
        group_split(iter([]), spec)


def test_csv_round_trip(tmp_path):
    spec = GeneratorSpec(noise=NoiseKind.SCALED_GAMMA, d=4, replicates=3, seed=13)
    samples = generate(spec)
    path = tmp_path / "data.csv"
    write_csv(samples, path)
    back = read_csv(path)
    assert back == samples  # full precision survives


# sha256 of the file write_csv writes for the dataset-C draw above; it pins
# the header, the bit cells, each target's repr and the \r\n line ends
GOLDEN_CSV_DIGEST = "71d3ce13239261670255f7ace71597226ad0e89b75bbfb3b61ecbeb66a99ae09"


def test_csv_golden_bytes(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(generate(GeneratorSpec(NoiseKind.SCALED_GAMMA, d=6, replicates=5, seed=7)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_DIGEST


def test_csv_spellings_of_one_bit_are_one_input(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('x_0,x_1,y\n0,1,2.0\n0,01,3.0\n0, 1,4.0\n"0","1",5.0\n1,0,6.0\n')
    records = read_csv(path)
    assert records.inputs == ((0, 1), (1, 0))
    assert records.index.tolist() == [0, 0, 0, 0, 1]


def test_csv_parses_each_distinct_prefix_once(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    write_csv(generate(GeneratorSpec(NoiseKind.SCALED_WHITE, d=3, replicates=4, seed=1)), path)
    calls = []

    def counting_int(cell):
        calls.append(cell)
        return int(cell)

    monkeypatch.setattr(synthdata, "int", counting_int, raising=False)
    records = read_csv(path)
    assert len(records) == 32 and len(records.inputs) == 8
    assert len(calls) == 8 * 3


def test_csv_bad_target_on_a_parsed_prefix_names_its_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,x_1,y\n0,1,2.0\n1,1,2.5\n0,1,two\n")
    with pytest.raises(InvalidRecord, match="bad.csv: row 4"):
        read_csv(path)


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,x_1,y\n0,1,2.0\n0,1\n")
    with pytest.raises(RaggedFeatures):
        read_csv(path)


@pytest.mark.parametrize("row", ["0,b,2.0", "0,1,", "0,1.0,2.0", "0,1,two"])
def test_csv_unparsable_cell_names_file_and_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x_0,x_1,y\n0,1,2.0\n{row}\n")
    with pytest.raises(InvalidRecord, match="bad.csv: row 3") as caught:
        read_csv(path)
    assert isinstance(caught.value, DapienError) and isinstance(caught.value, ValueError)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x_0,x_1,y\n0,1,2.0\n\n1,0,3.0\n\n")
    records = read_csv(path)
    assert records.inputs == ((0, 1), (1, 0))
    assert records.targets.tolist() == [2.0, 3.0]


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InvalidRecord, match="empty.csv: empty file"):
        read_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_generator_spec_bounds():
    with pytest.raises(ValueError):
        GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=25)
    with pytest.raises(ValueError):
        GeneratorSpec(noise=NoiseKind.SCALED_WHITE, replicates=0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=1.0)
