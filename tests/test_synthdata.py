"""Benchmark generators, split protocol and CSV round trips."""

import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dapien import synthdata
from dapien.errors import DapienError, InvalidRecord, RaggedFeatures, TooFewGroups
from dapien.grouping import Sample, as_records, group_by_unique_input
from dapien.synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    group_split,
    read_csv,
    write_csv,
)
from oracles import read_csv_reference

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


@pytest.mark.parametrize("bad", ["nan", "-inf", '"inf"'])
def test_csv_non_finite_target_names_its_line_past_blank_lines(tmp_path, bad):
    # lines 3 and 5 are blank, and a row ends in \r\n; the first bad target is on line 6
    path = tmp_path / "bad.csv"
    path.write_bytes(f"x_0,x_1,y\n0,1,2.0\n\n1,1,2.5\r\n\n0,1,{bad}\n1,0,nan\n".encode())
    with pytest.raises(InvalidRecord, match=r"bad.csv: row 6: target must be finite, got -?(nan|inf)"):
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


def parse_outcome(reader, path):
    """What ``reader`` makes of ``path``: the Records' fields, or the error class and row named."""
    try:
        records = reader(path)
    except DapienError as exc:
        row = re.search(r"row (\d+)", str(exc))
        return type(exc), row and int(row.group(1))
    return records.inputs, records.index.dtype, records.index.tolist(), records.targets.tobytes()


def assert_parses_as_csv_reader_does(path):
    """``read_csv`` gives the reference's records bit for bit, or raises its error class.

    Where the reference's error names a row, ``read_csv`` names the same
    one; it also names the row of a non-binary bit, where the reference,
    which checks bits after reading every row, names none.
    """
    want, got = parse_outcome(read_csv_reference, path), parse_outcome(read_csv, path)
    if isinstance(want[0], type):
        assert got[0] is want[0], (got, want)
        assert want[1] is None or got[1] == want[1], (got, want)
    else:
        assert got == want


# spellings of a bit b that csv.reader and int read as b
BIT_SPELLINGS = ("{}", "0{}", "00{}", " {}", "{} ", '"{}"', '"0{}"', '" {}"')
TARGET_SPELLINGS = ("{!r}", " {!r}", "{!r} ", '"{!r}"')
LINE_ENDS = ("\r\n", "\n", "\r")
# an extra line's one replaced cell: (position, text), -1 being the target;
# all but the quoted target are defects
BAD_CELLS = [(0, "2"), (0, "-1"), (0, "b"), (0, "1.0"), (0, ""), (-1, "two"), (-1, ""),
             (-1, "nan"), (-1, "-inf"), (-1, '"2.5"')]


@st.composite
def csv_texts(draw):
    """A dataset CSV with random spellings, blank lines and line ends, and at most one defect."""
    d = draw(st.integers(1, 3))
    ends = st.sampled_from(LINE_ENDS)
    lines = [",".join([f"x_{j}" for j in range(d)] + ["y"])]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            lines.append("")
        bits = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
        cells = [draw(st.sampled_from(BIT_SPELLINGS)).format(b) for b in bits]
        y = draw(st.floats(allow_nan=False, allow_infinity=False))
        lines.append(",".join(cells + [draw(st.sampled_from(TARGET_SPELLINGS)).format(y)]))
    defect = draw(st.sampled_from([None, "only a comma", "blank", "short", "long", *BAD_CELLS]))
    if defect is not None:
        cells = ["1"] * d + ["2.0"]
        if isinstance(defect, tuple):
            cells[defect[0]] = defect[1]
        elif defect in ("short", "long"):
            cells = cells[1:] if defect == "short" else ["0"] + cells
        else:
            cells = {"only a comma": ["", ""], "blank": [" "]}[defect]
        lines.insert(draw(st.integers(1, len(lines))), ",".join(cells))
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    return text + draw(st.sampled_from(("",) + LINE_ENDS))


@given(text=csv_texts())
def test_csv_reads_what_csv_reader_reads(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert_parses_as_csv_reader_does(path)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 7), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=40,
    )
)
def test_csv_reads_back_every_file_it_writes_bit_for_bit(rows):
    records = as_records([Sample((x & 1, x >> 1 & 1, x >> 2), y) for x, y in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(records, path)
        back = read_csv(path)
    assert back.inputs == records.inputs
    assert back.index.tolist() == records.index.tolist()
    assert back.targets.tobytes() == records.targets.tobytes()


@pytest.mark.parametrize(
    "text, inputs, targets",
    [
        ("x_0,y\n,\n", None, None),
        ("x_0,x_1,y\n0,1,2.0\n,\n", None, None),
        ('x_0,x_1,y\n0,1,"2.0"\n0,1,3.0\n', ((0, 1),), [2.0, 3.0]),
        ("x_0,x_1,y\n0,1,2.0\n0,2,3.0\n", None, None),
    ],
    ids=["only a comma, d=1", "only a comma, d=2", "quoted target", "non-binary bit"],
)
def test_csv_fixed_cases_read_as_csv_reader_reads_them(tmp_path, text, inputs, targets):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert_parses_as_csv_reader_does(path)
    if inputs is None:
        with pytest.raises(DapienError):
            read_csv(path)
    else:
        records = read_csv(path)
        assert records.inputs == inputs and records.targets.tolist() == targets


@pytest.mark.parametrize(
    "text",
    [
        'x_0,x_1,y\n0,"1\n",2.0\n',
        'x_0,y\n0,"2.0\n"\n',
        'x_0,x_1,y\n0,"1,0",2.0\n',
        'x_0,x_1,y\n0,1,"2,5"\n',
        'x_0,x_1,y\n0,"1,2.0\n1,1,3.0\n',
        'x_0,y\n0,"2.0\n',
        'x_0,y\n"0"1,2.0\n',
    ],
    ids=["bit with a line break", "target with a line break", "bit with a comma",
         "target with a comma", "unterminated quote", "unterminated quoted target",
         "text after a closing quote"],
)
def test_csv_quoting_that_write_csv_never_writes_raises(tmp_path, text):
    # csv.reader accepts a quoted line break and text after a closing quote
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(DapienError):
        read_csv(path)


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


def test_generator_spec_rejects_a_noise_that_is_not_a_member():
    # the value of SCALED_WHITE: it drew dataset C's gamma targets
    with pytest.raises(ValueError, match="NoiseKind member, got 'scaled_white'"):
        GeneratorSpec(noise="scaled_white", d=2, replicates=3, seed=1)


@pytest.mark.parametrize("field, value", [
    ("replicates", 2.5), ("d", True), ("d", 2.0), ("seed", 1.5), ("seed", "1"),
])
def test_generator_spec_counts_and_seed_must_be_integers(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {re.escape(repr(value))}"):
        GeneratorSpec(noise=NoiseKind.SCALED_WHITE, **{field: value})


def test_generator_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GeneratorSpec(noise=NoiseKind.SCALED_WHITE, seed=-1)


def test_split_spec_seed_is_checked_as_the_generator_seed():
    with pytest.raises(TypeError, match="seed must be an integer, got 1.5"):
        SplitSpec(seed=1.5)
    with pytest.raises(TypeError, match="seed must be an integer, got True"):
        SplitSpec(seed=True)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SplitSpec(seed=-1)


def test_numpy_integers_are_integers_to_the_specs():
    spec = GeneratorSpec(NoiseKind.SCALED_WHITE, d=np.int64(2), replicates=np.uint8(3), seed=np.int32(1))
    plain = GeneratorSpec(NoiseKind.SCALED_WHITE, d=2, replicates=3, seed=1)
    assert generate(spec) == generate(plain)
    split = group_split(generate(plain), SplitSpec(seed=np.int64(4)))
    assert split == group_split(generate(plain), SplitSpec(seed=4))


def test_csv_header_cell_with_a_line_break_is_refused(tmp_path):
    # csv.reader reads the header across two file lines; the row after it
    # is file line 3, which a one-line header count would call row 2
    path = tmp_path / "header.csv"
    path.write_bytes(b'x_0,"y\nz",y\n0,1.0\n')
    with pytest.raises(InvalidRecord, match=r"header\.csv: expected header .* on one line"):
        read_csv(path)
