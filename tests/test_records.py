"""The checked record table: ``Records`` against the plain-list reference.

A ``Records`` holds the distinct inputs, each record's index into them and
the targets.  It must read as the ``Sample`` list it was checked from, be
returned as is by ``as_records``, and subset to what checking the filtered
plain list gives.  CSV round trips keep every target bit, and the CSV text
is what ``csv.writer`` writes for the same rows.
"""

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapien.errors import EmptyDataset
from dapien.grouping import Records, Sample, as_records
from dapien.synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    csv_lines,
    group_split,
    read_csv,
    write_csv,
)

EXTREME_TARGETS = [-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1 / 3, -2.5]
EXTREME_VALUES = [*EXTREME_TARGETS, math.nan, math.inf, -math.inf]


@st.composite
def record_lists(draw, targets=st.floats(-1e6, 1e6)):
    """A plain ``Sample`` list over a random bit matrix, in a random record order."""
    d = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, 2**d - 1), min_size=1, max_size=40))
    return [
        Sample(tuple((code >> j) & 1 for j in range(d)), draw(targets)) for code in codes
    ]


def fields(records):
    return records.inputs, records.index.tolist(), records.targets.tobytes()


@settings(max_examples=60)
@given(reference=record_lists(), data=st.data())
def test_records_read_as_the_plain_list(reference, data):
    records = as_records(reference)
    assert list(records) == reference
    assert [records[i] for i in range(len(records))] == reference
    assert records[-1] == reference[-1]
    assert records == reference and reference == records
    assert all(type(b) is int for s in records for b in s.x)
    assert all(type(s.y) is float for s in records)

    assert as_records(records) is records
    again = as_records(records)
    assert again.index is records.index and again.targets is records.targets
    for array in (records.index, records.targets):
        with pytest.raises(ValueError):
            array[0] = 1

    keep = data.draw(st.lists(st.booleans(), min_size=len(records.inputs),
                              max_size=len(records.inputs)))
    kept = [s for s in reference if keep[records.inputs.index(s.x)]]
    subset = records.subset(keep)
    if kept:
        assert fields(subset) == fields(as_records(kept))
    else:
        assert len(subset) == 0 and list(subset) == []
        with pytest.raises(EmptyDataset):
            as_records(subset)


@settings(max_examples=40)
@given(reference=record_lists(
    targets=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_TARGETS)
))
def test_csv_round_trip_keeps_every_target_bit(reference):
    with tempfile.TemporaryDirectory() as tmp:
        records_path, list_path = Path(tmp) / "records.csv", Path(tmp) / "list.csv"
        write_csv(as_records(reference), records_path)
        write_csv(reference, list_path)
        assert records_path.read_bytes() == list_path.read_bytes()
        back = read_csv(records_path)
    assert back == reference
    expected = np.array([s.y for s in reference], dtype=np.float64)
    assert back.targets.tobytes() == expected.tobytes()


@settings(max_examples=60)
@given(
    reference=record_lists(
        targets=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_TARGETS)
    ),
    data=st.data(),
)
def test_csv_lines_are_what_csv_writer_writes(reference, data):
    records = as_records(reference)
    p = len(records.inputs)
    names = data.draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
                               max_size=4, unique=True))
    values = st.floats() | st.sampled_from(EXTREME_VALUES)
    columns = {
        name: np.array(data.draw(st.lists(values, min_size=p, max_size=p)), dtype=np.float64)
        for name in names
    }
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow([f"x_{j}" for j in range(len(records.inputs[0]))] + ["y", *names])
    # csv.writer formats a Python float with repr
    writer.writerows(
        [*s.x, s.y] + [float(columns[name][records.inputs.index(s.x)]) for name in names]
        for s in reference
    )
    assert "".join(csv_lines(records, **columns)) == expected.getvalue()
    if not names:
        assert "".join(csv_lines(reference)) == expected.getvalue()


def test_csv_lines_need_one_value_per_input_and_check_first(tmp_path):
    with pytest.raises(EmptyDataset):
        write_csv([], tmp_path / "empty.csv")
    assert not (tmp_path / "empty.csv").exists()
    records = as_records([Sample((0,), 1.0), Sample((1,), 2.0), Sample((0,), 3.0)])
    assert "".join(csv_lines(records, z=[0.5, 1.5])).endswith("0,3.0,0.5\r\n")
    with pytest.raises(ValueError):
        csv_lines(records, z=[0.5, 1.5, 2.5])


def test_the_data_functions_return_records(tmp_path):
    records = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=3, replicates=2, seed=1))
    write_csv(records, tmp_path / "data.csv")
    train, test = group_split(records, SplitSpec(test_fraction=0.5, seed=2))
    for value in (records, read_csv(tmp_path / "data.csv"), train, test):
        assert type(value) is Records
    assert not set(train.inputs) & set(test.inputs)


def test_records_are_not_lists_and_cannot_be_built_from_arrays():
    records = as_records([Sample((0, 1), 1.0), Sample((1, 1), 2.0)])
    assert not hasattr(records, "append")
    with pytest.raises(TypeError):
        records + records
    with pytest.raises(TypeError):
        Records(records.inputs, records.index, records.targets)
    with pytest.raises(AttributeError):
        records.targets = np.zeros(2)
    with pytest.raises(TypeError):
        hash(records)
    assert records != [Sample((0, 1), 1.0)]
    assert records != [Sample((0, 1), 1.0), Sample((1, 1), math.nextafter(2.0, 3.0))]
