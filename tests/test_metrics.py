"""Interval quality measures."""

import math

import numpy as np
import pytest

from dapien.errors import DomainError, EmptyInput, LengthMismatch, ZeroRange
from dapien.metrics import cwc, evaluate, mpiw, nmpiw, picp


class TestPicp:
    def test_full_coverage_with_huge_bounds(self):
        lower, upper = [-1e12] * 3, [1e12] * 3
        assert picp(lower, upper, [0.0, -5.0, 1e6]) == 1.0

    def test_half_coverage(self):
        assert picp([0, 0], [1, 1], [0.5, 2.0]) == 0.5

    def test_boundary_counts_as_covered(self):
        assert picp([0], [1], [1.0]) == 1.0
        assert picp([0], [1], [0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            picp([0], [1], [0.5, 0.7])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        lows = rng.normal(size=50)
        ups = lows + rng.uniform(0.1, 2.0, 50)
        ys = rng.normal(size=50)
        base = picp(lows, ups, ys)
        shifted = picp(lows + 3.3, ups + 3.3, ys + 3.3)
        assert base == shifted


class TestMpiw:
    def test_simple_mean(self):
        assert mpiw([0, 0], [1, 3]) == 2.0

    def test_zero_width(self):
        assert mpiw([2.0] * 4, [2.0] * 4) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mpiw([], [])

    def test_linear_in_width_scaling(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(size=30)
        widths = rng.uniform(0.5, 2.0, 30)
        base = mpiw(centers - widths / 2, centers + widths / 2)
        scaled = mpiw(centers - widths, centers + widths)
        assert abs(scaled - 2.0 * base) < 1e-12


class TestNmpiw:
    def test_fraction_of_range(self):
        lower, upper = [0, 0], [1, 3]  # mpiw 2
        assert abs(nmpiw(lower, upper, [0.0, 10.0]) - 0.2) < 1e-12

    def test_width_equal_to_range(self):
        assert abs(nmpiw([0], [4], [1.0, 5.0]) - 1.0) < 1e-12

    def test_zero_range(self):
        with pytest.raises(ZeroRange):
            nmpiw([0], [1], [2.0, 2.0])

    def test_empty_is_not_a_zero_range(self):
        with pytest.raises(EmptyInput):
            nmpiw([], [], [])


class TestCwc:
    def test_no_penalty_above_threshold(self):
        assert cwc(0.96, 0.1, 0.95, 50.0) == 0.1

    def test_boundary_uses_no_penalty(self):
        assert cwc(0.95, 0.1, 0.95, 50.0) == 0.1

    def test_penalty_below_threshold(self):
        value = cwc(0.90, 0.1, 0.95, 50.0)
        assert abs(value - 0.1 * (1.0 + math.exp(2.5))) < 1e-12

    def test_equals_nmpiw_iff_covered(self):
        assert cwc(0.99, 0.2, 0.95, 10.0) == 0.2
        assert cwc(0.80, 0.2, 0.95, 10.0) > 0.2

    def test_non_increasing_in_picp(self):
        values = [cwc(p, 0.3, 0.95, 30.0) for p in np.linspace(0.5, 1.0, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_evaluate_report_fields():
    lower, upper = [0, 1, -1], [2, 3, 0.5]
    targets = [1.0, 4.0, 0.0]
    report = evaluate(lower, upper, targets, confidence=0.95)
    assert report.n == 3
    assert abs(report.picp - 2.0 / 3.0) < 1e-12
    assert abs(report.mpiw - (2 + 2 + 1.5) / 3) < 1e-12
    assert report.cwc_mu == 0.95
    assert report.cwc > report.nmpiw  # under-covered, penalty active
    doc = report.to_dict()
    assert set(doc) == {
        "picp", "mpiw", "nmpiw", "cwc", "n", "confidence", "cwc_mu", "cwc_eta",
    }


@pytest.mark.parametrize("confidence", [2.0, 1.0, 0.0, -0.5, math.nan])
def test_evaluate_rejects_a_confidence_outside_the_unit_interval(confidence):
    # 2.0 gave CWC 2.5e32, nan gave CWC nan
    with pytest.raises(DomainError, match="confidence must lie in \\(0, 1\\)"):
        evaluate([0, 0], [1, 1], [0.5, 2.0], confidence)
