"""Distribution fitting and quantile machinery.

Derived expectations come from independent oracles: Monte-Carlo draws with
known generator parameters for the fitters, and high-resolution quadrature
of the densities (written out here, not imported from the package) for
the quantile functions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from dapien import distributions
from dapien.distributions import (
    GammaParams,
    GaussianParams,
    fit_gamma,
    fit_gaussian,
    gamma_cdf,
    gamma_interval,
    gamma_inverse_cdf,
    gaussian_interval,
    t_quantile,
)
from dapien.errors import DegenerateGroup, DomainError, EmptyGroup
from oracles import gamma_quantile_quadrature, t_two_sided_quadrature


def spy(monkeypatch, name):
    """The list of what ``distributions.<name>`` returns from now on."""
    returns = []
    original = getattr(distributions, name)

    def wrapper(*args):
        returns.append(original(*args))
        return returns[-1]

    monkeypatch.setattr(distributions, name, wrapper)
    return returns


# the grids on which each quantile's cost and accuracy are pinned
T_CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
T_NDFS = tuple(np.geomspace(1.0, 1e6, 25).tolist())
GAMMA_SHAPES = (0.01, 0.03, 0.1, 0.2, 0.5, 1.0, 1.5, 3.0, 10.0, 30.0, 100.0, 300.0)
GAMMA_RATES = (1e-3, 1.0, 1e3)
GAMMA_PS = (0.005, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.995)


class TestFitGaussian:
    def test_constant_group(self):
        params = fit_gaussian([3.0, 3.0, 3.0])
        assert params.mean == 3.0
        assert params.variance == 0.0

    def test_two_point_unbiased_variance(self):
        params = fit_gaussian([0.0, 2.0])
        assert params.mean == 1.0
        assert params.variance == 2.0

    def test_singleton(self):
        params = fit_gaussian([4.5])
        assert params.mean == 4.5
        assert params.variance == 0.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            fit_gaussian([])

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(42)
        ys = rng.normal(5.0, 0.2, size=10**5)
        params = fit_gaussian(ys)
        assert abs(params.mean - 5.0) < 0.01
        assert abs(params.variance - 0.04) < 0.002


group_values = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=50)


@given(ys=group_values, factor=st.floats(1e-3, 1e3))
def test_fit_gaussian_is_scale_equivariant(ys, factor):
    base = fit_gaussian(ys)
    scaled = fit_gaussian([factor * y for y in ys])
    scale = max(abs(y) for y in ys)
    assert abs(scaled.mean - factor * base.mean) <= 1e-12 * factor * scale
    assert abs(scaled.variance - factor**2 * base.variance) <= 1e-12 * (factor * scale) ** 2


@given(ys=group_values, factor=st.floats(1e-3, 1e3))
def test_fit_gamma_is_scale_equivariant(ys, factor):
    # spreads well above the 1e-9 location offset floor, which no scale maps
    assume(max(ys) - min(ys) >= 1e-3 * max(1.0, max(abs(y) for y in ys)))
    base = fit_gamma(ys)
    scaled = fit_gamma([factor * y for y in ys])
    assert math.isclose(scaled.shape, base.shape, rel_tol=1e-9)
    assert math.isclose(scaled.rate * factor, base.rate, rel_tol=1e-9)
    scale = max(abs(y) for y in ys)
    assert abs(scaled.location - factor * base.location) <= 1e-9 * factor * scale


class TestFitGamma:
    def test_degenerate_constant(self):
        with pytest.raises(DegenerateGroup):
            fit_gamma([1.0, 1.0, 1.0])

    def test_too_small(self):
        with pytest.raises(DegenerateGroup):
            fit_gamma([1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyGroup):
            fit_gamma([])

    @pytest.mark.filterwarnings("error")
    def test_spread_below_float_resolution_is_degenerate(self):
        # the location anchor min - 1e-9 rounds back onto 3e7
        with pytest.raises(DegenerateGroup, match="float resolution"):
            fit_gamma([3e7, 3e7, 3e7 + 3.7e-9])

    @pytest.mark.filterwarnings("error")
    def test_moments_fallback_when_newton_does_not_converge(self, monkeypatch):
        mle_returns = spy(monkeypatch, "_shape_rate_mle")
        moments_returns = spy(monkeypatch, "_shape_rate_moments")
        ys = [1.0, 1.0, 1.0 + 2**-52]
        params = fit_gamma(ys)
        (mle,), (moments,) = mle_returns, moments_returns
        assert mle is not None and not mle[2]
        shape = distributions._shape_bias_correction(moments[0], 3)
        assert params.shape == shape != distributions._shape_bias_correction(mle[0], 3)
        assert params.rate == distributions._rate_from_mean(
            shape, 3, float(np.mean(ys)) - params.location
        )

    def test_monte_carlo_exponential(self):
        rng = np.random.default_rng(42)
        ys = rng.gamma(shape=1.0, scale=1.0, size=10**5)
        params = fit_gamma(ys)
        assert abs(params.shape - 1.0) < 0.05
        assert abs(params.rate - 1.0) < 0.05
        assert abs(params.location - 0.0) < 0.01

    def test_monte_carlo_shifted_shape_four(self):
        rng = np.random.default_rng(2)
        ys = 10.0 + rng.gamma(shape=4.0, scale=0.5, size=10**5)
        params = fit_gamma(ys)
        assert abs(params.shape - 4.0) < 0.2
        assert abs(params.rate - 2.0) < 0.1
        assert abs(params.location - 10.0) < 0.01

    @pytest.mark.parametrize(
        "gen,tols",
        [
            # (shape, rate, loc), per-n (shape, rate, loc) tolerances
            ((1.0, 1.0, 0.0), {10**3: (0.15, 0.15, 0.01), 10**4: (0.05, 0.05, 0.002), 10**5: (0.02, 0.02, 0.0005)}),
            ((4.0, 2.0, 10.0), {10**3: (0.8, 0.5, 0.25), 10**4: (0.3, 0.2, 0.08), 10**5: (0.1, 0.06, 0.02)}),
        ],
    )
    def test_consistency_with_growing_samples(self, gen, tols):
        shape, rate, loc = gen
        for n, (ts, tr, tl) in tols.items():
            rng = np.random.default_rng(1234 + n)
            ys = loc + rng.gamma(shape=shape, scale=1.0 / rate, size=n)
            params = fit_gamma(ys)
            assert abs(params.shape - shape) < ts, n
            assert abs(params.rate - rate) < tr, n
            assert abs(params.location - loc) < tl, n


class TestGammaQuantiles:
    def test_exponential_closed_form(self):
        p = 1.0 - math.exp(-1.0)
        z = gamma_inverse_cdf(p, GammaParams(1.0, 1.0, 0.0))
        assert abs(z - 1.0) < 1e-9

    def test_shifted_exponential_median(self):
        z = gamma_inverse_cdf(0.5, GammaParams(1.0, 2.0, 3.0))
        assert abs(z - (3.0 + math.log(2.0) / 2.0)) < 1e-9

    def test_against_quadrature_oracle(self):
        z = gamma_inverse_cdf(0.95, GammaParams(4.0, 2.0, 0.0))
        z_ref = gamma_quantile_quadrature(0.95, 4.0, 2.0, 0.0)
        assert abs(z - z_ref) < 1e-8

    def test_domain_errors(self):
        params = GammaParams(1.0, 1.0, 0.0)
        for p in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                gamma_inverse_cdf(p, params)

    def test_round_trip(self):
        for shape in (0.5, 1.0, 4.0):
            params = GammaParams(shape, 2.0, -1.0)
            for p in (0.001, 0.1, 0.5, 0.9, 0.999):
                z = gamma_inverse_cdf(p, params)
                assert abs(gamma_cdf(z, params) - p) < 1e-8

    def test_monotone_in_p(self):
        params = GammaParams(2.5, 1.5, 0.0)
        grid = np.linspace(0.01, 0.99, 50)
        values = [gamma_inverse_cdf(p, params) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extreme_shapes_still_invert(self):
        # regressed parameters can wander; inversion must stay bracketed
        for shape in (0.01, 0.2, 30.0, 300.0):
            for rate in (1e-3, 1.0, 1e3):
                params = GammaParams(shape, rate, 0.0)
                for p in (0.025, 0.5, 0.975):
                    z = gamma_inverse_cdf(p, params)
                    assert z > 0.0
                    assert abs(gamma_cdf(z, params) - p) < 1e-8

    def test_newton_cost_and_agreement_with_scipy(self, monkeypatch):
        # bisection took 40-60 CDF evaluations per quantile; safeguarded
        # Newton takes at most 6 on this grid, so 16 leaves room but fails
        # a silent fallback to bisection
        calls = spy(monkeypatch, "_reg_lower_gamma")
        for shape in GAMMA_SHAPES:
            for rate in GAMMA_RATES:
                for p in GAMMA_PS:
                    calls.clear()
                    z = gamma_inverse_cdf(p, GammaParams(shape, rate, 0.0))
                    assert len(calls) <= 16, (shape, rate, p, len(calls))
                    ref = stats.gamma.ppf(p, shape, scale=1.0 / rate)
                    assert abs(z - ref) <= 1e-11 * ref, (shape, rate, p)

    def test_quantile_below_double_resolution(self):
        # P(0.001, 1e-308) is about 0.49: every lower quantile rounds to the floor
        params = GammaParams(0.001, 1.0, 0.0)
        assert gamma_inverse_cdf(0.1, params) == 1e-308
        assert gamma_inverse_cdf(0.9, params) > 1e-308

    @given(
        shape=st.floats(0.01, 300.0), rate=st.floats(1e-3, 1e3),
        location=st.floats(-1e3, 1e3), p=st.floats(1e-3, 0.999),
        gap=st.floats(1e-6, 0.5),
    )
    def test_increasing_and_exactly_location_equivariant(self, shape, rate, location, p, gap):
        assume(p + gap < 0.999)
        base = GammaParams(shape, rate, 0.0)
        z = gamma_inverse_cdf(p, base)
        assert gamma_inverse_cdf(p + gap, base) > z
        assert gamma_inverse_cdf(p, GammaParams(shape, rate, location)) == location + z

    @given(
        shape=st.floats(0.01, 300.0), rate=st.floats(1e-3, 1e3),
        factor=st.floats(1e-2, 1e2), p=st.floats(1e-3, 0.999),
    )
    def test_rate_equivariance_and_round_trip(self, shape, rate, factor, p):
        params = GammaParams(shape, rate, 0.0)
        z = gamma_inverse_cdf(p, params)
        scaled = gamma_inverse_cdf(p, GammaParams(shape, rate * factor, 0.0))
        assert abs(scaled * factor - z) <= 1e-12 * z
        assert abs(gamma_cdf(z, params) - p) <= 1e-12

    def test_location_equivariance(self):
        base = GammaParams(2.0, 3.0, 0.0)
        for delta in (-7.5, 0.25, 1e3):
            shifted = GammaParams(2.0, 3.0, delta)
            for p in (0.05, 0.5, 0.95):
                a = gamma_inverse_cdf(p, base)
                b = gamma_inverse_cdf(p, shifted)
                assert abs(b - (a + delta)) < 1e-12 * max(1.0, abs(delta))


class TestTQuantile:
    def test_gaussian_limit(self):
        assert abs(t_quantile(0.95, 10**6) - 1.95996) < 1e-4

    def test_against_quadrature_oracle(self):
        # frozen values computed with t_two_sided_quadrature
        assert abs(t_quantile(0.95, 20.0) - 2.08596) < 1e-5
        assert abs(t_quantile(0.99, 20.0) - 2.84534) < 1e-5
        for confidence in (0.8, 0.95):
            for ndf in (2.0, 5.0, 20.0, 1000.0):
                ref = t_two_sided_quadrature(confidence, ndf)
                assert abs(t_quantile(confidence, ndf) - ref) < 1e-6

    def test_non_integer_ndf(self):
        mid = t_quantile(0.95, 20.5)
        assert t_quantile(0.95, 21.0) < mid < t_quantile(0.95, 20.0)

    def test_monotone_in_ndf_and_confidence(self):
        values = [t_quantile(0.95, ndf) for ndf in (1, 2, 5, 20, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        values = [t_quantile(c, 20.0) for c in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t_quantile(1.0, 10.0)
        with pytest.raises(DomainError):
            t_quantile(0.95, 0.5)

    @pytest.mark.parametrize("ndf", [True, np.bool_(True), "20", None])
    def test_rejects_an_ndf_that_is_not_a_real(self, ndf):
        with pytest.raises(DomainError, match="not a bool"):
            t_quantile(0.95, ndf)

    def test_newton_cost_and_agreement_with_scipy(self, monkeypatch):
        # bisection took 40-60 CDF evaluations per critical value; Newton
        # from the Cornish-Fisher start takes at most 6 on this grid
        calls = spy(monkeypatch, "_reg_inc_beta")
        for confidence in T_CONFIDENCES:
            for ndf in T_NDFS:
                calls.clear()
                c = t_quantile(confidence, ndf)
                assert len(calls) <= 24, (confidence, ndf, len(calls))
                # beyond ndf 1000 the incomplete beta itself loses digits
                if ndf <= 1000.0:
                    ref = stats.t.ppf(0.5 + 0.5 * confidence, ndf)
                    assert abs(c - ref) <= 1e-10 * ref, (confidence, ndf)

    @given(
        confidence=st.floats(0.01, 0.999), ndf=st.floats(1.0, 1e6),
        gap=st.floats(1e-6, 0.5), ratio=st.floats(1.01, 100.0),
    )
    def test_increases_in_confidence_and_decreases_in_ndf(self, confidence, ndf, gap, ratio):
        assume(confidence + gap < 0.999 and ndf * ratio <= 1e6)
        c = t_quantile(confidence, ndf)
        assert t_quantile(confidence + gap, ndf) > c
        assert t_quantile(confidence, ndf * ratio) < c


def test_normal_quantile_against_scipy():
    for p in (1e-300, 1e-10, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1.0 - 1e-12):
        z = distributions._normal_quantile(p)
        assert abs(z - stats.norm.ppf(p)) <= 1e-13 * max(1.0, abs(z)), p


class TestIntervals:
    def test_gaussian_zero_width(self):
        assert gaussian_interval(GaussianParams(5.0, 0.0), 2.0) == (5.0, 5.0)

    def test_gaussian_standard_normal(self):
        lo, hi = gaussian_interval(GaussianParams(0.0, 1.0), 1.96)
        assert abs(lo + 1.96) < 1e-12 and abs(hi - 1.96) < 1e-12

    def test_gaussian_scaled(self):
        lo, hi = gaussian_interval(GaussianParams(3.0, 0.04), 2.086)
        assert abs(lo - 2.5828) < 1e-12 and abs(hi - 3.4172) < 1e-12

    def test_gaussian_negative_c(self):
        with pytest.raises(DomainError):
            gaussian_interval(GaussianParams(0.0, 1.0), -1.0)

    def test_gamma_exponential_closed_form(self):
        lo, hi = gamma_interval(GammaParams(1.0, 1.0, 0.0), 0.95)
        assert abs(lo - (-math.log(0.975))) < 1e-9
        assert abs(hi - (-math.log(0.025))) < 1e-9

    def test_gamma_location_shift(self):
        base = gamma_interval(GammaParams(1.0, 1.0, 0.0), 0.95)
        shifted = gamma_interval(GammaParams(1.0, 1.0, 10.0), 0.95)
        assert abs(shifted[0] - base[0] - 10.0) < 1e-9
        assert abs(shifted[1] - base[1] - 10.0) < 1e-9

    def test_gamma_bounds_are_floats_for_one_input_and_arrays_for_a_matrix(self):
        lo, hi = gamma_interval(GammaParams(1.3, 0.7, 2.0), 0.95)
        assert type(lo) is float and type(hi) is float
        fields = [np.full((2, 3), v) for v in (1.3, 0.7, 2.0)]
        bounds = gamma_interval(GammaParams(*fields), 0.95)
        for bound, one in zip(bounds, (lo, hi)):
            assert type(bound) is np.ndarray and bound.shape == (2, 3)
            assert (bound == one).all()

    def test_gamma_against_quadrature_oracle(self):
        lo, hi = gamma_interval(GammaParams(4.0, 2.0, 0.0), 0.90)
        assert abs(lo - gamma_quantile_quadrature(0.05, 4.0, 2.0, 0.0)) < 1e-8
        assert abs(hi - gamma_quantile_quadrature(0.95, 4.0, 2.0, 0.0)) < 1e-8

    def test_fitted_gaussian_interval_covers_group(self):
        rng = np.random.default_rng(9)
        for gamma in (0.8, 0.95):
            ys = rng.normal(-2.0, 1.3, size=2000)
            params = fit_gaussian(ys)
            c = t_quantile(gamma, ys.size - 1)
            lo, hi = gaussian_interval(params, c)
            covered = float(np.mean((ys >= lo) & (ys <= hi)))
            assert covered >= gamma - 0.05
