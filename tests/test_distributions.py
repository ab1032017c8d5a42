"""Distribution fitting and quantile machinery.

Derived expectations come from independent oracles: Monte-Carlo draws with
known generator parameters for the fitters, and high-resolution quadrature
of the densities (written out here, not imported from the package) for
the quantile functions.
"""

import math

import numpy as np
import pytest

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

    def wrapper(z):
        returns.append(original(z))
        return returns[-1]

    monkeypatch.setattr(distributions, name, wrapper)
    return returns


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
