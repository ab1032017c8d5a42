"""Distribution fitting and quantile machinery.

Derived expectations come from independent oracles: Monte-Carlo draws with
known generator parameters for the fitters, and high-resolution quadrature
of the densities (written out here, not imported from the package) for
the quantile functions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import digamma, polygamma

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
from dapien.errors import (
    DapienError,
    DegenerateGroup,
    DomainError,
    EmptyGroup,
    InvalidTarget,
    NonConvergence,
)
from dapien.grouping import group_by_unique_input
from dapien.synthdata import GeneratorSpec, NoiseKind, generate
from oracles import gamma_anchor_reference, gamma_quantile_quadrature, t_two_sided_quadrature


def spy(monkeypatch, name):
    """The list of what ``distributions.<name>`` returns from now on."""
    returns = []
    original = getattr(distributions, name)

    def wrapper(*args):
        returns.append(original(*args))
        return returns[-1]

    monkeypatch.setattr(distributions, name, wrapper)
    return returns


def warm_t_cache():
    """Cache the critical values that a bad argument could be mistaken for."""
    t_quantile(0.95, 1.0)
    t_quantile(0.95, 20.0)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "ys", [[1.0, math.nan], [1.0, math.inf], [1e200, -1e200], [1e308, 1e308, -1e308]]
    )
    def test_a_non_finite_mean_or_variance_is_an_invalid_target(self, ys):
        # a non-finite value, or finite values whose mean or variance overflows
        with pytest.raises(InvalidTarget, match="finite mean and variance"):
            fit_gaussian(ys)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, 20, 129])
    def test_a_matrix_gets_each_rows_own_fit(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(3.0, 10.0 ** rng.uniform(-3, 3, size=(40, 1)), size=(40, n))
        rows[::7] = rows[::7, :1]  # constant rows
        params = fit_gaussian(rows)
        assert type(params.mean) is np.ndarray and params.mean.shape == (40,)
        one_by_one = [fit_gaussian(row) for row in rows]
        assert params.mean.tolist() == [p.mean for p in one_by_one]
        assert params.variance.tolist() == [p.variance for p in one_by_one]
        assert (params.variance[::7] == 0.0).all()

    @pytest.mark.filterwarnings("error")
    def test_a_matrix_names_its_first_row_that_is_not_finite(self):
        rows = np.array([[1.0, 2.0], [1e200, -1e200], [math.nan, 1.0]])
        with pytest.raises(InvalidTarget, match=r"\(row 1\): 0.0, inf"):
            fit_gaussian(rows)

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


@st.composite
def near_constant_groups(draw):
    """Groups of one value plus a few ulps each, or plus spreads near the 1e-9 location offset."""
    if draw(st.booleans()):
        # a few ulps of a value near 1 leave a log-spread that can round to 0
        v = draw(st.floats(-2.0, 2.0) | st.floats(-1e8, 1e8))
        member = st.integers(0, 8).map(lambda k: v + k * math.ulp(v))
    else:
        v = draw(st.floats(-1e8, 1e8))
        width = draw(st.floats(1e-10, 1e-8))
        member = st.floats(0.0, 1.0).map(lambda u: v + u * width)
    return draw(st.lists(member, min_size=1, max_size=8))


@pytest.mark.filterwarnings("error")
@given(ys=st.one_of(group_values, near_constant_groups()))
@example(ys=[1.0, 1.0 + 2**-52, 1.0 + 2**-52])  # s rounds to 0
def test_gamma_degeneracy_is_the_whole_precondition_of_fit_gamma(ys):
    reason = distributions.gamma_degeneracy(ys)
    try:
        fit_gamma(ys)
    except DegenerateGroup as exc:
        assert reason == str(exc)
    else:
        assert reason is None


@st.composite
def gamma_matrices(draw):
    """A few equal-size groups of shifted, scaled gamma draws, n from 3 to 230."""
    n = draw(st.integers(3, 230))
    shape = draw(st.sampled_from([0.3, 1.0, 2.5, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = 10.0 ** rng.uniform(-3, 3, size=(draw(st.integers(1, 4)), 1))
    return rng.uniform(-100, 100, size=scale.shape) + scale * rng.gamma(shape, size=(len(scale), n))


def assert_rows_fitted_alone(rows):
    params = fit_gamma(rows)
    for field in ("shape", "rate", "location"):
        assert type(getattr(params, field)) is np.ndarray
    for k, row in enumerate(rows):
        own = fit_gamma(row)
        assert type(own.shape) is float
        assert (params.shape[k], params.rate[k], params.location[k]) == (
            own.shape, own.rate, own.location
        )


@pytest.mark.filterwarnings("error")
@given(rows=gamma_matrices())
@example(rows=3.0 + np.random.default_rng(8).gamma(6.0, 0.5, size=(2, 240)))  # profile location
def test_a_gamma_matrix_gets_each_rows_own_fit(rows):
    assert_rows_fitted_alone(rows)


def test_a_fortran_ordered_matrix_gets_each_rows_own_fits():
    # NumPy sums the rows of a column-major matrix in another order, which
    # moves most row means of 200 values by an ulp
    rows = np.asfortranarray(1.0 + np.random.default_rng(9).gamma(1.5, 2.0, size=(30, 200)))
    assert_rows_fitted_alone(rows)
    gaussian = fit_gaussian(rows)
    assert gaussian.mean.tolist() == [fit_gaussian(row).mean for row in rows]
    assert gaussian.variance.tolist() == [fit_gaussian(row).variance for row in rows]


def test_the_matrix_anchor_is_each_groups_own_on_dataset_c_at_d13():
    # math.log and np.log of a row mean differ in about 3 of 10,000 values,
    # so a d=13 dataset tells them apart
    records = generate(GeneratorSpec(NoiseKind.SCALED_GAMMA, d=13, replicates=20, seed=101))
    rows = np.stack([ys for x, ys in group_by_unique_input(records).groups if sum(x)])
    anchors = [a if isinstance(a, tuple) else None for a in distributions._gamma_anchors(rows)]
    assert anchors == [gamma_anchor_reference(row) for row in rows]
    assert None not in anchors


def test_a_gamma_matrix_row_takes_the_profile_location_as_its_own_fit_does(monkeypatch):
    refined = spy(monkeypatch, "_profile_location")
    rows = 3.0 + np.random.default_rng(8).gamma(6.0, 0.5, size=(2, 240))
    assert_rows_fitted_alone(rows)
    # each row once in the matrix and once alone, each moved off the anchor
    assert len(refined) == 4 and None not in refined


# one group that each reason rejects, all of 3 values; the first two need
# no warning to escape from the mean's reduction
DEGENERATE_ROWS = {
    "finite values; their mean is inf": [1e308, 1.5e308, 1.7e308],
    "finite values; their mean is nan": [math.inf, -math.inf, 1.0],
    "spread; all observations are equal": [2.0, 2.0, 2.0],
    "spread above the float resolution of the values": [3e7, 3e7, 3e7 + 3.7e-9],
    "log-spread above 0, got 0.0": [1.0, 1.0 + 2**-52, 1.0 + 2**-52],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reason", DEGENERATE_ROWS)
def test_a_degenerate_matrix_row_is_named(reason):
    rows = np.array([[1.0, 2.0, 4.0], DEGENERATE_ROWS[reason], [0.5, 3.0, 3.5]])
    own = distributions.gamma_degeneracy(rows[1])
    assert own.startswith("gamma fit needs ") and own.endswith(reason)
    assert distributions.gamma_degeneracy(rows) == [None, own, None]
    with pytest.raises(DegenerateGroup) as raised:
        fit_gamma(rows)
    assert str(raised.value) == f"row 1: {own}"


@pytest.mark.filterwarnings("error")
def test_a_matrix_of_two_value_groups_is_degenerate_in_every_row():
    rows = np.array([[1.0, 2.0], [3.0, 5.0]])
    reason = "gamma fit needs at least 3 observations, got 2"
    assert distributions.gamma_degeneracy(rows) == [reason, reason]
    with pytest.raises(DegenerateGroup, match=f"^row 0: {reason}$"):
        fit_gamma(rows)


@pytest.mark.filterwarnings("error")
@given(
    rows=st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.one_of(group_values, near_constant_groups(),
                      st.lists(st.sampled_from([1e308, -1e308, math.inf, math.nan, 1.0]))
                      ).map(lambda ys: (ys * n)[:n]).filter(lambda ys: len(ys) == n),
            min_size=1, max_size=5,
        )
    )
)
def test_gamma_degeneracy_of_a_matrix_is_each_rows_own(rows):
    assert distributions.gamma_degeneracy(rows) == [distributions.gamma_degeneracy(r) for r in rows]


def test_a_matrix_non_convergence_names_its_row(monkeypatch):
    monkeypatch.setattr(distributions, "_shape_mle", lambda s: math.nan if s > 0.3 else 1.0)
    rows = np.array([[1.0, 1.1, 1.2], [1.0, 2.0, 40.0]])
    with pytest.raises(NonConvergence, match="^row 1: gamma fit produced invalid parameters$"):
        fit_gamma(rows)


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
    def test_a_log_spread_that_rounds_to_zero_is_degenerate(self, monkeypatch):
        # at the anchored location log(mean z) - mean(log z) is exactly 0.0,
        # so the likelihood equation has no root
        mle_returns = spy(monkeypatch, "_shape_mle")
        ys = [1.0, 1.0 + 2**-52, 1.0 + 2**-52]
        with pytest.raises(DegenerateGroup, match="log-spread above 0, got 0.0"):
            fit_gamma(ys)
        assert mle_returns == []
        assert distributions.gamma_degeneracy(ys) is not None

    @pytest.mark.filterwarnings("error")
    def test_a_tiny_positive_log_spread_gets_the_mle(self, monkeypatch):
        mle_returns = spy(monkeypatch, "_shape_mle")
        ys = np.array([1.0, 1.0, 1.0 + 2**-52])
        params = fit_gamma(ys)
        (mle,) = mle_returns
        z = ys - params.location
        s = math.log(z.mean()) - float(np.log(z).mean())
        assert s > 0.0
        assert abs(distributions._log_minus_digamma_and_slope(mle)[0] - s) <= 1e-12 * s
        assert params.shape == distributions._shape_bias_correction(mle, 3)

    def test_a_tiny_log_spread_is_solved_in_one_evaluation(self, monkeypatch):
        # s is 3.6e-15, and the closed-form start already solves the equation
        # to the resolution of log(a): the first Newton step rounds onto it
        calls = spy(monkeypatch, "_log_minus_digamma_and_slope")
        fit_gamma([1.0, 1.0, 1.0 + 2**-52])
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_value_is_degenerate_and_named(self):
        ys = [1.0, 2.0, math.nan]
        with pytest.raises(DegenerateGroup, match="finite values; their mean is nan"):
            fit_gamma(ys)
        assert distributions.gamma_degeneracy(ys) == "gamma fit needs finite values; their mean is nan"

    @pytest.mark.parametrize(
        "ys, mean", [([1e308, 1.5e308, 1.7e308], "inf"), ([math.inf, -math.inf, 1.0], "nan")]
    )
    def test_a_mean_that_is_not_finite_is_degenerate_without_a_warning(self, ys, mean):
        # tier-1 turns a RuntimeWarning from the mean's reduce into an error
        with pytest.raises(DegenerateGroup, match=f"their mean is {mean}"):
            fit_gamma(ys)
        assert distributions.gamma_degeneracy(ys).endswith(f"their mean is {mean}")

    def test_non_convergence_on_invalid_final_parameters(self, monkeypatch):
        monkeypatch.setattr(distributions, "_shape_mle", lambda s: math.nan)
        with pytest.raises(NonConvergence, match="invalid parameters") as raised:
            fit_gamma([1.0, 2.0, 4.0])
        assert isinstance(raised.value, DapienError)

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
        warm_t_cache()
        for confidence in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError, match="confidence must"):
                t_quantile(confidence, 20.0)
        for ndf in (0.5, math.nan):
            with pytest.raises(DomainError, match="ndf must"):
                t_quantile(0.95, ndf)

    @pytest.mark.parametrize("ndf", [True, np.bool_(True), "20", None])
    def test_rejects_an_ndf_that_is_not_a_real(self, ndf):
        # True == 1.0 and hashes alike, so only the checks keep it from (0.95, 1.0)
        warm_t_cache()
        with pytest.raises(DomainError, match="not a bool"):
            t_quantile(0.95, ndf)

    def test_newton_cost_and_agreement_with_scipy(self, monkeypatch):
        # bisection took 40-60 CDF evaluations per critical value; Newton
        # from the lower end of the bracket takes at most 10 on this grid.
        # A cached value costs none, so each point is solved cold.
        calls = spy(monkeypatch, "_reg_inc_beta")
        for confidence in T_CONFIDENCES:
            for ndf in T_NDFS:
                distributions._t_critical.cache_clear()
                calls.clear()
                c = t_quantile(confidence, ndf)
                assert 1 <= len(calls) <= 24, (confidence, ndf, len(calls))
                ref = stats.t.ppf(0.5 + 0.5 * confidence, ndf)
                assert abs(c - ref) <= 1e-10 * ref, (confidence, ndf)

    @pytest.mark.parametrize("confidence, ndf", [
        (np.float64(0.95), np.float64(20.0)), (0.95, 20), (0.95, np.int64(20)),
    ])
    def test_cached_value_is_the_cold_value(self, confidence, ndf):
        distributions._t_critical.cache_clear()
        cold = t_quantile(float(confidence), float(ndf))
        distributions._t_critical.cache_clear()
        first = t_quantile(confidence, ndf)
        again = t_quantile(confidence, ndf)
        assert type(first) is type(again) is float
        assert first.hex() == again.hex() == cold.hex()

    def test_cache_is_bounded(self):
        distributions._t_critical.cache_clear()
        bound = distributions._T_CACHE_SIZE
        for ndf in range(1, bound + 51):
            t_quantile(0.95, ndf)
        info = distributions._t_critical.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound and info.misses == bound + 50

    @given(
        confidence=st.floats(0.01, 0.999), ndf=st.floats(1.0, 1e6),
        gap=st.floats(1e-6, 0.5), ratio=st.floats(1.01, 100.0),
    )
    def test_increases_in_confidence_and_decreases_in_ndf(self, confidence, ndf, gap, ratio):
        assume(confidence + gap < 0.999 and ndf * ratio <= 1e6)
        c = t_quantile(confidence, ndf)
        assert t_quantile(confidence + gap, ndf) > c
        assert t_quantile(confidence, ndf * ratio) < c


def test_log_minus_digamma_against_scipy():
    a = np.geomspace(1e-6, 1e3, 2001)
    ref = np.log(a) - digamma(a)
    got = np.array([distributions._log_minus_digamma_and_slope(x)[0] for x in a.tolist()])
    assert np.all(np.abs(got - ref) <= 5e-12 * ref)
    # log(a) - digamma(a) cancels there; the series is 1/(2a) + 1/(12a^2) - ...
    for a in np.geomspace(1e6, 1e300, 60).tolist():
        ref = 0.5 / a + 1.0 / (12.0 * a * a)
        assert abs(distributions._log_minus_digamma_and_slope(a)[0] - ref) <= 1e-15 * ref, a


def test_scaled_trigamma_minus_one_against_scipy():
    a = np.geomspace(1e-6, 1e3, 2001)
    ref = a * polygamma(1, a) - 1.0
    got = np.array([distributions._log_minus_digamma_and_slope(x)[1] for x in a.tolist()])
    assert np.all(np.abs(got - ref) <= 1e-10 * ref)
    # a psi'(a) - 1 cancels there; the series is 1/(2a) + 1/(6a^2) - 1/(30a^4) + ...
    for a in np.geomspace(1e5, 1e150, 60).tolist():
        ref = 0.5 / a + 1.0 / (6.0 * a * a)
        assert abs(distributions._log_minus_digamma_and_slope(a)[1] - ref) <= 1e-13 * ref, a


@given(
    spread=st.floats(2e-6, 12.0),
    draws=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=20),
)
def test_shape_mle_solves_its_equation_inside_its_bracket(spread, draws):
    # log-spreads s of order spread^2, from about 1e-12 to 10
    z = np.exp(spread * np.array([-1.0, 1.0, *draws]))
    s = math.log(z.mean()) - float(np.log(z).mean())
    assume(1e-12 <= s)
    shape = distributions._shape_mle(s)
    assert 0.5 / s < shape < 1.0 / s
    assert abs(distributions._log_minus_digamma_and_slope(shape)[0] - s) <= 1e-12 * s


def test_normal_quantile_against_scipy():
    for p in (1e-300, 1e-10, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1.0 - 1e-12):
        z = distributions._STANDARD_NORMAL.inv_cdf(p)
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
