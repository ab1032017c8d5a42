"""One prediction path: a matrix of inputs gets the answers of its rows.

Every public prediction function takes one input vector or a (n, d)
matrix through the same code.  A matrix product rounds differently from a
vector product, so rows and batches agree to 1e-12 relative, not bit for
bit.
"""

import itertools
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapien.bootstrap import bootstrap_fit, bootstrap_predict_interval, bootstrap_predict_sigma
from dapien.distributions import DistFamily
from dapien.errors import DimensionMismatch
from dapien.pipeline import (
    dapien_fit,
    dapien_predict_interval,
    dapien_predict_point,
    predict_params,
)
from dapien.regressor import TrainConfig, predict
from dapien.synthdata import GeneratorSpec, NoiseKind, generate

D = 5
BITS = np.array(list(itertools.product([0, 1], repeat=D)), dtype=np.float64)
CONFIG = TrainConfig(max_iterations=100, folds=3, seed=11)


def samples(noise):
    return generate(GeneratorSpec(noise=noise, d=D, replicates=8, seed=5))


def dapien_answers(model, x, confidence):
    """Parameters, then (lower, point, upper)."""
    interval = dapien_predict_interval(model, x, confidence)
    point = dapien_predict_point(model, x)
    return (*astuple(predict_params(model, x)), interval.lower, point, interval.upper)


def bootstrap_answers(model, x, confidence):
    """(mu, sigma), then (lower, point, upper)."""
    mu, sigma = bootstrap_predict_sigma(model, x)
    interval = bootstrap_predict_interval(model, x, confidence)
    return mu, sigma, interval.lower, mu, interval.upper


def fit(kind):
    """(model, its answers, its public prediction functions, its regressors)."""
    if kind == "bootstrap":
        model = bootstrap_fit(samples(NoiseKind.SCALED_WHITE), 4, CONFIG)
        functions = (
            bootstrap_predict_sigma,
            partial(bootstrap_predict_interval, confidence=0.9),
        )
        return model, bootstrap_answers, functions, (*model.members, model.noise_model)
    if kind == "gaussian":
        model = dapien_fit(samples(NoiseKind.SCALED_WHITE), DistFamily.GAUSSIAN, CONFIG)
    else:
        gamma_samples = [s for s in samples(NoiseKind.SCALED_GAMMA) if sum(s.x) > 0]
        model = dapien_fit(gamma_samples, DistFamily.GAMMA, CONFIG)
    functions = (
        predict_params,
        dapien_predict_point,
        partial(dapien_predict_interval, confidence=0.9),
    )
    return model, dapien_answers, functions, model.param_models


@pytest.fixture(scope="module", params=["gaussian", "gamma", "bootstrap"])
def fitted(request):
    return fit(request.param)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.integers(0, 2**D - 1), min_size=1, max_size=12),
    confidence=st.sampled_from([0.8, 0.95, 0.99]),
)
def test_a_batch_gets_the_answers_of_its_rows(fitted, rows, confidence):
    model, answers, _, regressors = fitted
    X = BITS[rows]
    batch = answers(model, X, confidence)
    singles = [answers(model, x, confidence) for x in X]
    for column, want in zip(batch, zip(*singles)):
        assert column.shape == (len(rows),)
        np.testing.assert_allclose(column, want, rtol=1e-12, atol=0.0)
    lower, point, upper = batch[-3:]
    assert np.all(lower <= point) and np.all(point <= upper)
    # one vector's values reach the scalar quantile code as Python floats
    for m in regressors:
        assert type(predict(m, X[0])) is float
    if answers is dapien_answers:
        assert all(type(v) is float for v in astuple(predict_params(model, X[0])))


@pytest.mark.parametrize("shape", [(), (2, 3, D), (4, D + 1)])
def test_other_input_shapes_are_dimension_mismatches(fitted, shape):
    model, _, functions, _ = fitted
    for function in functions:
        with pytest.raises(DimensionMismatch):
            function(model, np.zeros(shape))
