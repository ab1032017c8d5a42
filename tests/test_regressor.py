"""Affine predictor, exact and conjugate-gradient training, fold assignment."""

import itertools

import numpy as np
import pytest

from dapien.errors import (
    DapienError,
    DimensionMismatch,
    InvalidPrediction,
    InvalidTarget,
    TooFewSamples,
)
from dapien import regressor
from dapien.regressor import (
    L2_GRID,
    Activation,
    HiddenLayerModel,
    LinearModel,
    TrainConfig,
    _conjugate_gradient,
    _solve_ridge,
    child_seed,
    hidden_loss_and_gradient,
    loss_and_gradient,
    model_from_dict,
    predict,
    predict_batch,
    stratified_folds,
    train,
    train_positive,
)


def full_design(d):
    return np.array(list(itertools.product([0, 1], repeat=d)), dtype=float)


class TestPredict:
    def test_identity(self):
        model = LinearModel(np.array([1.0, 1.0, 1.0]), 0.0, Activation.IDENTITY)
        assert predict(model, [1, 0, 1]) == 2.0

    def test_exponential_zero(self):
        model = LinearModel(np.array([0.0, 0.0]), 0.0, Activation.EXPONENTIAL)
        assert predict(model, [1, 1]) == 1.0

    def test_exponential_product(self):
        model = LinearModel(
            np.array([np.log(2.0), np.log(3.0)]), 0.0, Activation.EXPONENTIAL
        )
        assert abs(predict(model, [1, 1]) - 6.0) < 1e-12

    def test_dimension_mismatch(self):
        model = LinearModel(np.array([1.0, 2.0]), 0.0, Activation.IDENTITY)
        with pytest.raises(DimensionMismatch):
            predict(model, [1, 0, 1])

    def test_single_input_matches_its_batch_row(self):
        X = full_design(2)
        for model in (
            LinearModel(np.array([0.5, -1.5]), 0.25, Activation.IDENTITY),
            LinearModel(np.array([0.5, -1.5]), 0.25, Activation.EXPONENTIAL),
            small_hidden_model(lower=1e-9, upper=1e9),
        ):
            batch = predict_batch(model, X)
            for x, want in zip(X, batch):
                assert abs(predict(model, x) - want) <= 1e-14 * abs(want)

    def test_exponential_overflow_is_a_dapien_error(self):
        model = LinearModel(np.array([0.0, 800.0]), 0.0, Activation.EXPONENTIAL)
        assert predict(model, [1, 0]) == 1.0
        with pytest.raises(InvalidPrediction) as caught:
            predict(model, [0, 1])
        assert isinstance(caught.value, DapienError)
        with pytest.raises(InvalidPrediction):
            predict_batch(model, [[1, 0], [0, 1]])


class TestTrain:
    def test_recovers_sum_of_bits(self):
        X = full_design(4)
        t = X.sum(axis=1)
        model = train(X, t, Activation.IDENTITY, TrainConfig(seed=1))
        assert np.all(np.abs(model.weights - 1.0) < 1e-4)
        assert abs(model.bias) < 1e-4

    def test_constant_targets_with_ridge(self):
        X = full_design(4)
        model = train(
            X,
            np.full(16, 7.0),
            Activation.IDENTITY,
            TrainConfig(folds=1, l2_penalty=1e-4, seed=1),
        )
        assert np.all(np.abs(model.weights) < 1e-6)
        assert abs(model.bias - 7.0) < 1e-6

    def test_exponential_recovers_log_linear(self):
        X = full_design(2)
        t = np.exp(X[:, 0])
        model = train(
            X, t, Activation.EXPONENTIAL, TrainConfig(folds=1, l2_penalty=0.0, seed=1)
        )
        assert abs(model.weights[0] - 1.0) < 1e-3
        assert abs(model.weights[1]) < 1e-3
        assert abs(model.bias) < 1e-3

    def test_invalid_target(self):
        with pytest.raises(InvalidTarget):
            train(
                full_design(2),
                [1.0, np.nan, 2.0, 3.0],
                Activation.IDENTITY,
                TrainConfig(seed=0),
            )

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        for d in (2, 5, 8, 10):
            X = full_design(d)
            t = X @ rng.normal(0.0, 1.0, d) + rng.normal()
            model = train(X, t, Activation.IDENTITY, TrainConfig(seed=5))
            A = np.hstack([X, np.ones((X.shape[0], 1))])
            ref = np.linalg.solve(A.T @ A, A.T @ t)
            fitted = np.concatenate([model.weights, [model.bias]])
            assert np.all(np.abs(fitted - ref) < 1e-4)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(60, 5)).astype(float)
        t = rng.normal(2.0, 1.0, 60)
        m1 = train(X, t, Activation.IDENTITY, TrainConfig(seed=9))
        m2 = train(X, t, Activation.IDENTITY, TrainConfig(seed=9))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_exponential_output_positive(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 2, size=(50, 4)).astype(float)
        t = rng.uniform(-1.0, 1.0, 50)  # negatives get floored internally
        model = train(X, t, Activation.EXPONENTIAL, TrainConfig(seed=2))
        for x in full_design(4):
            assert predict(model, x) > 0.0


class TestGradient:
    @pytest.mark.parametrize("activation", list(Activation))
    def test_analytic_matches_central_differences(self, activation):
        rng = np.random.default_rng(17)
        X = rng.integers(0, 2, size=(40, 6)).astype(float)
        t = rng.uniform(0.1, 3.0, 40)
        h = 1e-6
        for _ in range(100):
            w = rng.normal(0.0, 0.5, 6)
            b = float(rng.normal(0.0, 0.5))
            _, gw, gb = loss_and_gradient(w, b, X, t, activation, 1e-3)
            analytic = np.concatenate([gw, [gb]])
            theta = np.concatenate([w, [b]])
            numeric = np.empty_like(theta)
            for i in range(theta.size):
                plus = theta.copy()
                minus = theta.copy()
                plus[i] += h
                minus[i] -= h
                lp, _, _ = loss_and_gradient(plus[:-1], plus[-1], X, t, activation, 1e-3)
                lm, _, _ = loss_and_gradient(minus[:-1], minus[-1], X, t, activation, 1e-3)
                numeric[i] = (lp - lm) / (2.0 * h)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel < 1e-4

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(23)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        t = rng.uniform(0.5, 4.0, 200)
        with np.errstate(over="ignore"):
            _, _, losses = _conjugate_gradient(X, t, 1e-4, 300, 1e-12)
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


class TestExactSolve:
    """Identity-output fits solve the ridge normal equations exactly."""

    @pytest.mark.parametrize("l2", L2_GRID)
    def test_gradient_vanishes_at_solution(self, l2):
        rng = np.random.default_rng(29)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        t = X @ rng.normal(0.0, 1.0, 6) + rng.normal(0.0, 0.3, 200)
        w, b = _solve_ridge(X, t, l2)
        _, gw, gb = loss_and_gradient(w, b, X, t, Activation.IDENTITY, l2)
        assert np.max(np.abs(gw)) < 1e-12 and abs(gb) < 1e-12

    def test_constant_zero_column_gets_zero_weight(self):
        X = full_design(4)
        X[:, 2] = 0.0
        t = X @ np.array([1.0, -2.0, 0.0, 0.5]) + 3.0
        w, b = _solve_ridge(X, t, 0.0)
        assert abs(w[2]) < 1e-12
        assert np.allclose(np.delete(w, 2), [1.0, -2.0, 0.5]) and abs(b - 3.0) < 1e-9

    def test_column_duplicating_the_bias_splits_evenly(self):
        # the minimum-norm solution, which gradient descent from zero reaches
        X = full_design(3)
        X[:, 1] = 1.0
        t = X[:, 0] + 4.0
        w, b = _solve_ridge(X, t, 0.0)
        assert abs(w[1] - 2.0) < 1e-9 and abs(b - 2.0) < 1e-9
        assert abs(w[0] - 1.0) < 1e-9 and abs(w[2]) < 1e-9

    def test_identity_fits_evaluate_no_gradient(self, monkeypatch):
        calls = []
        original = regressor.loss_and_gradient

        def counted(*args):
            calls.append(args[4])
            return original(*args)

        monkeypatch.setattr(regressor, "loss_and_gradient", counted)
        X = full_design(4)
        train(X, X.sum(axis=1), Activation.IDENTITY, TrainConfig(seed=1))
        assert calls == []
        train(X, np.exp(X[:, 0]), Activation.EXPONENTIAL, TrainConfig(seed=1))
        assert set(calls) == {Activation.EXPONENTIAL}


@pytest.mark.parametrize("seed", [303, 7])
def test_child_seed_matches_spawned_children(seed):
    spawned = np.random.SeedSequence(seed).spawn(2)
    for i, child in enumerate(spawned):
        assert child_seed(seed, i) == int(child.generate_state(1, np.uint64)[0])


class TestStratifiedFolds:
    def test_round_robin_by_rank(self):
        folds = stratified_folds(np.arange(1.0, 11.0), 5, seed=0)
        for j in range(5):
            ranks = sorted(np.where(folds == j)[0])
            assert len(ranks) == 2
            assert ranks[1] - ranks[0] == 5

    def test_balanced_on_ties(self):
        folds = stratified_folds(np.zeros(7), 2, seed=1)
        sizes = np.bincount(folds, minlength=2)
        assert abs(int(sizes[0]) - int(sizes[1])) <= 1

    def test_deterministic(self):
        ts = np.random.default_rng(4).normal(size=30)
        assert np.array_equal(
            stratified_folds(ts, 5, seed=77), stratified_folds(ts, 5, seed=77)
        )

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            stratified_folds([1.0, 2.0], 3, seed=0)


def parity_noise_table(d, seed, kind):
    """Group table like dataset A's (noise on odd bit sums) or B's (scaled)."""
    rng = np.random.default_rng(seed)
    X = full_design(d)
    f = X.sum(axis=1)
    draws = rng.normal(0.0, 1.0, (X.shape[0], 20))
    if kind == "A":
        sigma = np.where(f % 2 == 1, 0.2 * draws.std(axis=1, ddof=1), 0.0)
    else:
        sigma = 0.1 * f * draws.std(axis=1, ddof=1)
    held = rng.random(X.shape[0]) < 0.2
    return X, sigma, held


def small_hidden_model(bias=0.0, lower=0.5, upper=2.0):
    return HiddenLayerModel(
        hidden_weights=[[1.0, -1.0], [0.5, 2.0], [-3.0, 0.0]],
        hidden_bias=[0.1, -0.2, 0.3],
        output_weights=[0.7, -0.4, 0.2],
        output_bias=bias,
        lower=lower,
        upper=upper,
    )


class TestHiddenLayerModel:
    def test_output_formula(self):
        model = small_hidden_model(lower=1e-9, upper=1e9)
        x = np.array([1.0, 1.0])
        z = np.tanh(model.hidden_weights @ x + model.hidden_bias) @ model.output_weights
        assert abs(predict(model, x) - np.exp(z)) < 1e-12

    def test_output_clamped_to_training_range(self):
        assert predict(small_hidden_model(bias=1000.0), [1, 0]) == 2.0
        assert predict(small_hidden_model(bias=-1000.0), [1, 0]) == 0.5
        out = predict_batch(small_hidden_model(bias=1000.0), full_design(2))
        assert np.all(out == 2.0)

    def test_rejects_bad_range_and_shapes(self):
        with pytest.raises(ValueError):
            small_hidden_model(lower=0.0)
        with pytest.raises(ValueError):
            small_hidden_model(lower=3.0, upper=2.0)
        with pytest.raises(ValueError):
            HiddenLayerModel([[1.0, 2.0]], [0.0, 0.0], [1.0], 0.0, 0.1, 1.0)

    def test_dict_round_trip(self):
        model = small_hidden_model()
        again = model_from_dict(model.to_dict())
        assert isinstance(again, HiddenLayerModel)
        assert again.to_dict() == model.to_dict()
        linear = LinearModel(np.array([0.5, -1.0]), 0.25, Activation.EXPONENTIAL)
        again = model_from_dict(linear.to_dict())
        assert isinstance(again, LinearModel)
        assert again.to_dict() == linear.to_dict()

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(31)
        units, dim = 4, 5
        U = np.hstack([2.0 * rng.integers(0, 2, size=(40, dim)) - 1.0, np.ones((40, 1))])
        t = rng.uniform(0.05, 2.0, 40)
        h = 1e-6
        for _ in range(20):
            theta = rng.normal(0.0, 0.5, units * (dim + 2) + 1)
            _, analytic = hidden_loss_and_gradient(theta, U, t, units, 1e-3)
            numeric = np.empty_like(theta)
            for i in range(theta.size):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += h
                minus[i] -= h
                lp, _ = hidden_loss_and_gradient(plus, U, t, units, 1e-3)
                lm, _ = hidden_loss_and_gradient(minus, U, t, units, 1e-3)
                numeric[i] = (lp - lm) / (2.0 * h)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel < 1e-6

    def test_overflowing_loss_is_infinite(self):
        U = np.ones((3, 2))
        theta = np.array([0.0, 0.0, 0.0, 1000.0])
        with np.errstate(over="ignore"):
            loss, grad = hidden_loss_and_gradient(theta, U, np.ones(3), 1, 0.0)
        assert loss == np.inf and grad is None


class TestTrainPositive:
    def test_parity_noise_selects_a_hidden_layer_that_separates_held_out_inputs(self):
        X, sigma, held = parity_noise_table(9, 0, "A")
        model = train_positive(X[~held], sigma[~held], TrainConfig(seed=0))
        assert isinstance(model, HiddenLayerModel)
        pred = predict_batch(model, X[held])
        odd = X[held].sum(axis=1) % 2 == 1
        # share of (odd, even) held-out pairs ranked the right way round
        ranked = float(np.mean(pred[odd][:, None] > pred[~odd][None, :]))
        assert ranked > 0.9
        assert np.median(pred[odd]) > 0.12 > 0.06 > np.median(pred[~odd])

    def test_scaled_noise_keeps_the_affine_model(self):
        X, sigma, held = parity_noise_table(9, 0, "B")
        config = TrainConfig(seed=0)
        model = train_positive(X[~held], sigma[~held], config)
        assert isinstance(model, LinearModel)
        affine = train(X[~held], sigma[~held], Activation.EXPONENTIAL, config)
        assert np.array_equal(model.weights, affine.weights)
        assert model.bias == affine.bias

    def test_without_folds_fits_the_affine_model(self):
        X, sigma, _ = parity_noise_table(9, 0, "A")
        config = TrainConfig(folds=1, l2_penalty=1e-4, seed=0)
        model = train_positive(X, sigma, config)
        affine = train(X, sigma, Activation.EXPONENTIAL, config)
        assert isinstance(model, LinearModel)
        assert np.array_equal(model.weights, affine.weights)

    def test_deterministic(self):
        X, sigma, _ = parity_noise_table(9, 1, "A")
        m1 = train_positive(X, sigma, TrainConfig(seed=4))
        m2 = train_positive(X, sigma, TrainConfig(seed=4))
        assert m1.to_dict() == m2.to_dict()
