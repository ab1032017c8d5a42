"""Affine and hidden-layer predictors, exact and L-BFGS training, fold assignment."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _affine_objective,
    _held_out_error,
    _lbfgs,
    _normal_equations,
    _solve_ridge,
    _sum_cells,
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

    def test_constant_targets(self):
        X = full_design(4)
        model = train(
            X,
            np.full(16, 7.0),
            Activation.IDENTITY,
            TrainConfig(folds=1, seed=1),
        )
        assert np.all(np.abs(model.weights) < 1e-6)
        assert abs(model.bias - 7.0) < 1e-6

    def test_exponential_recovers_log_linear(self):
        X = full_design(2)
        t = np.exp(X[:, 0])
        model = train(X, t, Activation.EXPONENTIAL, TrainConfig(folds=1, seed=1))
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
        losses = lbfgs_losses(X, t, np.ones(200), 1e-4)
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))

    def test_weighted_loss_non_increasing(self):
        rng = np.random.default_rng(23)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        t = rng.uniform(0.5, 4.0, 200)
        c = rng.integers(1, 20, 200).astype(float)
        losses = lbfgs_losses(X, t, c, 1e-4)
        assert len(set(losses)) > 10
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_exponential_fit_stops_when_no_step_decreases(self, monkeypatch, weighted):
        # a fit that accepted zero-length steps would run all 500 iterations,
        # 13k evaluations with unit weights; it stops after a few dozen
        rng = np.random.default_rng(23)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        t = rng.uniform(0.5, 4.0, 200)
        c = rng.integers(1, 20, 200) if weighted else np.ones(200, dtype=np.int64)
        rows = np.repeat(np.arange(200), c)
        calls = count_gradient_calls(monkeypatch)
        config = TrainConfig(folds=1, seed=1)
        train(X, np.repeat(t, c), Activation.EXPONENTIAL, config, rows=rows)
        assert 0 < len(calls) < 500

    def test_exhausted_backtracking_returns_the_start(self):
        # no step along the descent direction lowers the loss: the line
        # search gives up after its last backtrack, and so does the fit
        calls = []
        theta0 = np.zeros(2)

        def objective(theta):
            calls.append(theta)
            return (1.0 if theta.any() else 0.0), np.array([1.0, 0.0])

        got = _lbfgs(objective, theta0, 500)
        assert len(calls) == 1 + regressor._MAX_BACKTRACKS == 61
        assert np.array_equal(got, theta0)


def lbfgs_losses(X, t, c, l2, max_iterations=60):
    """Exponential-output loss after k L-BFGS iterations from zero, k = 0, 1, ..."""
    objective = _affine_objective(X, t, c, Activation.EXPONENTIAL, l2)
    theta0 = np.zeros(X.shape[1] + 1)
    return [objective(_lbfgs(objective, theta0, k))[0] for k in range(max_iterations + 1)]


def count_gradient_calls(monkeypatch):
    """Record the activation of every ``regressor.loss_and_gradient`` call."""
    calls = []
    original = regressor.loss_and_gradient

    def counted(*args):
        calls.append(args[4])
        return original(*args)

    monkeypatch.setattr(regressor, "loss_and_gradient", counted)
    return calls


def solve_ridge(X, t, l2):
    """Exact identity-output fit to unweighted rows, as ``train`` makes it."""
    G, rhs = _normal_equations(X, np.ones(t.size), t)
    return _solve_ridge(G, rhs, t.size * l2)


class TestExactSolve:
    """Identity-output fits solve the ridge normal equations exactly."""

    @pytest.mark.parametrize("l2", L2_GRID)
    def test_gradient_vanishes_at_solution(self, l2):
        rng = np.random.default_rng(29)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        t = X @ rng.normal(0.0, 1.0, 6) + rng.normal(0.0, 0.3, 200)
        w, b = solve_ridge(X, t, l2)
        _, gw, gb = loss_and_gradient(w, b, X, t, Activation.IDENTITY, l2)
        assert np.max(np.abs(gw)) < 1e-12 and abs(gb) < 1e-12

    def test_constant_zero_column_gets_zero_weight(self):
        X = full_design(4)
        X[:, 2] = 0.0
        t = X @ np.array([1.0, -2.0, 0.0, 0.5]) + 3.0
        w, b = solve_ridge(X, t, 0.0)
        assert abs(w[2]) < 1e-12
        assert np.allclose(np.delete(w, 2), [1.0, -2.0, 0.5]) and abs(b - 3.0) < 1e-9

    def test_column_duplicating_the_bias_splits_evenly(self):
        # the minimum-norm solution, which gradient descent from zero reaches
        X = full_design(3)
        X[:, 1] = 1.0
        t = X[:, 0] + 4.0
        w, b = solve_ridge(X, t, 0.0)
        assert abs(w[1] - 2.0) < 1e-9 and abs(b - 2.0) < 1e-9
        assert abs(w[0] - 1.0) < 1e-9 and abs(w[2]) < 1e-9

    def test_identity_fits_evaluate_no_gradient(self, monkeypatch):
        calls = count_gradient_calls(monkeypatch)
        X = full_design(4)
        train(X, X.sum(axis=1), Activation.IDENTITY, TrainConfig(seed=1))
        assert calls == []
        train(X, np.exp(X[:, 0]), Activation.EXPONENTIAL, TrainConfig(seed=1))
        assert set(calls) == {Activation.EXPONENTIAL}


def central_difference_gradient(objective, theta, h=1e-6):
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        numeric[i] = (objective(plus) - objective(minus)) / (2.0 * h)
    return numeric


class TestWeightedObjective:
    """``loss_and_gradient`` over rows weighted by record counts."""

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(37)
        X = rng.integers(0, 2, size=(40, 6)).astype(float)
        t = rng.uniform(0.1, 3.0, 40)
        c = rng.integers(1, 9, 40).astype(float)
        for _ in range(50):
            theta = rng.normal(0.0, 0.5, 7)
            objective = _affine_objective(X, t, c, Activation.EXPONENTIAL, 1e-3)
            analytic = objective(theta)[1]
            numeric = central_difference_gradient(lambda th: objective(th)[0], theta)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel < 1e-6

    def test_unit_weights_give_the_unweighted_objective(self):
        rng = np.random.default_rng(41)
        X = rng.integers(0, 2, size=(40, 6)).astype(float)
        t = rng.uniform(0.1, 3.0, 40)
        for _ in range(20):
            w, b = rng.normal(0.0, 0.5, 6), float(rng.normal(0.0, 0.5))
            loss, gw, gb = loss_and_gradient(
                w, b, X, t, Activation.EXPONENTIAL, 1e-3, weights=np.ones(40)
            )
            ref_loss, ref_gw, ref_gb = loss_and_gradient(
                w, b, X, t, Activation.EXPONENTIAL, 1e-3
            )
            assert loss == ref_loss and gb == ref_gb
            assert np.array_equal(gw, ref_gw)

    def test_counts_stand_for_repeated_rows(self):
        # a cell of c records with mean target m: the same gradient as the
        # records themselves, and a loss lower by their spread around m
        rng = np.random.default_rng(43)
        U = rng.integers(0, 2, size=(6, 4)).astype(float)
        rows = rng.integers(0, 6, 50)
        t = rng.uniform(0.1, 3.0, 50)
        cells = _sum_cells(U, t, Activation.IDENTITY, rows)
        w, b = rng.normal(0.0, 0.5, 4), 0.3
        loss, gw, gb = loss_and_gradient(
            w, b, cells.inputs, cells.mean, Activation.EXPONENTIAL, 1e-3,
            weights=cells.count,
        )
        ref_loss, ref_gw, ref_gb = loss_and_gradient(
            w, b, U[rows], t, Activation.EXPONENTIAL, 1e-3
        )
        assert loss + cells.spread.sum() / 50 == pytest.approx(ref_loss, rel=1e-12)
        assert np.allclose(gw, ref_gw, rtol=1e-12, atol=1e-14)
        assert gb == pytest.approx(ref_gb, rel=1e-12)


@st.composite
def repeated_inputs(draw, max_dim=5):
    """Distinct binary inputs ``U`` and a shuffled record-to-input index.

    ``U`` holds the zero vector, the unit vectors (3-8 records each) and
    up to 8 other inputs (1-8 records each).
    """
    d = draw(st.integers(1, max_dim))
    base = [0] + [1 << i for i in range(d)]
    other = st.integers(0, 2**d - 1).filter(lambda c: c not in base)
    others = draw(st.lists(other, max_size=8, unique=True))
    codes = base + others
    U = np.array([[(c >> i) & 1 for i in range(d)] for c in codes], dtype=float)
    counts = [draw(st.integers(3, 8)) for _ in base]
    counts += [draw(st.integers(1, 8)) for _ in others]
    rows = draw(st.permutations(np.repeat(np.arange(len(codes)), counts).tolist()))
    return U, np.array(rows)


def targets(n, low, high):
    return st.lists(
        st.floats(low, high, allow_nan=False), min_size=n, max_size=n
    ).map(np.array)


class TestTrainOnRows:
    """``train(U, t, rows=g)`` is ``train(U[g], t)`` without model selection,
    however inputs repeat; with it, folds deal whole inputs."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_identity_matches_the_records_fit(self, data):
        U, rows = data.draw(repeated_inputs())
        t = data.draw(targets(rows.size, -3.0, 3.0))
        config = TrainConfig(folds=1, seed=3)
        cells = train(U, t, Activation.IDENTITY, config, rows=rows)
        records = train(U[rows], t, Activation.IDENTITY, config)
        assert np.all(np.abs(cells.weights - records.weights) <= 1e-9)
        assert abs(cells.bias - records.bias) <= 1e-9

    @settings(max_examples=25)
    @given(data=st.data())
    def test_exponential_matches_the_records_fit(self, data):
        U, rows = data.draw(repeated_inputs())
        t = data.draw(targets(rows.size, 0.1, 5.0))
        config = TrainConfig(folds=1, seed=3)
        cells = train(U, t, Activation.EXPONENTIAL, config, rows=rows)
        records = train(U[rows], t, Activation.EXPONENTIAL, config)
        want = np.append(records.weights, records.bias)
        got = np.append(cells.weights, cells.bias)
        assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want)))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_cell_error_is_the_records_mean_error(self, data):
        U, rows = data.draw(repeated_inputs())
        t = data.draw(targets(rows.size, -50.0, 50.0))
        output = data.draw(targets(U.shape[0], -50.0, 50.0))
        cells = _sum_cells(U, t, Activation.IDENTITY, rows)
        assert np.array_equal(cells.inputs, U)  # every input has records
        got = _held_out_error(output, cells)
        want = float(np.mean((output[rows] - t) ** 2))
        assert abs(got - want) <= 1e-12 * max(want, 1e-300)

    def test_tied_ridge_strengths_keep_the_first(self):
        # records of one repeated input: ridge 0 (minimum norm) and a
        # positive ridge fit the same outputs with different weights, and
        # every fold's held-out errors tie; rounding must not choose between
        # them, so the fit is the unselected one
        rng = np.random.default_rng(47)
        U = np.array([[1.0]])
        for _ in range(100):
            t = rng.uniform(-3.0, 3.0, int(rng.integers(5, 9)))
            rows = np.zeros(t.size, dtype=np.int64)
            unselected = train(
                U, t, Activation.IDENTITY, TrainConfig(folds=1, seed=0), rows=rows
            )
            records = train(U[rows], t, Activation.IDENTITY, TrainConfig(folds=5, seed=0))
            assert abs(unselected.weights[0] - records.weights[0]) <= 1e-9
            assert abs(unselected.bias - records.bias) <= 1e-9

    @pytest.mark.parametrize("activation", list(Activation))
    def test_folds_deal_whole_inputs(self, monkeypatch, activation):
        # every fold fit trains on the cells of all inputs but one fold's;
        # with folds dealt over records, each input would sit in every one
        rng = np.random.default_rng(53)
        U = full_design(4)
        rows = rng.permutation(np.repeat(np.arange(16), rng.integers(2, 7, 16)))
        t = rng.uniform(0.5, 3.0, rows.size)
        trained_on = []
        original = regressor._ridge_fits

        def spy(cells, activation, config):
            trained_on.append(cells.inputs)
            return original(cells, activation, config)

        monkeypatch.setattr(regressor, "_ridge_fits", spy)
        train(U, t, activation, TrainConfig(folds=5, seed=0), rows=rows)
        *fold_fits, refit = trained_on
        assert len(fold_fits) == 5 and np.array_equal(refit, U)
        for u in U:
            absent = [not (X == u).all(axis=1).any() for X in fold_fits]
            assert sum(absent) == 1

    def test_a_non_matrix_input_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            train([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], Activation.IDENTITY, TrainConfig())

    def test_exponential_targets_are_floored_per_record(self):
        # each record is floored before the cell averages it: a cell holding
        # -1 and 3 has mean target 1.5, not 1
        U = full_design(2)
        rows = np.array([0, 0, 1, 2, 3, 3, 1, 2])
        t = np.array([-1.0, 3.0, 0.5, 1.0, 2.0, -4.0, 0.7, 1.2])
        config = TrainConfig(folds=1, seed=0)
        got = train(U, t, Activation.EXPONENTIAL, config, rows=rows)
        floored = train(
            U, np.maximum(t, 1e-9), Activation.EXPONENTIAL, config, rows=rows
        )
        assert got.to_dict() == floored.to_dict()

    @pytest.mark.parametrize(
        "rows",
        [
            [0, 1, 4, 2],  # past the last input
            [0, -1, 2, 3],  # negative
            [0, 1, 2],  # one index short
            [[0, 1], [2, 3]],  # not one index per target
            [0.0, 1.0, 2.0, 3.0],  # not integers
        ],
    )
    def test_bad_rows_are_a_dimension_mismatch(self, rows):
        U = full_design(2)
        with pytest.raises(DimensionMismatch):
            train(U, [1.0, 2.0, 3.0, 4.0], Activation.IDENTITY, TrainConfig(), rows)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_fold_raises(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            stratified_folds([1.0, 2.0, 3.0], k, seed=1)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2"])
    def test_a_fold_count_that_is_not_an_integer_raises(self, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            stratified_folds([1.0, 2.0, 3.0, 4.0, 5.0], k, seed=0)

    def test_a_numpy_integer_fold_count_is_accepted(self):
        ts = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert stratified_folds(ts, np.int64(3), seed=0).tolist() == stratified_folds(ts, 3, seed=0).tolist()


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
        config = TrainConfig(folds=1, seed=0)
        model = train_positive(X, sigma, config)
        affine = train(X, sigma, Activation.EXPONENTIAL, config)
        assert isinstance(model, LinearModel)
        assert np.array_equal(model.weights, affine.weights)

    def test_deterministic(self):
        X, sigma, _ = parity_noise_table(9, 1, "A")
        m1 = train_positive(X, sigma, TrainConfig(seed=4))
        m2 = train_positive(X, sigma, TrainConfig(seed=4))
        assert m1.to_dict() == m2.to_dict()


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["max_iterations", "folds"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2"])
    def test_a_count_that_is_not_an_integer_raises(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iterations", "folds"])
    @pytest.mark.parametrize("value", [0, -1, np.int64(0)])
    def test_a_count_below_one_raises(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_train_as_ints_do(self):
        rng = np.random.default_rng(6)
        X = rng.integers(0, 2, size=(40, 3)).astype(np.float64)
        t = np.exp(X @ [0.5, -0.3, 0.2] + rng.normal(0.0, 0.1, size=40))
        ints = TrainConfig(max_iterations=40, folds=3, seed=2)
        numpy_ints = TrainConfig(max_iterations=np.int64(40), folds=np.int64(3), seed=2)
        fits = [train(X, t, Activation.EXPONENTIAL, c).to_dict() for c in (numpy_ints, ints)]
        assert fits[0] == fits[1]
