"""Resampled-ensemble baseline: fitting and interval construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dapien.bootstrap import (
    BootstrapModel,
    bootstrap_fit,
    bootstrap_predict_interval,
    bootstrap_predict_sigma,
)
from dapien.distributions import t_quantile
from dapien.errors import DapienError, EmptyDataset, InvalidPrediction, RaggedFeatures
from dapien.grouping import Sample
from dapien.regressor import (
    Activation,
    LinearModel,
    TrainConfig,
    child_seed,
    predict_batch,
    train,
)
from dapien.synthdata import GeneratorSpec, NoiseKind, SplitSpec, generate, group_split

SILENT = -1000.0  # exp(-1000) underflows to exactly 0: a noiseless noise model


def manual_model(member_biases, noise_bias=SILENT, dim=2):
    members = tuple(
        LinearModel(np.zeros(dim), b, Activation.IDENTITY) for b in member_biases
    )
    noise = LinearModel(np.zeros(dim), noise_bias, Activation.EXPONENTIAL)
    return BootstrapModel(members=members, noise_model=noise, b=len(members))


class TestPredictInterval:
    def test_degenerate_when_members_agree(self):
        model = manual_model([4.0, 4.0, 4.0])
        for conf in (0.5, 0.95, 0.99):
            interval = bootstrap_predict_interval(model, (0, 1), conf)
            assert interval.lower == 4.0 and interval.upper == 4.0

    def test_two_member_spread(self):
        # mu 4, unbiased ensemble variance 2, noise silent: the two error
        # phases add up to sigma 2 and t(0.95, 2) scales it
        model = manual_model([3.0, 5.0])
        interval = bootstrap_predict_interval(model, (0, 0), 0.95)
        half = t_quantile(0.95, 2.0) * 2.0
        assert abs(interval.lower - (4.0 - half)) < 1e-9
        assert abs(interval.upper - (4.0 + half)) < 1e-9
        assert abs(half - 8.60530) < 1e-4

    def test_noise_term_adds_to_sigma(self):
        quiet = manual_model([3.0, 5.0])
        noisy = manual_model([3.0, 5.0], noise_bias=math.log(4.0))
        w_quiet = bootstrap_predict_interval(quiet, (0, 0), 0.95).width
        w_noisy = bootstrap_predict_interval(noisy, (0, 0), 0.95).width
        assert abs(w_noisy / w_quiet - (2.0 + 4.0) / 2.0) < 1e-9

    def test_symmetry_about_ensemble_mean(self):
        model = manual_model([1.0, 2.0, 6.0], noise_bias=0.3)
        mu, _ = bootstrap_predict_sigma(model, (1, 1))
        interval = bootstrap_predict_interval(model, (1, 1), 0.9)
        assert abs((interval.upper - mu) - (mu - interval.lower)) < 1e-10

    def test_sigma_at_least_ensemble_variance(self):
        model = manual_model([0.0, 1.0, 3.0], noise_bias=-2.0)
        preds = np.array([0.0, 1.0, 3.0])
        _, sigma = bootstrap_predict_sigma(model, (0, 0))
        assert sigma >= float(preds.var(ddof=1))


class TestFit:
    def test_minimal_two_sample_ensemble(self):
        samples = [Sample((0,), 1.0), Sample((1,), 2.0)]
        model = bootstrap_fit(samples, b=2, config=TrainConfig(seed=0))
        interval = bootstrap_predict_interval(model, (1,), 0.95)
        assert math.isfinite(interval.lower) and math.isfinite(interval.upper)

    def test_rejects_single_member(self):
        with pytest.raises(ValueError):
            bootstrap_fit([Sample((0,), 1.0)], b=1, config=TrainConfig(seed=0))

    def test_rejects_empty_and_ragged_records(self):
        with pytest.raises(EmptyDataset):
            bootstrap_fit([], b=2, config=TrainConfig(seed=0))
        ragged = [Sample((0, 1), 1.0), Sample((1,), 2.0), Sample((1, 1), 3.0)]
        with pytest.raises(RaggedFeatures):
            bootstrap_fit(ragged, b=2, config=TrainConfig(seed=0))

    def test_matches_fits_to_the_resampled_records(self):
        # the reference fits every member to its resampled record rows, as
        # a fit without the grouping of repeated inputs does; without model
        # selection, where folds would deal inputs rather than records
        samples = generate(
            GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=6, replicates=8, seed=12)
        )
        config = TrainConfig(folds=1, seed=13)
        model = bootstrap_fit(samples, b=6, config=config)
        X = np.array([s.x for s in samples], dtype=float)
        y = np.array([s.y for s in samples])
        members = []
        for i, got in enumerate(model.members):
            seed = child_seed(config.seed, i)
            idx = np.random.default_rng(seed).integers(0, y.size, y.size)
            want = train(
                X[idx], y[idx], Activation.IDENTITY, replace(config, seed=seed)
            )
            assert np.max(np.abs(got.weights - want.weights)) <= 1e-9
            assert abs(got.bias - want.bias) <= 1e-9
            members.append(want)
        preds = np.stack([predict_batch(m, X) for m in members])
        residual_sq = np.maximum(
            0.0, (y - preds.mean(axis=0)) ** 2 - preds.var(axis=0, ddof=1)
        )
        want = train(
            X,
            residual_sq,
            Activation.EXPONENTIAL,
            replace(config, seed=child_seed(config.seed, 6)),
        )
        want_theta = np.append(want.weights, want.bias)
        got_theta = np.append(model.noise_model.weights, model.noise_model.bias)
        worst = np.max(np.abs(got_theta - want_theta))
        assert worst <= 1e-6 * np.max(np.abs(want_theta))

    def test_deterministic(self):
        samples = generate(
            GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=4, replicates=6, seed=1)
        )
        m1 = bootstrap_fit(samples, b=4, config=TrainConfig(seed=11))
        m2 = bootstrap_fit(samples, b=4, config=TrainConfig(seed=11))
        for a, b in zip(m1.members, m2.members):
            assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
        assert np.array_equal(m1.noise_model.weights, m2.noise_model.weights)

    def test_noiseless_groups_give_vanishing_errors(self):
        # even-signal groups of the conditional-noise benchmark are exactly
        # noiseless, so both error phases should collapse
        samples = generate(
            GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=8, replicates=20, seed=2)
        )
        even = [s for s in samples if sum(s.x) % 2 == 0]
        train, test = group_split(even, SplitSpec(test_fraction=0.25, seed=3))
        model = bootstrap_fit(train, b=20, config=TrainConfig(seed=4))
        for x in sorted({s.x for s in test})[:10]:
            mu, sigma = bootstrap_predict_sigma(model, x)
            assert sigma < 1e-3

    def test_width_shrinks_with_large_ensembles_on_noiseless_data(self):
        samples = generate(
            GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=8, replicates=20, seed=5)
        )
        even = [s for s in samples if sum(s.x) % 2 == 0]
        train, test = group_split(even, SplitSpec(test_fraction=0.25, seed=6))
        model = bootstrap_fit(train, b=50, config=TrainConfig(seed=7))
        widths = [
            bootstrap_predict_interval(model, x, 0.95).width
            for x in sorted({s.x for s in test})
        ]
        assert max(widths) < 0.05


def test_noise_model_overflow_is_a_dapien_error():
    # exp(800) overflows a float: no silent (-inf, inf) interval
    model = manual_model([1.0, 2.0])
    broken = BootstrapModel(
        members=model.members,
        noise_model=LinearModel(np.array([0.0, 800.0]), 0.0, Activation.EXPONENTIAL),
        b=2,
    )
    assert bootstrap_predict_interval(broken, (1, 0), 0.95).width > 0.0
    with pytest.raises(InvalidPrediction) as caught:
        bootstrap_predict_interval(broken, (0, 1), 0.95)
    assert isinstance(caught.value, DapienError)


def test_rejects_a_member_count_other_than_b():
    doc = manual_model([1.0, 2.0, 3.0]).to_dict()
    for b in (2, 4):
        with pytest.raises(ValueError, match=f"got 3 of b={b}"):
            BootstrapModel.from_dict({**doc, "b": b})
    one = manual_model([1.0, 2.0])
    with pytest.raises(ValueError, match="got 1 of b=1"):
        BootstrapModel(members=one.members[:1], noise_model=one.noise_model, b=1)


def test_rejects_foreign_and_unsupported_documents():
    doc = manual_model([1.0, 2.0]).to_dict()
    assert BootstrapModel.from_dict(doc).to_dict() == doc
    with pytest.raises(ValueError, match="not a bootstrap-model"):
        BootstrapModel.from_dict({**doc, "format": "dapien-model"})
    with pytest.raises(ValueError, match="unsupported version"):
        BootstrapModel.from_dict({**doc, "version": 2})


def test_serialization_round_trip(tmp_path):
    samples = generate(GeneratorSpec(noise=NoiseKind.SCALED_WHITE, d=3, replicates=5, seed=8))
    model = bootstrap_fit(samples, b=3, config=TrainConfig(seed=9))
    path = tmp_path / "bootstrap.json"
    model.save(path)
    loaded = BootstrapModel.load(path)
    x = (1, 0, 1)
    assert bootstrap_predict_interval(loaded, x, 0.95) == bootstrap_predict_interval(
        model, x, 0.95
    )
