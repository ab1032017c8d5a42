"""End-to-end behaviour of the distribution-adaptive interval pipeline."""

import json
import math
import re
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from dapien import pipeline
from dapien.bootstrap import BootstrapModel
from dapien.distributions import DistFamily
from dapien.errors import DapienError, DimensionMismatch, DomainError, InvalidPrediction
from dapien.grouping import Sample
from dapien.pipeline import (
    DapienModel,
    PredictionInterval,
    dapien_fit,
    dapien_predict_interval,
    dapien_predict_point,
    predict_params,
)
from dapien.regressor import Activation, HiddenLayerModel, LinearModel, TrainConfig
from dapien.synthdata import GeneratorSpec, NoiseKind, SplitSpec, generate, group_split


def constant_gaussian_model(mean, sigma, ndf=20.0, dim=3):
    return DapienModel(
        family=DistFamily.GAUSSIAN,
        param_models=(
            LinearModel(np.zeros(dim), mean, Activation.IDENTITY),
            LinearModel(np.zeros(dim), math.log(sigma), Activation.EXPONENTIAL),
        ),
        ndf=ndf,
    )


def constant_gamma_model(shape, rate, location, dim=3):
    return DapienModel(
        family=DistFamily.GAMMA,
        param_models=(
            LinearModel(np.zeros(dim), math.log(shape), Activation.EXPONENTIAL),
            LinearModel(np.zeros(dim), math.log(rate), Activation.EXPONENTIAL),
            LinearModel(np.zeros(dim), location, Activation.IDENTITY),
        ),
    )


class TestPredictInterval:
    def test_gaussian_t_interval(self):
        model = constant_gaussian_model(5.0, 0.2, ndf=20.0)
        interval = dapien_predict_interval(model, (0, 0, 0), 0.95)
        assert abs(interval.lower - 4.58281) < 1e-4
        assert abs(interval.upper - 5.41719) < 1e-4

    def test_gamma_shifted_exponential(self):
        model = constant_gamma_model(1.0, 1.0, 10.0)
        interval = dapien_predict_interval(model, (1, 0, 1), 0.95)
        assert abs(interval.lower - 10.02532) < 1e-4
        assert abs(interval.upper - 13.68888) < 1e-4

    def test_nesting_in_confidence(self):
        for model in (
            constant_gaussian_model(1.0, 0.7),
            constant_gamma_model(2.0, 0.5, -1.0),
        ):
            narrow = dapien_predict_interval(model, (1, 1, 0), 0.95)
            wide = dapien_predict_interval(model, (1, 1, 0), 0.99)
            assert wide.lower < narrow.lower
            assert wide.upper > narrow.upper

    def test_gaussian_symmetry_about_mean(self):
        model = constant_gaussian_model(-3.0, 1.1)
        interval = dapien_predict_interval(model, (0, 1, 0), 0.9)
        mean = dapien_predict_point(model, (0, 1, 0))
        assert abs((interval.upper - mean) - (mean - interval.lower)) < 1e-10

    def test_gamma_interval_contains_point_near_unit_shape(self):
        model = constant_gamma_model(1.05, 0.4, 2.0)
        interval = dapien_predict_interval(model, (0, 0, 1), 0.95)
        point = dapien_predict_point(model, (0, 0, 1))
        assert interval.lower < point < interval.upper

    def test_domain_and_dimension_errors(self):
        model = constant_gaussian_model(0.0, 1.0)
        with pytest.raises(DomainError):
            dapien_predict_interval(model, (0, 0, 0), 1.0)
        with pytest.raises(DimensionMismatch):
            dapien_predict_interval(model, (0, 0), 0.95)

    def test_unusable_predicted_parameters_are_dapien_errors(self):
        # exp(800) overflows a float; exp(400) does not, but its square does;
        # exp(-800) underflows to a rate of exactly 0
        for model in (
            constant_gaussian_model(0.0, 1.0, dim=2),
            constant_gamma_model(1.0, 1.0, 0.0, dim=2),
        ):
            big = LinearModel(np.array([0.0, 800.0]), 0.0, Activation.EXPONENTIAL)
            models = list(model.param_models)
            models[1] = big
            broken = DapienModel(model.family, tuple(models), model.ndf)
            assert dapien_predict_interval(broken, (1, 0), 0.95).width > 0.0
            with pytest.raises(InvalidPrediction) as caught:
                dapien_predict_interval(broken, (0, 1), 0.95)
            assert isinstance(caught.value, DapienError)
        squared = DapienModel(
            DistFamily.GAUSSIAN,
            (
                LinearModel(np.zeros(1), 0.0, Activation.IDENTITY),
                LinearModel(np.zeros(1), 400.0, Activation.EXPONENTIAL),
            ),
            ndf=5.0,
        )
        vanishing = DapienModel(
            DistFamily.GAMMA,
            (
                LinearModel(np.zeros(1), 0.0, Activation.EXPONENTIAL),
                LinearModel(np.zeros(1), -800.0, Activation.EXPONENTIAL),
                LinearModel(np.zeros(1), 0.0, Activation.IDENTITY),
            ),
        )
        for model in (squared, vanishing):
            with pytest.raises(InvalidPrediction):
                predict_params(model, (1,))


class TestPredictPoint:
    def test_gaussian_mean(self):
        assert dapien_predict_point(constant_gaussian_model(5.0, 0.3), (0, 1, 1)) == 5.0

    def test_gamma_exponential_mean(self):
        point = dapien_predict_point(constant_gamma_model(1.0, 1.0, 10.0), (0, 0, 0))
        assert abs(point - 11.0) < 1e-9

    def test_gamma_shape_over_rate(self):
        point = dapien_predict_point(constant_gamma_model(4.0, 2.0, 0.0), (0, 0, 0))
        assert abs(point - 2.0) < 1e-9


class TestFit:
    def test_constant_targets_degenerate_interval(self):
        samples = [
            Sample(x, 5.0)
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]
            for _ in range(4)
        ]
        model = dapien_fit(samples, DistFamily.GAUSSIAN, TrainConfig(seed=0))
        for conf in (0.5, 0.95, 0.99):
            interval = dapien_predict_interval(model, (0, 1), conf)
            assert abs(interval.lower - 5.0) < 1e-6
            assert abs(interval.upper - 5.0) < 1e-6

    def test_dataset_a_mean_model_recovers_signal(self):
        samples = generate(
            GeneratorSpec(noise=NoiseKind.CONDITIONAL_WHITE, d=10, replicates=20, seed=21)
        )
        train, _ = group_split(samples, SplitSpec(test_fraction=0.2, seed=22))
        model = dapien_fit(train, DistFamily.GAUSSIAN, TrainConfig(seed=23))
        mean_model = model.param_models[0]
        # the signal is exactly linear, so least squares recovers it
        assert np.all(np.abs(mean_model.weights - 1.0) < 0.01)
        assert abs(mean_model.bias) < 0.01
        assert model.ndf == 20.0

    def test_dataset_c_parameter_recovery(self):
        samples = generate(
            GeneratorSpec(noise=NoiseKind.SCALED_GAMMA, d=10, replicates=20, seed=31)
        )
        train, test = group_split(samples, SplitSpec(test_fraction=0.2, seed=32))
        train = [s for s in train if sum(s.x) > 0]
        model = dapien_fit(train, DistFamily.GAMMA, TrainConfig(seed=33))
        loc_err, shape_err = [], []
        for x in {s.x for s in test}:
            f = sum(x)
            if f == 0:
                continue
            params = predict_params(model, x)
            loc_err.append(abs(params.location - f) / f)
            shape_err.append(abs(params.shape - 1.0))
        assert float(np.median(loc_err)) < 0.15
        assert float(np.median(shape_err)) < 0.15

    def test_fit_deterministic(self):
        # scaled noise keeps the affine sigma model, parity noise (d=9) picks
        # the hidden layer; to_dict holds every parameter of either type
        kinds = []
        for noise, d in ((NoiseKind.SCALED_WHITE, 5), (NoiseKind.CONDITIONAL_WHITE, 9)):
            samples = generate(GeneratorSpec(noise=noise, d=d, replicates=8, seed=41))
            m1 = dapien_fit(samples, DistFamily.GAUSSIAN, TrainConfig(seed=7))
            m2 = dapien_fit(samples, DistFamily.GAUSSIAN, TrainConfig(seed=7))
            assert m1.to_dict() == m2.to_dict()
            kinds.append(type(m1.param_models[1]))
        assert kinds == [LinearModel, HiddenLayerModel]


class TestSerialization:
    def test_round_trip_gaussian(self, tmp_path):
        model = constant_gaussian_model(2.5, 0.7, ndf=12.5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = DapienModel.load(path)
        assert loaded.family is DistFamily.GAUSSIAN
        assert loaded.ndf == 12.5
        x = (1, 0, 1)
        assert dapien_predict_interval(loaded, x, 0.9) == dapien_predict_interval(
            model, x, 0.9
        )

    def test_round_trip_gamma(self, tmp_path):
        model = constant_gamma_model(1.4, 0.6, -2.0)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = DapienModel.load(path)
        x = (0, 1, 1)
        assert dapien_predict_interval(loaded, x, 0.95) == dapien_predict_interval(
            model, x, 0.95
        )

    def test_round_trip_hidden_layer_sigma(self, tmp_path):
        hidden = HiddenLayerModel(
            hidden_weights=[[1.5, -0.5, 2.0], [-1.0, 1.0, 0.5]],
            hidden_bias=[0.2, -0.3],
            output_weights=[1.2, -0.8],
            output_bias=-1.5,
            lower=0.01,
            upper=0.4,
        )
        model = DapienModel(
            family=DistFamily.GAUSSIAN,
            param_models=(
                LinearModel(np.array([1.0, 1.0, 1.0]), 0.5, Activation.IDENTITY),
                hidden,
            ),
            ndf=20.0,
        )
        path = tmp_path / "model.json"
        model.save(path)
        loaded = DapienModel.load(path)
        assert isinstance(loaded.param_models[1], HiddenLayerModel)
        assert loaded.to_dict() == model.to_dict()
        for x in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
            assert dapien_predict_interval(loaded, x, 0.9) == dapien_predict_interval(
                model, x, 0.9
            )

    def test_version_one_document_loads(self):
        model = constant_gamma_model(1.4, 0.6, -2.0)
        doc = model.to_dict()
        doc["version"] = 1
        loaded = DapienModel.from_dict(doc)
        assert loaded.to_dict() == model.to_dict()

    def test_rejects_foreign_document(self, tmp_path):
        with pytest.raises(ValueError):
            DapienModel.from_dict({"format": "something-else", "version": 1})

    @pytest.mark.parametrize("ndf", [0.5, 0.999, math.inf, math.nan, -1.0, 0.0])
    def test_rejects_an_ndf_the_t_quantile_rejects(self, ndf):
        doc = constant_gaussian_model(1.0, 0.5).to_dict()
        with pytest.raises(ValueError, match="ndf must be finite and >= 1"):
            DapienModel.from_dict({**doc, "ndf": ndf})
        loaded = DapienModel.from_dict({**doc, "ndf": 1.0})
        assert dapien_predict_interval(loaded, (0, 1, 0), 0.9).width > 0.0

    @pytest.mark.parametrize("ndf", ["20", True])
    def test_rejects_an_ndf_that_is_not_a_real(self, ndf):
        doc = constant_gaussian_model(1.0, 0.5).to_dict()
        with pytest.raises(ValueError, match="not a bool"):
            DapienModel.from_dict({**doc, "ndf": ndf})

    def test_rejects_a_wrong_model_count_and_a_gamma_ndf(self):
        gaussian = constant_gaussian_model(1.0, 0.5).to_dict()
        gamma = constant_gamma_model(1.4, 0.6, -2.0).to_dict()
        with pytest.raises(ValueError, match="gaussian family needs 2 parameter models, got 3"):
            DapienModel.from_dict({**gaussian, "models": gamma["models"]})
        with pytest.raises(ValueError, match="gamma family needs 3 parameter models, got 2"):
            DapienModel.from_dict({**gamma, "models": gaussian["models"]})
        with pytest.raises(ValueError, match="ndf must be present exactly"):
            DapienModel.from_dict({**gamma, "ndf": 20.0})


def model_documents():
    """A Gaussian dapien document and a two-member bootstrap document."""
    linear = LinearModel(np.zeros(3), 0.5, Activation.IDENTITY)
    boot = BootstrapModel(members=(linear, linear), noise_model=linear, b=2)
    return {
        DapienModel: constant_gaussian_model(1.0, 0.5).to_dict(),
        BootstrapModel: boot.to_dict(),
    }


@pytest.mark.parametrize("kind, path", [
    pytest.param(kind, path, id=f"{kind.FORMAT}:{'.'.join(map(str, path))}")
    for kind, path in (
        *((kind, (key,)) for kind, doc in model_documents().items() for key in doc),
        (DapienModel, ("models", 0, "bias")),
        (BootstrapModel, ("members", 1, "bias")),
    )
])
def test_a_document_missing_a_field_raises_value_error(kind, path):
    doc = model_documents()[kind]
    *steps, last = path
    target = doc
    for step in steps:
        target = target[step]
    del target[last]
    with pytest.raises(ValueError):
        kind.from_dict(doc)


@pytest.mark.parametrize("kind, path", [
    (DapienModel, ("models", 0)),
    (BootstrapModel, ("members", 1)),
    (BootstrapModel, ("noise_model",)),
])
def test_a_member_whose_weights_are_not_a_vector_raises_value_error(kind, path):
    doc = model_documents()[kind]
    member = reduce(getitem, path, doc)
    member["weights"] = [member["weights"]]  # a (1, dim) matrix with dim entries
    with pytest.raises(ValueError, match="weights must be a vector"):
        kind.from_dict(doc)


@pytest.mark.parametrize("kind, path", [
    (DapienModel, ("models", 1)),
    (BootstrapModel, ("members", 1)),
    (BootstrapModel, ("noise_model",)),
])
def test_members_that_take_different_input_dimensions_raise_value_error(kind, path):
    doc = model_documents()[kind]
    member = reduce(getitem, path, doc)
    member["weights"].append(0.0)
    with pytest.raises(ValueError, match=r"different dimensions \[3, 4\]"):
        kind.from_dict(doc)


@pytest.mark.parametrize("kind", [DapienModel, BootstrapModel])
def test_a_document_that_is_not_an_object_raises_value_error(kind):
    with pytest.raises(ValueError, match=f"not a {kind.FORMAT} document"):
        kind.from_dict([model_documents()[kind]])


def test_prediction_interval_invariants():
    with pytest.raises(ValueError):
        PredictionInterval(lower=2.0, upper=1.0, confidence=0.9)
    with pytest.raises(ValueError):
        PredictionInterval(lower=0.0, upper=1.0, confidence=1.5)


def test_prediction_intervals_compare_by_shape_and_value():
    scalar = PredictionInterval(lower=0.0, upper=1.0, confidence=0.9)
    assert scalar == PredictionInterval(0.0, 1.0, 0.9)
    assert hash(scalar) == hash(PredictionInterval(0.0, 1.0, 0.9))
    assert scalar != PredictionInterval(0.0, 1.0, 0.8)
    assert scalar != PredictionInterval(0.0, 2.0, 0.9)

    batch = PredictionInterval(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.9)
    same = PredictionInterval(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.9)
    assert (batch == same) is True and (batch != same) is False
    assert batch != PredictionInterval(np.array([0.0]), np.array([1.0]), 0.9)
    assert batch != PredictionInterval(np.array([0.0, 1.0]), np.array([1.0, 3.0]), 0.9)
    assert batch != PredictionInterval(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.8)
    assert batch != scalar


FAST = TrainConfig(max_iterations=60, folds=2, seed=3)


def small_dataset(family):
    """15 inputs of 6 records each, drawn with the family's own noise; no group degenerate."""
    noise = NoiseKind.SCALED_GAMMA if family is DistFamily.GAMMA else NoiseKind.SCALED_WHITE
    samples = generate(GeneratorSpec(noise=noise, d=4, replicates=6, seed=51))
    return [s for s in samples if sum(s.x) > 0]  # scaled noise is zero at the zero input


@pytest.mark.parametrize("family", list(DistFamily))
def test_every_family_fits_round_trips_and_brackets_its_point(family):
    model = dapien_fit(small_dataset(family), family, FAST)
    loaded = DapienModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert loaded.to_dict() == model.to_dict()
    U = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.float64)
    interval = dapien_predict_interval(loaded, U, 0.95)
    assert interval == dapien_predict_interval(model, U, 0.95)
    point = dapien_predict_point(loaded, U)
    assert np.all(interval.lower <= point) and np.all(point <= interval.upper)


@pytest.mark.parametrize("family, t_values", [(DistFamily.GAUSSIAN, 1), (DistFamily.GAMMA, 0)])
def test_every_train_predict_and_t_quantile_call_goes_through_the_module(
    monkeypatch, family, t_values
):
    # perfbench traces by replacing these module attributes; a family record
    # that held one of the functions would make its calls invisible
    calls = dict.fromkeys(("train", "predict", "t_quantile"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counting)
    model = dapien_fit(small_dataset(family), family, FAST)
    assert calls == {"train": 1, "predict": 0, "t_quantile": 0}  # one identity parameter
    n = len(model.param_models)
    for x in ((1, 0, 1, 0), np.ones((5, 4))):
        calls.update(dict.fromkeys(calls, 0))
        dapien_predict_interval(model, x, 0.9)
        assert calls == {"train": 0, "predict": n, "t_quantile": t_values}
        dapien_predict_point(model, x)
        assert calls == {"train": 0, "predict": 2 * n, "t_quantile": t_values}


@pytest.mark.parametrize("family", ["gaussian", "GAUSSIAN", None])
class TestAFamilyThatIsNotADistFamilyMember:
    def test_is_not_fitted(self, family):
        with pytest.raises(ValueError, match=re.escape(f"got {family!r}")):
            dapien_fit(small_dataset(DistFamily.GAUSSIAN), family, FAST)

    def test_makes_no_model(self, family):
        gaussian, gamma = constant_gaussian_model(1.0, 0.5), constant_gamma_model(1.4, 0.6, -2.0)
        for models, ndf in ((gaussian.param_models, 20.0), (gamma.param_models, None)):
            with pytest.raises(ValueError, match=re.escape(f"got {family!r}")):
                DapienModel(family=family, param_models=models, ndf=ndf)
