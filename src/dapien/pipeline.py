"""Distribution-adaptive prediction intervals for nominal inputs.

Fitting proceeds in four phases: group training records by unique input,
fit the chosen noise family to every group, train one regressor per
distribution parameter on the (input, parameter) pairs, and at prediction
time plug the parameters regressed for one input, or for a matrix's rows,
into the family's quantile machinery.

For the Gaussian family the two regressors predict the mean (identity
output) and the noise standard deviation (exponential output, so the
predicted spread is always positive); intervals use Student-t critical
values with the mean group size as degrees of freedom.  For the gamma
family three regressors predict shape and rate (exponential outputs) and
location (identity), and intervals come from the gamma inverse CDF.

Unconstrained parameters are regressed by an affine model.  Each positive
parameter gets whichever of two models wins the group cross validation
(``regressor.train_positive``): the exponential-output affine model, or
one tanh hidden layer with an exponential output clamped to the range of
the training parameters.  Only the hidden layer can follow a spread that
switches with, say, the parity of the bit sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    DistFamily,
    GammaParams,
    GaussianParams,
    _everywhere,
    _valid_ndf,
    gamma_interval,
    gaussian_interval,
    t_quantile,
)
from .errors import DomainError, InvalidPrediction
from .grouping import build_dist_dataset, group_by_unique_input, mean_group_size
from .regressor import (
    Activation,
    HiddenLayerModel,
    LinearModel,
    TrainConfig,
    child_seed,
    model_from_dict,
    predict,
    train,
    train_positive,
)


class ModelDocument:
    """JSON save and load of a model document headed by format and version.

    A subclass sets ``FORMAT`` and the ``VERSIONS`` it reads, the last being
    the one it writes; ``to_dict`` starts from ``_header()`` and
    ``from_dict`` calls ``_check_header`` first.
    """

    @classmethod
    def _header(cls) -> dict:
        return {"format": cls.FORMAT, "version": cls.VERSIONS[-1]}

    @classmethod
    def _check_header(cls, doc: dict) -> None:
        if doc.get("format") != cls.FORMAT:
            raise ValueError(f"not a {cls.FORMAT} document")
        if doc.get("version") not in cls.VERSIONS:
            raise ValueError(f"unsupported version {doc.get('version')}")

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class PredictionInterval:
    """A [lower, upper] range asserted to contain the target; arrays hold one per input."""

    lower: float
    upper: float
    confidence: float

    def __post_init__(self):
        if not _everywhere(self.lower <= self.upper):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")

    def __eq__(self, other):
        # equal shapes and elements, so array bounds compare too; the
        # dataclass still hashes the fields, which arrays cannot be
        if not isinstance(other, PredictionInterval):
            return NotImplemented
        return bool(self.confidence == other.confidence) and all(
            np.array_equal(a, b) for a, b in ((self.lower, other.lower), (self.upper, other.upper))
        )

    @property
    def width(self):
        return self.upper - self.lower


@dataclass(frozen=True)
class DapienModel(ModelDocument):
    """Per-parameter regressors for one noise family.

    ``param_models`` order is (mean, sigma) for the Gaussian family and
    (shape, rate, location) for the gamma family.  Each is a
    ``LinearModel``, except that a positive parameter's may be a
    ``HiddenLayerModel``.  ``ndf`` is the mean training group size, so a
    finite real (not a bool) and at least 1; it is present exactly for the
    Gaussian family, where it feeds the t critical value.
    """

    FORMAT = "dapien-model"
    # version 1 documents hold affine parameter models only; they still load
    VERSIONS = (1, 2)

    family: DistFamily
    param_models: tuple[LinearModel | HiddenLayerModel, ...]
    ndf: float | None = None

    def __post_init__(self):
        expected = 2 if self.family is DistFamily.GAUSSIAN else 3
        if len(self.param_models) != expected:
            raise ValueError(
                f"{self.family.value} family needs {expected} parameter models, "
                f"got {len(self.param_models)}"
            )
        if (self.ndf is None) == (self.family is DistFamily.GAUSSIAN):
            raise ValueError("ndf must be present exactly for the Gaussian family")
        if self.ndf is not None and not _valid_ndf(self.ndf):
            raise ValueError(
                f"ndf must be finite and >= 1 (a real, not a bool), got {self.ndf!r}"
            )

    @property
    def dim(self) -> int:
        return self.param_models[0].dim

    def to_dict(self) -> dict:
        doc = {
            **self._header(),
            "family": self.family.value,
            "models": [m.to_dict() for m in self.param_models],
        }
        if self.ndf is not None:
            doc["ndf"] = float(self.ndf)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DapienModel":
        cls._check_header(doc)
        return cls(
            family=DistFamily(doc["family"]),
            param_models=tuple(model_from_dict(m) for m in doc["models"]),
            ndf=doc.get("ndf"),
        )


def dapien_fit(samples, family: DistFamily, config: TrainConfig) -> DapienModel:
    """Fit the full pipeline on raw samples.

    For the gamma family every group must satisfy the gamma fit
    preconditions (at least 3 observations, nonzero spread); grouping and
    fit errors propagate with the offending input attached.
    """
    grouped = group_by_unique_input(samples)
    dist = build_dist_dataset(grouped, family)
    X = np.asarray([x for x, _ in dist.rows], dtype=np.float64)
    # one child seed per parameter model
    child = [replace(config, seed=child_seed(config.seed, i)) for i in range(3)]

    if family is DistFamily.GAUSSIAN:
        means = [p.mean for _, p in dist.rows]
        sigmas = [math.sqrt(p.variance) for _, p in dist.rows]
        models = (
            train(X, means, Activation.IDENTITY, child[0]),
            train_positive(X, sigmas, child[1]),
        )
        return DapienModel(
            family=family, param_models=models, ndf=mean_group_size(grouped)
        )

    shapes = [p.shape for _, p in dist.rows]
    rates = [p.rate for _, p in dist.rows]
    locs = [p.location for _, p in dist.rows]
    models = (
        train_positive(X, shapes, child[0]),
        train_positive(X, rates, child[1]),
        train(X, locs, Activation.IDENTITY, child[2]),
    )
    return DapienModel(family=family, param_models=models, ndf=None)


def _checked_params(family_params, **values):
    try:
        return family_params(**values)
    except ValueError as exc:
        raise InvalidPrediction(f"unusable predicted parameters: {exc}") from None


def predict_params(model: DapienModel, x):
    """Regressed parameters for one input vector (floats) or a matrix's rows (arrays).

    Raises ``InvalidPrediction`` where a regressed parameter overflows or
    falls outside its family's domain (a rate that underflows to 0, say).
    """
    values = [predict(m, x) for m in model.param_models]
    if model.family is DistFamily.GAUSSIAN:
        mean, sigma = values
        return _checked_params(GaussianParams, mean=mean, variance=sigma * sigma)
    shape, rate, loc = values
    return _checked_params(GammaParams, shape=shape, rate=rate, location=loc)


def dapien_predict_interval(
    model: DapienModel, x, confidence: float
) -> PredictionInterval:
    """Prediction interval for one input, or per row of a matrix, with one t value."""
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    params = predict_params(model, x)
    if model.family is DistFamily.GAUSSIAN:
        lower, upper = gaussian_interval(params, t_quantile(confidence, model.ndf))
    else:
        lower, upper = gamma_interval(params, confidence)
    return PredictionInterval(lower=lower, upper=upper, confidence=confidence)


def dapien_predict_point(model: DapienModel, x):
    """Centre estimate: predicted mean (Gaussian) or location + shape/rate."""
    params = predict_params(model, x)
    if model.family is DistFamily.GAUSSIAN:
        return params.mean
    return params.location + params.shape / params.rate
