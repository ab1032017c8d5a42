"""Distribution-adaptive prediction intervals for nominal inputs.

Fitting proceeds in four phases: group training records by unique input,
fit the chosen noise family to every group, train one regressor per
distribution parameter on the ``DistDataset``'s input matrix and that
parameter's array, and at prediction time plug the parameters regressed
for one input, or for a matrix's rows, into the family's quantile
machinery.  Fit and prediction share one format: a family's parameter
record with floats for one input and arrays for a matrix.

All the pipeline knows of a family is its record in ``_FAMILIES``, so
adding a family adds one record: which regressed parameters are positive,
the group fits' regressed values, the family's parameters from regressed
ones, whether the interval takes a Student-t critical value at ``ndf``
(the mean group size), the interval, the point, and the groups the family
cannot fit.  The Gaussian regresses mean and standard deviation (t
intervals), the gamma shape, rate and location (its inverse CDF).

Unconstrained parameters are regressed by an affine model.  Each positive
parameter gets whichever of two models wins the group cross validation
(``regressor.train_positive``): the exponential-output affine model, or
one tanh hidden layer with an exponential output clamped to the range of
the training parameters.  Only the hidden layer can follow a spread that
switches with, say, the parity of the bit sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    DistFamily,
    GammaParams,
    GaussianParams,
    _everywhere,
    _valid_ndf,
    gamma_degeneracy,
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
    the one it writes; ``to_dict`` starts from ``_header()``, and
    ``_from_fields`` builds the model from a document whose header
    ``from_dict`` has checked.
    """

    @classmethod
    def _header(cls) -> dict:
        return {"format": cls.FORMAT, "version": cls.VERSIONS[-1]}

    @classmethod
    def from_dict(cls, doc: dict):
        """The model a ``to_dict`` document describes.

        Raises ``ValueError`` for another format or version, for a missing
        or mistyped field, at the top level or in a member model, and for
        member models that take inputs of different dimensions.
        """
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise ValueError(f"not a {cls.FORMAT} document")
        if doc.get("version") not in cls.VERSIONS:
            raise ValueError(f"unsupported version {doc.get('version')}")
        try:
            return cls._from_fields(doc)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {cls.FORMAT} document: {exc!r}") from exc

    @staticmethod
    def _check_one_dim(models) -> None:
        """Raise ``ValueError`` unless every member model takes inputs of one dimension."""
        dims = sorted({m.dim for m in models})
        if len(dims) > 1:
            raise ValueError(f"member models take inputs of different dimensions {dims}")

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


class _Family(NamedTuple):
    """What the pipeline needs of one noise family; its parameters in ``param_models`` order."""

    positive: tuple[bool, ...]  # per regressed parameter: train_positive, else identity train
    targets: Callable  # the groups' fitted parameters to their regressed values
    params: Callable  # regressed values to the family's parameters
    uses_ndf: bool  # whether the interval takes a t critical value at ndf
    interval: Callable  # (params, confidence, ndf) to (lower, upper)
    point: Callable  # params to the centre estimate
    degeneracy: Callable | None  # per row of equal-size groups: why it cannot be fitted, or None


# perfbench wraps this module's t_quantile: a lambda looks it up when it runs
_FAMILIES = {
    DistFamily.GAUSSIAN: _Family(
        positive=(False, True),  # mean, sigma
        targets=lambda p: (p.mean, np.sqrt(p.variance)),
        params=lambda mean, sigma: GaussianParams(mean, sigma * sigma),
        uses_ndf=True,
        interval=lambda p, confidence, ndf: gaussian_interval(p, t_quantile(confidence, ndf)),
        point=lambda p: p.mean,
        degeneracy=None,
    ),
    DistFamily.GAMMA: _Family(
        positive=(True, True, False),  # shape, rate, location
        targets=lambda p: (p.shape, p.rate, p.location),
        params=GammaParams,
        uses_ndf=False,
        interval=lambda p, confidence, ndf: gamma_interval(p, confidence),
        point=lambda p: p.location + p.shape / p.rate,
        degeneracy=gamma_degeneracy,
    ),
}


@dataclass(frozen=True)
class DapienModel(ModelDocument):
    """Per-parameter regressors for one noise family.

    ``param_models`` order is (mean, sigma) for the Gaussian family and
    (shape, rate, location) for the gamma family.  Each is a
    ``LinearModel``, except that a positive parameter's may be a
    ``HiddenLayerModel``.  ``ndf`` is the mean training group size, so a
    finite real (not a bool) and at least 1; it is present exactly for a
    family whose interval takes a t critical value, the Gaussian.
    """

    FORMAT = "dapien-model"
    # version 1 documents hold affine parameter models only; they still load
    VERSIONS = (1, 2)

    family: DistFamily
    param_models: tuple[LinearModel | HiddenLayerModel, ...]
    ndf: float | None = None

    def __post_init__(self):
        if not isinstance(self.family, DistFamily):
            raise ValueError(f"family must be a DistFamily member, got {self.family!r}")
        record = _FAMILIES[self.family]
        if len(self.param_models) != len(record.positive):
            raise ValueError(
                f"{self.family.value} family needs {len(record.positive)} parameter models, "
                f"got {len(self.param_models)}"
            )
        if (self.ndf is None) == record.uses_ndf:
            raise ValueError("ndf must be present exactly when the interval takes a t value")
        if self.ndf is not None and not _valid_ndf(self.ndf):
            raise ValueError(
                f"ndf must be finite and >= 1 (a real, not a bool), got {self.ndf!r}"
            )
        self._check_one_dim(self.param_models)

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
    def _from_fields(cls, doc: dict) -> "DapienModel":
        return cls(
            family=DistFamily(doc["family"]),
            param_models=tuple(model_from_dict(m) for m in doc["models"]),
            ndf=doc.get("ndf"),
        )


def dapien_fit(samples, family: DistFamily, config: TrainConfig) -> DapienModel:
    """Fit the full pipeline on raw samples.

    For the gamma family every group must satisfy the gamma fit
    preconditions (at least 3 observations, nonzero spread); grouping and
    fit errors propagate with the offending input attached.  A family that
    is not a ``DistFamily`` member raises ``ValueError``.
    """
    grouped = group_by_unique_input(samples)
    dist = build_dist_dataset(grouped, family)  # checks the family
    record = _FAMILIES[family]
    X, columns = dist.rows, record.targets(dist.params)
    models = []
    for i, (positive, t) in enumerate(zip(record.positive, columns)):
        c = replace(config, seed=child_seed(config.seed, i))  # parameter i gets child seed i
        models.append(train_positive(X, t, c) if positive else train(X, t, Activation.IDENTITY, c))
    ndf = mean_group_size(grouped) if record.uses_ndf else None
    return DapienModel(family=family, param_models=tuple(models), ndf=ndf)


def predict_params(model: DapienModel, x):
    """Regressed parameters for one input vector (floats) or a matrix's rows (arrays).

    Raises ``InvalidPrediction`` where a regressed parameter overflows or
    falls outside its family's domain (a rate that underflows to 0, say).
    """
    values = [predict(m, x) for m in model.param_models]
    try:
        return _FAMILIES[model.family].params(*values)
    except ValueError as exc:
        raise InvalidPrediction(f"unusable predicted parameters: {exc}") from None


def dapien_predict_interval(
    model: DapienModel, x, confidence: float
) -> PredictionInterval:
    """Prediction interval for one input, or per row of a matrix, with one t value."""
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    params = predict_params(model, x)
    lower, upper = _FAMILIES[model.family].interval(params, confidence, model.ndf)
    return PredictionInterval(lower=lower, upper=upper, confidence=confidence)


def dapien_predict_point(model: DapienModel, x):
    """Centre estimate: predicted mean (Gaussian) or location + shape/rate."""
    return _FAMILIES[model.family].point(predict_params(model, x))
