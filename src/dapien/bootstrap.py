"""Resampled-ensemble baseline for prediction intervals.

Phase one trains B identity-output regressors, each an exact ridge least
squares fit to a with-replacement resample of the training records; the
spread of their predictions measures model error.  Phase two trains an
exponential-output regressor on the squared residuals left after
subtracting the ensemble variance, measuring target noise.  At prediction
time both phases are evaluated by ``regressor.predict``, for one input or
a matrix's rows at once; the two error estimates are added and the sum is
the sigma of a symmetric Student-t interval with B degrees of freedom.

The training records are grouped by input once.  Every fit gets the
distinct inputs plus a row index per record (``train(..., rows=...)``),
so the regressors train on per-input cell statistics, and the cross
validation that picks each ridge holds out whole inputs, as the test
split does.  The ensemble is evaluated once per distinct input.

Per-member seeds are ``child_seed(master seed, member index)``, so serial
and any future parallel member training produce identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import t_quantile
from .errors import DomainError
from .grouping import as_records
from .pipeline import ModelDocument, PredictionInterval
from .regressor import (
    Activation,
    LinearModel,
    TrainConfig,
    child_seed,
    predict,
    predict_batch,
    train,
)


@dataclass(frozen=True)
class BootstrapModel(ModelDocument):
    """Ensemble members plus the trained residual-error regressor."""

    FORMAT = "bootstrap-model"
    VERSIONS = (1,)

    members: tuple[LinearModel, ...]
    noise_model: LinearModel
    b: int

    def __post_init__(self):
        if self.b < 2 or len(self.members) != self.b:
            raise ValueError(f"need b >= 2 members, got {len(self.members)} of b={self.b}")

    def to_dict(self) -> dict:
        return {
            **self._header(),
            "b": self.b,
            "members": [m.to_dict() for m in self.members],
            "noise_model": self.noise_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BootstrapModel":
        cls._check_header(doc)
        return cls(
            members=tuple(LinearModel.from_dict(m) for m in doc["members"]),
            noise_model=LinearModel.from_dict(doc["noise_model"]),
            b=int(doc["b"]),
        )


def bootstrap_fit(samples, b: int, config: TrainConfig) -> BootstrapModel:
    """Train the B-member ensemble and the residual-error regressor.

    Checks the samples and raises as ``grouping.as_records`` does.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    records = as_records(samples)
    index, y = records.index, records.targets
    U = np.asarray(records.inputs, dtype=np.float64)
    n = y.size

    members = []
    for i in range(b):
        seed = child_seed(config.seed, i)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=n)
        member_config = replace(config, seed=seed)
        members.append(
            train(U, y[idx], Activation.IDENTITY, member_config, rows=index[idx])
        )

    preds = np.stack([predict_batch(m, U) for m in members])
    ensemble_mean = preds.mean(axis=0)[index]
    ensemble_var = preds.var(axis=0, ddof=1)[index]
    residual_sq = np.maximum(0.0, (y - ensemble_mean) ** 2 - ensemble_var)
    noise_config = replace(config, seed=child_seed(config.seed, b))
    noise_model = train(
        U, residual_sq, Activation.EXPONENTIAL, noise_config, rows=index
    )
    return BootstrapModel(members=tuple(members), noise_model=noise_model, b=b)


def bootstrap_predict_sigma(model: BootstrapModel, x):
    """Ensemble mean and the combined two-phase error estimate at x.

    Scalars for an input vector, arrays for a matrix's rows.  Raises
    ``InvalidPrediction`` where a member or the noise model overflows.
    """
    x = np.asarray(x, dtype=np.float64)  # once, not per member
    preds = np.array([predict(m, x) for m in model.members])
    # the two phase errors are added directly, per the baseline's recipe
    return preds.mean(axis=0), preds.var(axis=0, ddof=1) + predict(model.noise_model, x)


def bootstrap_predict_interval(
    model: BootstrapModel, x, confidence: float
) -> PredictionInterval:
    """Symmetric t interval around the ensemble mean; scalars or arrays as for the sigma."""
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    mu, sigma = bootstrap_predict_sigma(model, x)
    c = t_quantile(confidence, float(model.b))
    return PredictionInterval(
        lower=mu - c * sigma, upper=mu + c * sigma, confidence=confidence
    )
