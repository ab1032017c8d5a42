"""Interval quality measures: PICP, MPIW, NMPIW and CWC.

Coverage uses closed intervals (a target sitting exactly on a bound
counts as covered) and the width normaliser is the range of the evaluated
targets.  CWC multiplies the normalised width by an exponential penalty
that switches on only when coverage falls below the acceptance threshold
``mu``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, ZeroRange


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate interval quality over one evaluation set."""

    picp: float
    mpiw: float
    nmpiw: float
    cwc: float
    n: int
    confidence: float
    cwc_mu: float
    cwc_eta: float

    def to_dict(self) -> dict:
        return asdict(self)


def _arrays(*columns):
    """The columns as float64 arrays of one common, non-empty length."""
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    if len({a.shape for a in arrays}) > 1:
        raise LengthMismatch("lengths differ: " + " vs ".join(str(a.size) for a in arrays))
    if arrays[0].size == 0:
        raise EmptyInput("need at least one interval")
    return arrays


def picp(lower, upper, targets) -> float:
    """Fraction of targets inside their (closed) intervals."""
    lower, upper, targets = _arrays(lower, upper, targets)
    return float(np.mean((targets >= lower) & (targets <= upper)))


def mpiw(lower, upper) -> float:
    """Mean interval width."""
    lower, upper = _arrays(lower, upper)
    return float(np.mean(upper - lower))


def nmpiw(lower, upper, targets) -> float:
    """Mean width divided by the target range, for cross-dataset comparison."""
    width = mpiw(lower, upper)
    (targets,) = _arrays(targets)
    span = float(targets.max() - targets.min())
    if span <= 0.0:
        raise ZeroRange("all targets are equal; normalised width undefined")
    return width / span


def cwc(picp_value: float, nmpiw_value: float, mu: float, eta: float) -> float:
    """Coverage/width criterion; penalises only coverage below ``mu``."""
    gamma = 0.0 if picp_value >= mu else 1.0
    return nmpiw_value * (1.0 + gamma * math.exp(-eta * (picp_value - mu)))


def evaluate(
    lower,
    upper,
    targets,
    confidence: float,
    cwc_mu: float | None = None,
    cwc_eta: float = 50.0,
) -> EvaluationReport:
    """All four measures in one report; ``cwc_mu`` defaults to the confidence.

    ``lower[i]`` and ``upper[i]`` bound the interval for ``targets[i]``.
    """
    mu = confidence if cwc_mu is None else cwc_mu
    p = picp(lower, upper, targets)
    w = mpiw(lower, upper)
    nw = nmpiw(lower, upper, targets)
    return EvaluationReport(
        picp=p,
        mpiw=w,
        nmpiw=nw,
        cwc=cwc(p, nw, mu, cwc_eta),
        n=len(targets),
        confidence=confidence,
        cwc_mu=mu,
        cwc_eta=cwc_eta,
    )
