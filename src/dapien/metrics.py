"""Interval quality measures: PICP, MPIW, NMPIW and CWC.

Coverage uses closed intervals (a target sitting exactly on a bound
counts as covered) and the width normaliser is the range of the evaluated
targets.  CWC multiplies the normalised width by an exponential penalty
that switches on only when coverage falls below the acceptance threshold
``mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return {
            "picp": self.picp,
            "mpiw": self.mpiw,
            "nmpiw": self.nmpiw,
            "cwc": self.cwc,
            "n": self.n,
            "confidence": self.confidence,
            "cwc_mu": self.cwc_mu,
            "cwc_eta": self.cwc_eta,
        }


def _bounds(intervals):
    lower = np.array([iv.lower for iv in intervals], dtype=np.float64)
    upper = np.array([iv.upper for iv in intervals], dtype=np.float64)
    return lower, upper


def picp(intervals, targets) -> float:
    """Fraction of targets inside their (closed) intervals."""
    intervals = list(intervals)
    targets = np.asarray(targets, dtype=np.float64)
    if len(intervals) != targets.size:
        raise LengthMismatch(
            f"{len(intervals)} intervals vs {targets.size} targets"
        )
    if not intervals:
        raise EmptyInput("picp needs at least one interval")
    lower, upper = _bounds(intervals)
    return float(np.mean((targets >= lower) & (targets <= upper)))


def mpiw(intervals) -> float:
    """Mean interval width."""
    intervals = list(intervals)
    if not intervals:
        raise EmptyInput("mpiw needs at least one interval")
    lower, upper = _bounds(intervals)
    return float(np.mean(upper - lower))


def nmpiw(intervals, targets) -> float:
    """Mean width divided by the target range, for cross-dataset comparison."""
    targets = np.asarray(targets, dtype=np.float64)
    span = float(targets.max() - targets.min()) if targets.size else 0.0
    if span <= 0.0:
        raise ZeroRange("all targets are equal; normalised width undefined")
    return mpiw(intervals) / span


def cwc(picp_value: float, nmpiw_value: float, mu: float, eta: float) -> float:
    """Coverage/width criterion; penalises only coverage below ``mu``."""
    gamma = 0.0 if picp_value >= mu else 1.0
    return nmpiw_value * (1.0 + gamma * math.exp(-eta * (picp_value - mu)))


def evaluate(
    intervals,
    targets,
    confidence: float,
    cwc_mu: float | None = None,
    cwc_eta: float = 50.0,
) -> EvaluationReport:
    """All four measures in one report; ``cwc_mu`` defaults to the confidence."""
    intervals = list(intervals)
    mu = confidence if cwc_mu is None else cwc_mu
    p = picp(intervals, targets)
    w = mpiw(intervals)
    nw = nmpiw(intervals, targets)
    return EvaluationReport(
        picp=p,
        mpiw=w,
        nmpiw=nw,
        cwc=cwc(p, nw, mu, cwc_eta),
        n=len(intervals),
        confidence=confidence,
        cwc_mu=mu,
        cwc_eta=cwc_eta,
    )
