"""Gaussian and three-parameter gamma estimation plus quantile machinery.

The gamma family is parameterised by shape ``alpha``, rate ``beta`` and
location ``mu``; its density is ``beta^alpha / Gamma(alpha) *
(t - mu)^(alpha-1) * exp(-beta * (t - mu))`` on ``t > mu``.  All cumulative
probabilities are evaluated through a series / continued-fraction expansion
of the regularised incomplete gamma function; no closed forms are assumed.
Student's t critical values go through the regularised incomplete beta
function.  Every root here is found by one safeguarded Newton iteration
(Newton steps inside an analytic bracket, bisection where a step would
leave it): a t critical value from the lower end of its bracket, a gamma
quantile from Wilson-Hilferty or a power-law start, and the gamma shape
MLE, which solves ``log(a) - psi(a) = s``, from a closed-form start.  The
normal quantile in the first two is the standard library's
(``statistics.NormalDist().inv_cdf``, Wichura's AS 241).  The shape solve
is the one gamma estimator: a group whose log-spread s is not a finite
positive has no MLE and is degenerate (``gamma_degeneracy``).  Both group
fits, and ``gamma_degeneracy``, also take a ``(groups, n)`` matrix of
equal-size groups and treat each row as its own group, bit for bit; the
gamma anchor of every row comes from one set of matrix reductions.

Everything here is a pure function of its inputs; the parameter containers
are frozen and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import statistics
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGroup, DomainError, EmptyGroup, InvalidTarget, NonConvergence

_MACHEP = 2.22e-16
_MAX_ITER = 400
_NEWTON_MAX_ITER = 100  # pure bisection of the widest bracket collapses in about 60
_NEWTON_TOL = 1e-15
_NEWTON_STEP = 1e-8
_LOG_GAMMA_HALF = math.lgamma(0.5)
_T_CACHE_SIZE = 256  # distinct (confidence, ndf) pairs kept; a fitted model uses one ndf
_STANDARD_NORMAL = statistics.NormalDist()


class DistFamily(Enum):
    """Noise-distribution family assumed for the per-input target spread."""

    GAUSSIAN = "gaussian"
    GAMMA = "gamma"


def _everywhere(condition) -> bool:
    """Whether a check on scalars holds, or one on arrays at every element.

    Checks use operators (``abs(v) < inf`` tests finiteness), which keep a
    float's check in plain Python, several times faster than NumPy.
    """
    return bool(condition.all()) if isinstance(condition, np.ndarray) else bool(condition)


def _rows(ys):
    """``ys`` as a C-contiguous matrix of groups: a matrix as it is, anything else as one row.

    On contiguous rows NumPy reduces each row as it reduces a 1-D group of
    the same values, so a row's statistics are bit for bit its own.
    """
    return np.ascontiguousarray(ys if ys.ndim == 2 else ys.reshape(1, -1))


def _valid_ndf(ndf) -> bool:
    """Whether ``ndf`` is a real number (a bool is not one), finite and >= 1."""
    return (
        isinstance(ndf, numbers.Real) and not isinstance(ndf, bool)
        and math.isfinite(ndf) and ndf >= 1.0
    )


@dataclass(frozen=True)
class GaussianParams:
    """Mean and variance of a Gaussian target distribution (floats or arrays)."""

    mean: float
    variance: float

    def __post_init__(self):
        if not _everywhere(abs(self.mean) < math.inf):
            raise ValueError("mean must be finite")
        if not _everywhere((self.variance >= 0.0) & (self.variance < math.inf)):
            raise ValueError("variance must be finite and >= 0")


@dataclass(frozen=True)
class GammaParams:
    """Shape / rate / location of a 3-parameter gamma distribution (floats or arrays)."""

    shape: float
    rate: float
    location: float

    def __post_init__(self):
        if not _everywhere((self.shape > 0.0) & (self.shape < math.inf)):
            raise ValueError("shape must be finite and > 0")
        if not _everywhere((self.rate > 0.0) & (self.rate < math.inf)):
            raise ValueError("rate must be finite and > 0")
        if not _everywhere(abs(self.location) < math.inf):
            raise ValueError("location must be finite")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _reg_lower_gamma(a, x):
    """Regularised lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        # power series around zero
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _MACHEP:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # Lentz continued fraction for the upper tail Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    q = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - q


def _betacf(a, b, x):
    """Lentz continued fraction for the incomplete beta function."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz update per coefficient of step m
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    return h


def _log_gamma_half_ratio(b):
    """``log(Gamma(b + 1/2) / Gamma(b))`` for b > 0, to full relative precision.

    The difference of two ``lgamma`` values near ``b log b`` loses about
    ``log10(2 b)`` digits, so from b = 30 on the asymptotic series in 1/b
    (DLMF 5.11.13, through the Bernoulli polynomials at 1/2 and 0) is used;
    six terms reach double precision there.
    """
    if b < 30.0:
        return math.lgamma(b + 0.5) - math.lgamma(b)
    inv = 1.0 / b
    inv2 = inv * inv
    return 0.5 * math.log(b) - inv * (1.0 / 8.0 - inv2 * (1.0 / 192.0 - inv2 * (
        1.0 / 640.0 - inv2 * (17.0 / 14336.0 - inv2 * (31.0 / 18432.0 - inv2 * 691.0 / 180224.0))
    )))


def _reg_inc_beta(a, b, x, log_beta):
    """Regularised incomplete beta I_x(a, b) for x in [0, 1], given log B(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(-log_beta + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _log_minus_digamma_and_slope(a):
    """``log(a) - psi(a)`` and ``a * psi'(a) - 1`` for a > 0, from one upward recurrence.

    The recurrence runs up to x = a + k >= 12, and each tail is a series of
    the difference itself from 1/(2x) on; the second uses ``a psi'(x) - 1 =
    (a/x)(x psi'(x) - 1) - (x - a)/x``.  So nothing near ``log(a)`` or 1 is
    subtracted, and the relative precision holds however large a grows.  The
    first value is the gap of the gamma shape equation; the second, over the
    squared gap, is the slope of its reciprocal in log(a).
    """
    gap, slope, x = 0.0, 0.0, a
    while x < 12.0:
        gap += 1.0 / x
        slope += a / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    gap = gap + math.log(a / x) + 0.5 * inv + inv2 * (
        1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0))
    )
    tail = inv * (0.5 + inv * (
        1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))
    ))
    return gap, slope + a / x * tail - (x - a) / x


def _invert(cdf, p, x, lo, hi):
    """The point where the increasing ``cdf`` reaches ``p``, by safeguarded Newton.

    ``cdf(x)`` returns the probability and its slope, and must lie below
    ``p`` at ``lo`` and above it at ``hi``.  These analytic bounds can be
    exact, so they are widened by 1e-9 to keep a root on one of them inside
    despite rounding.  A Newton step is taken where it lands inside the
    current bracket, a bisection otherwise (``rtsafe`` in Numerical
    Recipes).  Iteration stops once the residual is within 1e-15 of ``p``
    relative, a Newton step rounds onto x or is below 1e-8, or the bracket
    has collapsed.
    Near the root convergence is quadratic, so a step below 1e-8 leaves an
    error near its square, and the CDF's own rounding noise (about 1e-11
    relative for t at ndf = 1e6) cannot keep the loop going.
    """
    lo, hi = lo - 1e-9, hi + 1e-9
    for _ in range(_NEWTON_MAX_ITER):
        value, slope = cdf(x)
        residual = value - p
        if abs(residual) <= _NEWTON_TOL * p:
            return x
        if residual < 0.0:
            lo = x
        else:
            hi = x
        step = residual / slope if slope > 0.0 else math.inf
        if x - step == x:  # x is the root to its own resolution, and a bracket end
            return x
        if lo < x - step < hi:
            x -= step
            if abs(step) <= _NEWTON_STEP:
                return x
        else:
            x = 0.5 * (lo + hi)
            if hi - lo <= _NEWTON_TOL or not lo < x < hi:
                return x
    return x


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def fit_gaussian(ys) -> GaussianParams:
    """Estimate mean and unbiased (n-1) variance of a target group, or of each row of a matrix.

    A group ``ys`` gets float fields; a ``(groups, n)`` matrix of equal-size
    groups gets arrays with one element per row, each bit for bit what its
    row alone gets.  A single observation or a constant group yields
    variance 0; noiseless groups are legal inputs.

    Raises
    ------
    EmptyGroup
        If ``ys`` is empty.
    InvalidTarget
        If a value is not finite, or the mean or the variance overflows;
        for a matrix the first such row is named.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        raise EmptyGroup("cannot fit a Gaussian to an empty group")
    rows = _rows(ys)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        mean = rows.mean(axis=1)
        variance = np.zeros(len(rows))
        if rows.shape[1] > 1:  # var(ddof=1) of one value warns
            constant = (rows == rows[:, :1]).all(axis=1)
            variance = np.where(constant, 0.0, rows.var(axis=1, ddof=1))
    bad = ~((abs(mean) < math.inf) & (variance < math.inf))
    if bad.any():
        k = int(bad.argmax())
        at = f" (row {k})" if ys.ndim == 2 else ""
        raise InvalidTarget(
            f"Gaussian fit needs finite mean and variance{at}: "
            f"{float(mean[k])!r}, {float(variance[k])!r}"
        )
    if ys.ndim == 2:
        return GaussianParams(mean=mean, variance=variance)
    return GaussianParams(mean=float(mean[0]), variance=float(variance[0]))


def gaussian_interval(params: GaussianParams, c: float):
    """Symmetric interval ``mean +/- c * sqrt(variance)`` for c >= 0, elementwise."""
    if not (math.isfinite(c) and c >= 0.0):
        raise DomainError(f"critical value must be finite and >= 0, got {c}")
    half = c * np.sqrt(params.variance)
    return params.mean - half, params.mean + half


def t_quantile(confidence: float, ndf: float) -> float:
    """Two-sided Student-t critical value: P(|T_ndf| <= c) = confidence.

    ``ndf`` may be any real >= 1; large values converge to the Gaussian
    critical value.  Solved by Newton on log(c) inside the bracket that
    the density at 0, the normal critical value and the Cauchy (ndf = 1)
    critical value give, from its lower end.  The result agrees with
    ``scipy.stats.t.ppf`` within about 1e-11 relative for every ndf from 1
    to 1e6 (confidences 0.5-0.999).

    A fitted model's ndf never changes, so each critical value is solved
    once per process: a bounded LRU of ``_T_CACHE_SIZE`` recently used
    ``(confidence, ndf)`` pairs keeps them, keyed on floats only after both
    arguments pass the checks below (a bool, equal and hashing alike to
    1.0, is rejected before the cache).
    """
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    if not _valid_ndf(ndf):
        raise DomainError(f"ndf must be finite and >= 1 (a real, not a bool), got {ndf!r}")
    return _t_critical(float(confidence), float(ndf))


@functools.lru_cache(maxsize=_T_CACHE_SIZE)
def _t_critical(confidence: float, ndf: float) -> float:
    """The critical value of :func:`t_quantile` for checked float arguments."""
    half = 0.5 * ndf
    log_gamma_ratio = _log_gamma_half_ratio(half)
    log_beta = _LOG_GAMMA_HALF - log_gamma_ratio  # log B(1/2, ndf/2) = log B(ndf/2, 1/2)
    # log of twice the density at 0, the slope of P(|T| <= c) there
    log_slope0 = math.log(2.0) + log_gamma_ratio - 0.5 * math.log(ndf * math.pi)

    def two_sided(r):
        # P(|T| <= c) = I_y(1/2, ndf/2) = 1 - I_(1-y)(ndf/2, 1/2) with
        # y = c^2 / (ndf + c^2), c = e^r; the smaller of y and 1 - y is the
        # one that keeps its relative precision as an argument
        c2 = math.exp(2.0 * r)
        if c2 < ndf:
            value = _reg_inc_beta(0.5, half, c2 / (ndf + c2), log_beta)
        else:
            value = 1.0 - _reg_inc_beta(half, 0.5, ndf / (ndf + c2), log_beta)
        return value, math.exp(log_slope0 + r - (half + 0.5) * math.log1p(c2 / ndf))

    z = -_STANDARD_NORMAL.inv_cdf(0.5 * (1.0 - confidence))
    # P(|T| <= c) <= c * 2 f(0), and t critical values fall with ndf, from
    # the Cauchy value at ndf = 1 towards the normal value z
    lo = math.log(confidence) - log_slope0
    if z > 0.0:  # 0 where confidence is below double resolution at 1
        lo = max(lo, math.log(z))
    hi = math.log(math.tan(0.5 * math.pi * confidence))
    return math.exp(_invert(two_sided, confidence, lo, lo, hi))


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

def gamma_cdf(z: float, params: GammaParams) -> float:
    """CDF of the three-parameter gamma distribution at ``z``."""
    if z <= params.location:
        return 0.0
    return _reg_lower_gamma(params.shape, params.rate * (z - params.location))


def gamma_inverse_cdf(p: float, params: GammaParams) -> float:
    """Quantile z with gamma CDF(z) = p, by safeguarded Newton.

    The standard gamma quantile x = rate * (z - location) is found on log(x),
    which keeps small-shape quantiles (far below the distribution scale)
    resolvable, then shifted by the location, so the result is exactly
    equivariant under location shifts.  Newton starts from Wilson-Hilferty
    (shape above 1) or a power-law start (shape up to 1) inside an analytic
    bracket; its results agree with scipy to about 1e-13 relative, well
    inside the 1e-10 contract.
    """
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"probability must lie in (0, 1), got {p}")

    a, log_rate = params.shape, math.log(params.rate)
    tiny = 1e-308
    # P(a, x) <= x^a / Gamma(a + 1) bounds the quantile from below
    lo = (math.log(p) + math.lgamma(a + 1.0)) / a
    if lo <= log_rate + math.log(tiny):
        if _reg_lower_gamma(a, params.rate * tiny) >= p:  # quantile below double resolution
            return params.location + tiny
        lo = log_rate + math.log(tiny)
    # the right tail is sub-gamma: P(X > a + sqrt(2 a t) + t) <= e^-t
    t = -math.log1p(-p)
    hi = math.log(a + math.sqrt(2.0 * a * t) + t)

    if a > 1.0:  # Wilson-Hilferty
        w = 1.0 - 1.0 / (9.0 * a) + _STANDARD_NORMAL.inv_cdf(p) / (3.0 * math.sqrt(a))
        start = math.log(a) + 3.0 * math.log(w) if w > 0.0 else lo
    else:  # Numerical Recipes' start for invgammp at shape <= 1
        knee = 1.0 - a * (0.253 + 0.12 * a)
        if p < knee:
            start = math.log(p / knee) / a
        else:
            start = math.log(1.0 - math.log1p(-(p - knee) / (1.0 - knee)))
    lga = math.lgamma(a)

    def cdf(y):
        x = math.exp(y)
        return _reg_lower_gamma(a, x), math.exp(a * y - x - lga)

    y = _invert(cdf, p, min(max(start, lo), hi), lo, hi)
    return params.location + math.exp(y - log_rate)


def gamma_interval(params: GammaParams, confidence: float):
    """Equal-tailed gamma interval at the requested confidence, elementwise."""
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    # each element is inverted on Python floats, 2-3x faster than NumPy scalars
    fields = np.array([params.shape, params.rate, params.location])
    shape = fields.shape[1:]
    rows = [GammaParams(*row) for row in fields.reshape(3, -1).T.tolist()]
    bounds = (
        np.array([gamma_inverse_cdf(p, row) for row in rows]).reshape(shape)
        for p in (0.5 * (1.0 - confidence), 0.5 * (1.0 + confidence))
    )
    # a 0-d array's tolist() is a Python float, so one input gets float bounds
    return tuple(b if shape else b.tolist() for b in bounds)


def _gamma_loglik(z_sum, logz_sum, n, shape, rate):
    return (
        n * (shape * math.log(rate) - math.lgamma(shape))
        + (shape - 1.0) * logz_sum
        - rate * z_sum
    )


def _shape_mle(s):
    """The gamma shape MLE: the root of ``log(a) - psi(a) = s`` for a finite s > 0.

    s = log(mean z) - mean(log z) of the values z above the location.  As
    ``1/(2a) < log(a) - psi(a) < 1/a``, the root lies in (1/(2s), 1/s);
    ``_invert`` finds it on log(a), where ``1 / (log(a) - psi(a))``
    increases, from the closed-form start clipped into that bracket.
    """

    def inverse_gap(y):
        gap, slope = _log_minus_digamma_and_slope(math.exp(y))
        return 1.0 / gap, slope / (gap * gap)

    lo, hi = -math.log(2.0 * s), -math.log(s)
    start = math.log((3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s))
    return math.exp(_invert(inverse_gap, 1.0 / s, min(max(start, lo), hi), lo, hi))


def _shape_bias_correction(a, n):
    # first-order MLE bias of the gamma shape (Bowman-Shenton form)
    bias = (3.0 * a - (2.0 / 3.0) * a / (1.0 + a) - (4.0 / 5.0) * a / (1.0 + a) ** 2) / n
    return max(a - bias, 0.25 * a)


def _rate_from_mean(a, n, mean):
    # E[a / sample_mean] = rate * n*a / (n*a - 1); undo that inflation
    rate = a / mean
    if n * a > 2.0:
        rate *= (n * a - 1.0) / (n * a)
    return rate


def _gamma_anchors(rows):
    """Each row's anchor, or the reason it has none, from whole-matrix reductions.

    A row's anchor is its minimum and mean, the location anchored below the
    minimum, and s, the log-spread log(mean z) - mean(log z) of the values
    z above that location.  The reasons, checked in this order, are fewer
    than 3 values, all values equal, a mean that is not finite, a spread
    below the float resolution of the values, and an s that is not finite
    and positive, where the shape MLE has no root.  The log of a row's mean
    z is ``math.log``'s, which ``np.log`` differs from in the last bit.
    """
    n = rows.shape[1]
    if n < 3:
        return [f"gamma fit needs at least 3 observations, got {n}"] * len(rows)
    # a row rejected below may overflow, or take the log of a z <= 0
    with np.errstate(all="ignore"):
        constant = (rows == rows[:, :1]).all(axis=1)
        mn, mean = rows.min(axis=1), rows.mean(axis=1)
        loc = mn - np.maximum((mean - mn) / (n - 1), 1e-9)
        z = rows - loc[:, None]
        z_mean, log_z_mean = z.mean(axis=1), np.log(z).mean(axis=1)
    columns = (constant, mn, mean, loc, z_mean, log_z_mean)
    return [_anchor_or_reason(*row) for row in zip(*(c.tolist() for c in columns))]


def _anchor_or_reason(constant, mn, mean, loc, z_mean, log_z_mean):
    """One row's anchor ``(mn, mean, loc, s)`` from its reductions, or the reason it has none."""
    if constant:
        return "gamma fit needs spread; all observations are equal"
    if not abs(mean) < math.inf:
        return f"gamma fit needs finite values; their mean is {mean!r}"
    if not loc < min(mn, mean):  # the anchor rounded onto the data
        return "gamma fit needs spread above the float resolution of the values"
    s = math.log(z_mean) - log_z_mean
    if not (math.isfinite(s) and s > 0.0):  # Jensen keeps it >= 0 in exact arithmetic
        return f"gamma fit needs a finite log-spread above 0, got {s!r}"
    return mn, mean, loc, s


def gamma_degeneracy(ys):
    """Why :func:`fit_gamma` rejects the non-empty group ``ys``, or None exactly when it fits it.

    A ``(groups, n)`` matrix of equal-size groups gets a list with one
    reason, or None, per row, each what its row alone gets.
    """
    ys = np.asarray(ys, dtype=np.float64)
    reasons = [a if isinstance(a, str) else None for a in _gamma_anchors(_rows(ys))]
    return reasons if ys.ndim == 2 else reasons[0]


def fit_gamma(ys) -> GammaParams:
    """Fit shape, rate and location by maximum likelihood to a group, or to each matrix row.

    The location is anchored below the sample minimum with the offset
    ``(mean - min) / (n - 1)``, which removes the O(1/n) upward bias of the
    raw minimum when the underlying shape is near 1 (the exponential-noise
    regime this library targets).  The shape then solves the likelihood
    equation ``log(a) - psi(a) = s``, s = log(mean z) - mean(log z) of the
    values z above the location, by safeguarded Newton inside the bracket
    (1/(2s), 1/s).  When the fitted shape is clearly above 1 and the group
    is large, the location is re-estimated by profile likelihood, which is
    consistent there while the sample minimum is not.  A first-order
    small-sample bias correction of the shape follows, and the rate is the
    shape over the mean of the values above the location, less its
    small-sample inflation.

    A group ``ys`` gets float fields; a ``(groups, n)`` matrix of equal-size
    groups gets arrays with one element per row, each bit for bit what its
    row alone gets.  The anchors of all rows come from one set of matrix
    reductions; the shape solve and what follows it run row by row.  For a
    matrix, an error names the first row that fails.

    Raises
    ------
    EmptyGroup
        If ``ys`` is empty.
    DegenerateGroup
        Where :func:`gamma_degeneracy` names a reason: fewer than 3
        observations, a mean that is not finite, no spread above float
        resolution, or a log-spread s that is not finite and positive.
    NonConvergence
        If the final parameters are not finite and positive (defect signal).
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        raise EmptyGroup("cannot fit a gamma to an empty group")
    rows = _rows(ys)
    n = rows.shape[1]
    at = "row {}: " if ys.ndim == 2 else ""  # names a matrix row in an error
    fitted = []
    for k, anchor in enumerate(_gamma_anchors(rows)):
        if isinstance(anchor, str):
            raise DegenerateGroup(at.format(k) + anchor)
        mn, mean, loc, s = anchor
        shape = _shape_mle(s)

        if shape >= 2.0 and n >= 200:
            refined = _profile_location(rows[k], mn, mean, loc)
            if refined is not None:
                loc, shape = refined

        shape = _shape_bias_correction(shape, n)
        rate = _rate_from_mean(shape, n, mean - loc)

        if not (shape > 0.0 and rate > 0.0 and math.isfinite(shape) and math.isfinite(rate)):
            raise NonConvergence(at.format(k) + "gamma fit produced invalid parameters")
        fitted.append((shape, rate, loc))
    if ys.ndim == 2:
        return GammaParams(*np.array(fitted).T)
    return GammaParams(*fitted[0])


def _profile_location(ys, mn, mean, loc0):
    """Golden-section maximisation of the profile likelihood over location.

    Only used for shape clearly above 1, where the likelihood has an
    interior optimum in the location; returns the location and its shape
    MLE, or None when no improvement over the minimum-anchored start is found.
    """
    spread = mean - mn
    low = mn - 6.0 * spread
    high = mn - 1e-10 * max(1.0, abs(mn))

    def loglik_at(mu):
        z = ys - mu
        log_z = np.log(z)
        s = math.log(float(z.mean())) - float(log_z.mean())
        if not (math.isfinite(s) and s > 0.0):
            return -math.inf, None
        a = _shape_mle(s)
        return _gamma_loglik(float(z.sum()), float(log_z.sum()), ys.size, a, a / float(z.mean())), a

    base, _ = loglik_at(loc0)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = high - invphi * (high - low)
    x2 = low + invphi * (high - low)
    f1, _ = loglik_at(x1)
    f2, _ = loglik_at(x2)
    for _ in range(80):
        if f1 < f2:
            low = x1
            x1, f1 = x2, f2
            x2 = low + invphi * (high - low)
            f2, _ = loglik_at(x2)
        else:
            high = x2
            x2, f2 = x1, f1
            x1 = high - invphi * (high - low)
            f1, _ = loglik_at(x1)
        if high - low <= 1e-11 * max(1.0, abs(high)):
            break
    best_mu = x1 if f1 >= f2 else x2
    best, shape = loglik_at(best_mu)
    if shape is None or not (best > base + 1e-7):
        return None
    return best_mu, shape
