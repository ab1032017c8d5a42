"""Gaussian and three-parameter gamma estimation plus quantile machinery.

The gamma family is parameterised by shape ``alpha``, rate ``beta`` and
location ``mu``; its density is ``beta^alpha / Gamma(alpha) *
(t - mu)^(alpha-1) * exp(-beta * (t - mu))`` on ``t > mu``.  All cumulative
probabilities are evaluated through a series / continued-fraction expansion
of the regularised incomplete gamma function; no closed forms are assumed.
Student's t critical values go through the regularised incomplete beta
function.  Both are inverted by one safeguarded Newton iteration (Newton
steps inside an analytic bracket, bisection where a step would leave it),
whose slope is the density, and which starts from a normal-based
approximation: Cornish-Fisher for t, Wilson-Hilferty for gamma.

Everything here is a pure function of its inputs; the parameter containers
are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGroup, DomainError, EmptyGroup, NonConvergence

_MACHEP = 2.22e-16
_MAX_ITER = 400
_NEWTON_MAX_ITER = 100  # pure bisection of the widest bracket collapses in about 60
_NEWTON_TOL = 1e-15
_NEWTON_STEP = 1e-8
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def _reg_inc_beta(a, b, x):
    """Regularised incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _digamma(x):
    """Psi function via upward recurrence plus an asymptotic tail."""
    result = 0.0
    while x < 12.0:
        result -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    result += math.log(x) - 0.5 * inv
    result -= inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
    return result


def _trigamma(x):
    result = 0.0
    while x < 12.0:
        result += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    result += inv * (1.0 + 0.5 * inv)
    result += inv * inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))
    return result


def _invert(cdf, p, x, lo, hi):
    """The point where the increasing ``cdf`` reaches ``p``, by safeguarded Newton.

    ``cdf(x)`` returns the probability and its slope, and must lie below
    ``p`` at ``lo`` and above it at ``hi``.  These analytic bounds can be
    exact, so they are widened by 1e-9 to keep a root on one of them inside
    despite rounding.  A Newton step is taken where it lands inside the
    current bracket, a bisection otherwise (``rtsafe`` in Numerical
    Recipes).  Iteration stops once the residual is within 1e-15 of ``p``
    relative, a Newton step is below 1e-8, or the bracket has collapsed.
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
        if lo < x - step < hi:
            x -= step
            if abs(step) <= _NEWTON_STEP:
                return x
        else:
            x = 0.5 * (lo + hi)
            if hi - lo <= _NEWTON_TOL or not lo < x < hi:
                return x
    return x


def _normal_quantile(p):
    """Standard normal quantile for p in (0, 1), by Newton on ``math.erfc``."""
    if p > 0.5:  # 1 - p is exact, and the lower tail keeps relative precision
        return -_normal_quantile(1.0 - p)
    # Abramowitz & Stegun 26.2.23 (absolute error below 4.5e-4) as the start
    t = math.sqrt(-2.0 * math.log(p))
    z = (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    ) - t

    def cdf(x):
        return 0.5 * math.erfc(-x * _SQRT_HALF), math.exp(-0.5 * x * x - _LOG_SQRT_2PI)

    # the normal CDF is 0 below -40 in double precision
    return _invert(cdf, p, z, -40.0, 0.0)


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def fit_gaussian(ys) -> GaussianParams:
    """Estimate mean and unbiased (n-1) variance of a target group.

    A single observation or a constant group yields variance 0; noiseless
    groups are legal inputs.

    Raises
    ------
    EmptyGroup
        If ``ys`` is empty.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        raise EmptyGroup("cannot fit a Gaussian to an empty group")
    mean = float(ys.mean())
    if ys.size == 1 or np.all(ys == ys[0]):
        return GaussianParams(mean=mean, variance=0.0)
    return GaussianParams(mean=mean, variance=float(ys.var(ddof=1)))


def gaussian_interval(params: GaussianParams, c: float):
    """Symmetric interval ``mean +/- c * sqrt(variance)`` for c >= 0, elementwise."""
    if not (math.isfinite(c) and c >= 0.0):
        raise DomainError(f"critical value must be finite and >= 0, got {c}")
    half = c * np.sqrt(params.variance)
    return params.mean - half, params.mean + half


def t_quantile(confidence: float, ndf: float) -> float:
    """Two-sided Student-t critical value: P(|T_ndf| <= c) = confidence.

    ``ndf`` may be any real >= 1; large values converge to the Gaussian
    critical value.  Solved by Newton on log(c), from the Cornish-Fisher
    expansion of the normal critical value, inside the bracket that the
    density at 0 and the Cauchy (ndf = 1) critical value give.  The result
    is as accurate as the incomplete beta function allows: within 1e-12
    relative for ndf up to 100, degrading to about 1e-9 at ndf = 1e6.
    """
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    if not _valid_ndf(ndf):
        raise DomainError(f"ndf must be finite and >= 1 (a real, not a bool), got {ndf!r}")
    half = 0.5 * ndf
    # log of twice the density at 0, the slope of P(|T| <= c) there
    log_slope0 = (
        math.log(2.0) + math.lgamma(half + 0.5) - math.lgamma(half)
        - 0.5 * math.log(ndf * math.pi)
    )

    def two_sided(r):
        # P(|T| <= c) = I_y(1/2, ndf/2) = 1 - I_(1-y)(ndf/2, 1/2) with
        # y = c^2 / (ndf + c^2), c = e^r; the smaller of y and 1 - y is the
        # one that keeps its relative precision as an argument
        c2 = math.exp(2.0 * r)
        if c2 < ndf:
            value = _reg_inc_beta(0.5, half, c2 / (ndf + c2))
        else:
            value = 1.0 - _reg_inc_beta(half, 0.5, ndf / (ndf + c2))
        return value, math.exp(log_slope0 + r - (half + 0.5) * math.log1p(c2 / ndf))

    z = -_normal_quantile(0.5 * (1.0 - confidence))
    z2 = z * z
    # Cornish-Fisher: Abramowitz & Stegun 26.7.5 in powers of 1/ndf
    start = z * (1.0 + (
        (z2 + 1.0) / 4.0 + (
            ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0 + (
                (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
                + ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0 / ndf
            ) / ndf
        ) / ndf
    ) / ndf)
    # P(|T| <= c) <= c * 2 f(0), and t critical values fall with ndf, from
    # the Cauchy value at ndf = 1 towards the normal value z
    lo = math.log(confidence) - log_slope0
    if z > 0.0:  # 0 where confidence is below double resolution at 1
        lo = max(lo, math.log(z))
    hi = math.log(math.tan(0.5 * math.pi * confidence))
    start = math.log(start) if start > 0.0 else lo
    return math.exp(_invert(two_sided, confidence, min(max(start, lo), hi), lo, hi))


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
        w = 1.0 - 1.0 / (9.0 * a) + _normal_quantile(p) / (3.0 * math.sqrt(a))
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


def _shape_rate_mle(z):
    """Newton iteration on ``log(a) - psi(a) = s`` for shifted data z > 0.

    Returns (shape, rate, converged); the caller handles fallback.
    """
    n = z.size
    mean = float(z.mean())
    s = math.log(mean) - float(np.log(z).mean())
    if not (math.isfinite(s) and s > 0.0):
        return None
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    converged = False
    for _ in range(100):
        g = math.log(a) - _digamma(a) - s
        gp = 1.0 / a - _trigamma(a)
        step = g / gp
        a_new = a - step
        if a_new <= 0.0:
            a_new = 0.5 * a
        if abs(a_new - a) <= 1e-10 * max(1.0, a):
            a = a_new
            converged = True
            break
        a = a_new
    if not (math.isfinite(a) and a > 0.0):
        return None
    return a, a / mean, converged


def _shape_rate_moments(z):
    mean = float(z.mean())
    var = float(z.var(ddof=1))
    if var <= 0.0 or mean <= 0.0:
        return None
    return mean * mean / var, mean / var


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


def _gamma_anchor(ys):
    """The minimum and mean of ``ys``, and the location anchored below the minimum.

    Raises ``DegenerateGroup`` for fewer than 3 values, all values equal, or
    a spread below the float resolution of the values.
    """
    n = ys.size
    if n < 3:
        raise DegenerateGroup(f"gamma fit needs at least 3 observations, got {n}")
    if np.all(ys == ys[0]):
        raise DegenerateGroup("gamma fit needs spread; all observations are equal")
    mn, mean = float(ys.min()), float(ys.mean())
    loc = mn - max((mean - mn) / (n - 1), 1e-9)
    if not loc < min(mn, mean):  # the anchor rounded onto the data
        raise DegenerateGroup("gamma fit needs spread above the float resolution of the values")
    return mn, mean, loc


def gamma_degeneracy(ys) -> str | None:
    """Why :func:`fit_gamma` rejects the non-empty group ``ys``, or None if it fits it."""
    try:
        _gamma_anchor(np.asarray(ys, dtype=np.float64))
    except DegenerateGroup as exc:
        return str(exc)
    return None


def fit_gamma(ys) -> GammaParams:
    """Fit shape, rate and location to a target group by maximum likelihood.

    The location is anchored below the sample minimum with the offset
    ``(mean - min) / (n - 1)``, which removes the O(1/n) upward bias of the
    raw minimum when the underlying shape is near 1 (the exponential-noise
    regime this library targets).  Shape and rate then come from Newton
    iteration on the digamma equation, with a method-of-moments fallback,
    and a first-order small-sample bias correction of the shape.  When the
    fitted shape is clearly above 1 and the group is large, the location is
    re-estimated by profile likelihood, which is consistent there while the
    sample minimum is not.

    Raises
    ------
    EmptyGroup
        If ``ys`` is empty.
    DegenerateGroup
        If fewer than 3 observations, or no spread above float resolution.
    NonConvergence
        If both the likelihood and moment estimators fail (defect signal).
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        raise EmptyGroup("cannot fit a gamma to an empty group")
    n = int(ys.size)
    mn, mean, loc = _gamma_anchor(ys)

    def fit_at(mu):
        z = ys - mu
        est = _shape_rate_mle(z)
        if est is not None and est[2]:
            return est[0], est[1]
        mom = _shape_rate_moments(z)
        if mom is not None:
            return mom
        if est is not None:
            return est[0], est[1]
        return None

    est = fit_at(loc)
    if est is None:
        raise NonConvergence("gamma shape/rate estimation failed for a valid group")
    shape, rate = est

    if shape >= 2.0 and n >= 200:
        refined = _profile_location(ys, mn, mean, loc)
        if refined is not None:
            loc, shape, rate = refined

    shape = _shape_bias_correction(shape, n)
    rate = _rate_from_mean(shape, n, mean - loc)

    if not (shape > 0.0 and rate > 0.0 and math.isfinite(shape) and math.isfinite(rate)):
        raise NonConvergence("gamma fit produced invalid parameters")
    return GammaParams(shape=shape, rate=rate, location=loc)


def _profile_location(ys, mn, mean, loc0):
    """Golden-section maximisation of the profile likelihood over location.

    Only used for shape clearly above 1, where the likelihood has an
    interior optimum in the location; returns None when no improvement over
    the minimum-anchored starting point is found.
    """
    spread = mean - mn
    low = mn - 6.0 * spread
    high = mn - 1e-10 * max(1.0, abs(mn))

    def loglik_at(mu):
        z = ys - mu
        est = _shape_rate_mle(z)
        if est is None:
            return -math.inf, None
        a, b, _ = est
        return _gamma_loglik(float(z.sum()), float(np.log(z).sum()), ys.size, a, b), (a, b)

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
    best, est = loglik_at(best_mu)
    if est is None or not (best > base + 1e-7):
        return None
    return best_mu, est[0], est[1]
