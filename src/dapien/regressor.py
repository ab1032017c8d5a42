"""Small trainable predictors: an affine map, and one tanh hidden layer.

``LinearModel`` is a feedforward network with no hidden layer and an
identity or exponential output.  Training minimises mean squared error
(plus an optional ridge penalty on the weights, never the bias).  The
identity output is fitted exactly, by a minimum-norm solve of the ridge
normal equations; the exponential output by full-batch limited-memory BFGS
(L-BFGS, Liu & Nocedal 1989) with a backtracking Armijo line search, the
one optimiser of every iterative fit here.  The squared error is always
taken in the original target space, also for the exponential output,
matching the architecture rather than a log-transform shortcut.

Training works on cell statistics, not on raw records.  Inputs often
repeat (``train`` can take each distinct input once, with a row index per
target), and for squared error the records of one input contribute only
through their count, mean target and spread about that mean: the summed
error of an output ``o`` is ``count * (o - mean)**2 + spread``.  So each
fit sums its records into one cell per distinct input once, at its entry,
and every later step sees one row per cell, weighted by its record count;
a fit to the cells is the fit to the records, with the ridge scaled by
the record count, as it would be there.

With ``folds >= 2`` the ridge strength is picked from a fixed grid by
stratified k-fold cross validation over the cells (ranked by mean target
and dealt round-robin into folds, so a held-out input is never also
trained on) and the model is refit on all cells.  An identity fit builds
a fold's normal equations once and only adds each ridge strength to their
diagonal.  Everything is deterministic given the config seed;
exponential-output weights start at zero, a safe all-ones prediction.

``train_positive`` fits a positive target (a spread, shape or rate) and
lets the same folds choose between that exponential-output affine model
and a ``HiddenLayerModel``: tanh units, an exponential output clamped to
the training targets' range, the same squared error, and the same L-BFGS
from a seeded start whose output is all ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidTarget, InvalidPrediction, TooFewSamples

L2_GRID = (0.0, 1e-6, 1e-4, 1e-2)

# L-BFGS: sufficient-decrease constant, backtracks per line search, the
# largest gradient component at which a fit stops, and memory
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_GRADIENT_TOLERANCE = 1e-10
_LBFGS_MEMORY = 5

# the hidden-layer candidate for positive parameters (see train_positive):
# its size, ridge on the first layer, L-BFGS iteration cap in the
# cross-validation fits, and the spread of the first-layer start relative
# to 1/sqrt(dim)
HIDDEN_UNITS = 16
HIDDEN_L2 = 1e-5
HIDDEN_CV_ITERATIONS = 200
_HIDDEN_INIT_SCALE = 2.0


class Activation(Enum):
    IDENTITY = "identity"
    EXPONENTIAL = "exponential"


def _frozen_array(values, shape=None) -> np.ndarray:
    """Read-only float64 copy of finite model parameters."""
    a = np.array(values, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("model parameters must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearModel:
    """Trained weight vector, bias and output activation."""

    weights: np.ndarray
    bias: float
    activation: Activation

    def __post_init__(self):
        weights = _frozen_array(self.weights)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(_frozen_array(self.bias, ())))

    @property
    def dim(self) -> int:
        return self.weights.size

    def output(self, X: np.ndarray) -> np.ndarray:
        """Output for an input vector or (n, dim) matrix; inf where exp overflows."""
        z = X @ self.weights + self.bias
        if self.activation is Activation.EXPONENTIAL:
            with np.errstate(over="ignore"):
                return np.exp(z)
        return z

    def to_dict(self) -> dict:
        return {
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
            "activation": self.activation.value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearModel":
        return cls(
            weights=np.asarray(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
            activation=Activation(doc["activation"]),
        )


@dataclass(frozen=True)
class HiddenLayerModel:
    """One tanh hidden layer with an exponential output, clamped to a range.

    The output is ``exp(clip(v . tanh(W x + c) + b, log lower, log upper))``:
    always positive and never outside ``[lower, upper]``, the range of the
    targets it was trained on, so it cannot extrapolate or overflow.
    """

    hidden_weights: np.ndarray
    hidden_bias: np.ndarray
    output_weights: np.ndarray
    output_bias: float
    lower: float
    upper: float

    activation = Activation.EXPONENTIAL

    def __post_init__(self):
        W = _frozen_array(self.hidden_weights)
        if W.ndim != 2:
            raise ValueError("hidden_weights must be a (units, dim) matrix")
        object.__setattr__(self, "hidden_weights", W)
        for name, shape in (("hidden_bias", W.shape[:1]), ("output_weights", W.shape[:1])):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), shape))
        for name in ("output_bias", "lower", "upper"):
            object.__setattr__(self, name, float(_frozen_array(getattr(self, name), ())))
        if not 0.0 < self.lower <= self.upper:
            raise ValueError(f"need 0 < lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def dim(self) -> int:
        return self.hidden_weights.shape[1]

    def output(self, X: np.ndarray) -> np.ndarray:
        """Clamped positive output for an input vector or (n, dim) matrix."""
        z = np.tanh(X @ self.hidden_weights.T + self.hidden_bias) @ self.output_weights
        z += self.output_bias
        return np.exp(np.clip(z, math.log(self.lower), math.log(self.upper)))

    def to_dict(self) -> dict:
        return {
            "hidden_weights": self.hidden_weights.tolist(),
            "hidden_bias": self.hidden_bias.tolist(),
            "output_weights": self.output_weights.tolist(),
            "output_bias": self.output_bias,
            "lower": self.lower,
            "upper": self.upper,
            "activation": self.activation.value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HiddenLayerModel":
        if doc.get("activation") != cls.activation.value:
            raise ValueError("a hidden-layer model has an exponential output")
        return cls(
            hidden_weights=doc["hidden_weights"],
            hidden_bias=doc["hidden_bias"],
            output_weights=doc["output_weights"],
            output_bias=doc["output_bias"],
            lower=doc["lower"],
            upper=doc["upper"],
        )


def model_from_dict(doc: dict):
    """Either model type from its ``to_dict`` document."""
    if "hidden_weights" in doc:
        return HiddenLayerModel.from_dict(doc)
    return LinearModel.from_dict(doc)


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser and model-selection settings.

    ``max_iterations`` caps the L-BFGS iterations of the iterative fits
    (exponential outputs); an identity-output fit is an exact solve.
    ``folds`` is the number of cross-validation folds that pick the ridge
    strength and deal whole distinct inputs; with ``folds=1`` there is no
    selection and no ridge.
    """

    max_iterations: int = 500
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")


def child_seed(seed: int, index: int) -> int:
    """Seed of ``np.random.SeedSequence(seed).spawn(n)[index]``, any n > index."""
    child = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


def predict(model, x):
    """Model output for one input vector (a float) or each row of a (n, dim) matrix.

    Raises ``DimensionMismatch`` for any other shape, and
    ``InvalidPrediction`` where an output overflows or is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.dim:
        raise DimensionMismatch(
            f"input of shape {x.shape}, not ({model.dim},) or (n, {model.dim})"
        )
    z = model.output(x)
    if x.ndim == 1:
        z = float(z)  # checked in plain Python, several times faster than NumPy
    if not (math.isfinite(z) if x.ndim == 1 else np.isfinite(z).all()):
        raise InvalidPrediction(
            f"{model.activation.value} output overflows or is not finite for this input"
        )
    return z


def predict_batch(model, X) -> np.ndarray:
    """``predict`` restricted to a (n, dim) matrix of inputs."""
    if np.ndim(X) != 2:
        raise DimensionMismatch(f"input matrix has shape {np.shape(X)}")
    return predict(model, X)


def stratified_folds(ts, k: int, seed) -> np.ndarray:
    """Assign each sample to one of k folds, stratified on the target.

    Samples are ranked by target value (ties broken by a seeded shuffle)
    and dealt round-robin into folds, so every fold sees the full spread of
    targets and sizes differ by at most one.  ``k`` must be an integer (a
    bool is not one) and at least 1.
    """
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ts = np.asarray(ts, dtype=np.float64)
    n = ts.size
    if n < k:
        raise TooFewSamples(f"{n} samples cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(n)
    order = np.lexsort((tiebreak, ts))
    folds = np.empty(n, dtype=np.int64)
    folds[order] = np.arange(n) % k
    return folds


def loss_and_gradient(w, b, X, t, activation, l2, weights=None):
    """Squared error + ridge objective and its analytic gradient in (w, b).

    Row ``i`` of ``X`` counts ``weights[i]`` times (once each without
    weights) in the mean.  With the record counts of cells as weights and
    their mean targets as ``t`` the objective differs from the records'
    by a constant, so the two share their gradient and minimiser.  Returns
    ``(loss, gw, gb)``, or ``(inf, None, None)`` where the output
    overflows; callers may silence that warning.
    """
    c = np.ones(X.shape[0]) if weights is None else weights
    n = float(c.sum())
    z = X @ w + b
    if activation is Activation.EXPONENTIAL:
        p = np.exp(z)
        r = p - t
        gz = (2.0 / n) * c * r * p
    else:
        r = z - t
        gz = (2.0 / n) * c * r
    loss = float((c * r) @ r) / n + l2 * float(w @ w)
    if not math.isfinite(loss):
        return math.inf, None, None
    gw = X.T @ gz + 2.0 * l2 * w
    gb = float(gz.sum())
    return loss, gw, gb


def _normal_equations(X, c, t):
    """Gram matrix and right-hand side of least squares with a bias column.

    Row ``i`` of ``X``, with target ``t[i]``, counts ``c[i]`` times.
    """
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    return (A * c[:, None]).T @ A, A.T @ (c * t)


def _solve_ridge(G, rhs, ridge):
    """Exact identity-output fit: (weights, bias) from the normal equations.

    Solves ``(G + ridge D) theta = rhs``, with ``D`` the identity minus its
    bias entry, by minimum-norm least squares: a rank-deficient design gets
    the solution that gradient descent from zero converges to.
    """
    dim = G.shape[0] - 1
    G = G.copy()
    G[np.arange(dim), np.arange(dim)] += ridge
    theta = np.linalg.lstsq(G, rhs, rcond=None)[0]
    return theta[:-1], float(theta[-1])


class _Cells(NamedTuple):
    """Distinct inputs with their record count (floats), mean target and spread."""

    inputs: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    spread: np.ndarray

    def where(self, mask) -> "_Cells":
        return _Cells(*(a[mask] for a in self))


def _sum_cells(xs, ts, activation, rows=None) -> _Cells:
    """Validated training records summed into one cell per input row present.

    Without ``rows`` every target has its own input row.  Exponential
    targets are floored at 1e-9, record by record, before averaging.
    """
    X = np.asarray(xs, dtype=np.float64)
    t = np.asarray(ts, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"inputs must form a (n, dim) matrix, got shape {X.shape}")
    if t.size < 1 or (rows is None and X.shape[0] != t.size):
        raise ValueError(f"got {X.shape[0]} inputs and {t.size} targets")
    rows = np.arange(t.size) if rows is None else np.asarray(rows)
    if rows.dtype.kind not in "iu" or rows.shape != (t.size,):
        raise DimensionMismatch(
            f"need one integer row index per target ({t.size}), got shape "
            f"{rows.shape} of {rows.dtype}"
        )
    if rows.min() < 0 or rows.max() >= X.shape[0]:
        raise DimensionMismatch(
            f"row indices must lie in [0, {X.shape[0]}), got [{rows.min()}, {rows.max()}]"
        )
    if not np.all(np.isfinite(t)):
        raise InvalidTarget("targets must be finite")
    if activation is Activation.EXPONENTIAL:
        t = np.maximum(t, 1e-9)
    count = np.bincount(rows, minlength=X.shape[0]).astype(np.float64)
    mean = np.bincount(rows, weights=t, minlength=X.shape[0]) / np.maximum(count, 1.0)
    dev = t - mean[rows]
    spread = np.bincount(rows, weights=dev * dev, minlength=X.shape[0])
    present = count > 0
    return _Cells(X[present], count[present], mean[present], spread[present])


def _held_out_error(output, cells: _Cells) -> float:
    """MSE over the records of some cells, given the output at each cell."""
    _, count, mean, spread = cells
    r = output - mean
    return (float(np.sum(count * r * r)) + float(spread.sum())) / float(count.sum())


def _affine_objective(X, t, c, activation, l2):
    """``loss_and_gradient`` on weighted rows as a function of ``(w, b)``.

    The module attribute is looked up at every call, so a wrapper installed
    on it (a call counter, say) sees every evaluation.
    """

    def objective(theta):
        loss, gw, gb = loss_and_gradient(theta[:-1], theta[-1], X, t, activation, l2, c)
        return loss, (None if gw is None else np.append(gw, gb))

    return objective


def _ridge_fits(cells: _Cells, activation, config):
    """``fit(l2)``: the LinearModel at ridge strength ``l2`` on some cells.

    Each cell's input row stands for its records, so the ridge is scaled
    by the record count, as a fit to the records would scale it.  An
    identity fit solves normal equations built once for every ``l2``; an
    exponential one runs L-BFGS from zero weights, whose output is all
    ones.
    """
    X, c, t, _ = cells
    if activation is Activation.IDENTITY:
        G, rhs = _normal_equations(X, c, t)
        n = float(c.sum())
        return lambda l2: LinearModel(*_solve_ridge(G, rhs, n * l2), activation)

    def fit(l2):
        objective = _affine_objective(X, t, c, activation, l2)
        theta = _lbfgs(objective, np.zeros(X.shape[1] + 1), config.max_iterations)
        return LinearModel(weights=theta[:-1], bias=theta[-1], activation=activation)

    return fit


def _folds(cells: _Cells, config):
    """Fold of every cell for model selection, or None when it is disabled."""
    k = min(config.folds, cells.mean.size)
    return stratified_folds(cells.mean, k, config.seed) if k >= 2 else None


def _fit_affine(cells: _Cells, activation, config, fold_of):
    """LinearModel with its ridge picked on ``fold_of``, and that CV error.

    The ridge strength is the one of ``L2_GRID`` with the least mean
    held-out MSE.  Without folds there is no ridge and the error is None.
    """
    l2, cv_error = 0.0, None
    if fold_of is not None:
        k = int(fold_of.max()) + 1
        errors = [0.0] * len(L2_GRID)
        for j in range(k):
            held = fold_of == j
            fit = _ridge_fits(cells.where(~held), activation, config)
            test = cells.where(held)
            for i, grid_l2 in enumerate(L2_GRID):
                errors[i] += _held_out_error(fit(grid_l2).output(test.inputs), test)
        cv_error = np.inf
        for grid_l2, err in zip(L2_GRID, errors):
            err /= k
            # only a clear improvement replaces the best: where ridge strengths
            # tie exactly (a rank-deficient fold), rounding must not pick one
            if err < cv_error * (1.0 - 1e-12):
                l2, cv_error = grid_l2, err
    return _ridge_fits(cells, activation, config)(l2), cv_error


def train(
    xs, ts, activation: Activation, config: TrainConfig, rows=None
) -> LinearModel:
    """Fit a LinearModel to (input, target) pairs.

    Without ``rows``, ``xs[i]`` is the input of target ``ts[i]``.  With
    ``rows``, ``xs`` holds distinct inputs and ``xs[rows[i]]`` is the input
    of ``ts[i]``: repeated inputs are stored once.  For the exponential
    output, targets are floored at 1e-9 before training so zero-spread
    groups remain usable.  With ``config.folds >= 2`` the ridge strength
    is selected from ``L2_GRID`` by stratified cross validation whose
    folds deal whole inputs; with ``folds=1`` the fit has no ridge and is
    the one a fit to ``xs[rows]`` gives, up to rounding.  An identity
    output is an exact solve, an exponential one runs L-BFGS for at most
    ``config.max_iterations`` iterations.

    Raises
    ------
    InvalidTarget
        On non-finite targets.
    DimensionMismatch
        When ``xs`` is not a matrix or ``rows`` not one in-range index per target.
    """
    cells = _sum_cells(xs, ts, activation, rows)
    return _fit_affine(cells, activation, config, _folds(cells, config))[0]


def hidden_loss_and_gradient(theta, U, t, units, l2):
    """MSE of the hidden-layer net's exponential output, and its gradient.

    ``U`` is the (n, dim + 1) input matrix with a trailing column of ones
    and ``theta`` holds the first layer as a (dim + 1, units) matrix
    (weights, then a bias row), the output weights and the output bias.
    The ridge penalty ``l2`` applies to the first-layer weights only, and
    the squared error is taken in the original target space.  Returns
    ``(inf, None)`` where the output overflows; callers may silence that
    warning.
    """
    n, cols = U.shape
    split = cols * units
    A = theta[:split].reshape(cols, units)
    W = A[:-1]
    v = theta[split:-1]
    H = np.tanh(U @ A)
    p = np.exp(H @ v + theta[-1])
    r = p - t
    loss = float(r @ r) / n + l2 * float(np.vdot(W, W))
    if not math.isfinite(loss):
        return math.inf, None
    gz = r * p
    gz *= 2.0 / n
    # d loss / d(U A) is gz v^T (1 - H^2); v is applied after the product
    D = H * H
    np.subtract(1.0, D, out=D)
    D *= gz[:, None]
    grad = np.empty_like(theta)
    gA = grad[:split].reshape(cols, units)
    np.matmul(U.T, D, out=gA)
    gA *= v
    gA[:-1] += (2.0 * l2) * W
    np.matmul(gz, H, out=grad[split:-1])
    grad[-1] = gz.sum()
    return loss, grad


@np.errstate(over="ignore")
def _lbfgs(objective, theta, max_iterations):
    """Limited-memory BFGS with Armijo backtracking; returns the minimiser.

    ``objective(theta)`` returns the loss and its gradient; a loss of
    ``inf`` (an overflow, whose warning is silenced once per fit rather
    than once per trial) fails the line search, which halves the step.
    Stops at ``max_iterations``, when the largest gradient component
    drops to ``_GRADIENT_TOLERANCE``, or when no step along the search
    direction decreases the objective.
    """
    loss, g = objective(theta)
    pairs = []
    for _ in range(max_iterations):
        if np.max(np.abs(g)) <= _GRADIENT_TOLERANCE:
            break
        # two-loop recursion: direction = -(inverse Hessian estimate) g
        q = g.copy()
        coefs = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            q -= a * y
            coefs.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            q *= float(s @ y) / float(y @ y)
        else:
            q /= max(float(np.linalg.norm(g)), 1e-300)
        for (s, y, rho), a in zip(pairs, reversed(coefs)):
            q += (a - rho * float(y @ q)) * s
        direction = -q
        gd = float(g @ direction)
        if gd >= 0.0:
            pairs.clear()
            direction = -g / max(float(np.linalg.norm(g)), 1e-300)
            gd = float(g @ direction)

        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            candidate = theta + step * direction
            cand_loss, cand_g = objective(candidate)
            if cand_loss <= loss + _ARMIJO_C1 * step * gd:
                break
            step *= 0.5
        else:
            break
        if not cand_loss < loss:
            break
        s = candidate - theta
        y = cand_g - g
        sy = float(s @ y)
        if sy > 1e-12 * float(y @ y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > _LBFGS_MEMORY:
                pairs.pop(0)
        theta, loss, g = candidate, cand_loss, cand_g
    return theta


def _hidden_init(dim, seed) -> np.ndarray:
    """Seeded start: random tanh units, zero output weights (output 1)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    W = rng.normal(0.0, _HIDDEN_INIT_SCALE / math.sqrt(dim), (HIDDEN_UNITS, dim))
    c = rng.normal(0.0, 1.0, (HIDDEN_UNITS, 1))
    return np.concatenate([np.hstack([W, c]).T.ravel(), np.zeros(HIDDEN_UNITS + 1)])


def _fit_hidden(X, t, theta0, max_iterations) -> HiddenLayerModel:
    """Hidden-layer fit from ``theta0``, clamped to the range of ``t``.

    Training sees the inputs centred to {-1, +1}, which conditions the
    problem far better than {0, 1}; the centring is folded back into the
    first layer so the returned model takes the raw bits.
    """
    U = np.hstack([2.0 * X - 1.0, np.ones((X.shape[0], 1))])
    theta = _lbfgs(
        lambda th: hidden_loss_and_gradient(th, U, t, HIDDEN_UNITS, HIDDEN_L2),
        theta0,
        max_iterations,
    )
    split = U.shape[1] * HIDDEN_UNITS
    A = theta[:split].reshape(U.shape[1], HIDDEN_UNITS)
    W, c = A[:-1], A[-1]
    return HiddenLayerModel(
        hidden_weights=2.0 * W.T,
        hidden_bias=c - W.sum(axis=0),
        output_weights=theta[split:-1],
        output_bias=theta[-1],
        lower=float(t.min()),
        upper=float(t.max()),
    )


def train_positive(xs, ts, config: TrainConfig):
    """Regressor for a positive parameter: affine or one hidden layer.

    ``xs[i]`` is the input of ``ts[i]``, so every target is its own cell.
    The exponential-output affine model is fit just as ``train`` fits
    it.  With ``config.folds >= 2`` a second candidate, ``HIDDEN_UNITS``
    tanh units with an exponential output trained on the same squared
    error, is scored on the same folds that pick the affine model's ridge
    strength, and whichever has the lower mean held-out error is returned,
    fit on all data.  The hidden layer can represent spreads that no
    ``exp(w.x + b)`` can, such as noise that switches with the parity of
    the bit sum.  Its fold fits stop after ``HIDDEN_CV_ITERATIONS``, since
    every positive parameter pays for them; the one refit of a winner gets
    the full ``config.max_iterations``.
    """
    cells = _sum_cells(xs, ts, Activation.EXPONENTIAL)
    fold_of = _folds(cells, config)
    affine, affine_err = _fit_affine(cells, Activation.EXPONENTIAL, config, fold_of)
    if fold_of is None:
        return affine
    theta0 = _hidden_init(cells.inputs.shape[1], config.seed)
    cv_iterations = min(config.max_iterations, HIDDEN_CV_ITERATIONS)
    k = int(fold_of.max()) + 1
    hidden_err = 0.0
    for j in range(k):
        held = fold_of == j
        fit, test = cells.where(~held), cells.where(held)
        model = _fit_hidden(fit.inputs, fit.mean, theta0, cv_iterations)
        hidden_err += _held_out_error(model.output(test.inputs), test)
        if hidden_err >= k * affine_err:
            return affine  # no remaining fold can bring its mean below affine_err
    return _fit_hidden(cells.inputs, cells.mean, theta0, config.max_iterations)
