"""Independent oracles shared by the test modules.

The numerical ones are deliberately written from the mathematical
definitions (densities integrated by adaptive quadrature, roots found by
brentq) and never call into the package's own CDF/quantile code.  The CSV
reader parses every row with ``csv.reader`` into ``Sample``s, the way
``read_csv`` once did, and checks them with ``as_records``; the CSV writer
joins the one generator of lines that ``csv_lines`` once returned.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from dapien.errors import InvalidRecord, RaggedFeatures
from dapien.grouping import Sample, as_records


def gamma_pdf_reference(t, shape, rate, loc):
    """Three-parameter gamma density, written from its definition."""
    if t <= loc:
        return 0.0
    z = t - loc
    return math.exp(
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * math.log(z)
        - rate * z
    )


def gamma_quantile_quadrature(p, shape, rate, loc):
    """Invert the quadrature CDF of the reference gamma density."""

    def cdf(z):
        val, _ = integrate.quad(
            gamma_pdf_reference, loc, z, args=(shape, rate, loc), limit=400
        )
        return val

    hi = loc + (shape + 10.0) / rate
    while cdf(hi) < p:
        hi = loc + 2.0 * (hi - loc)
    return optimize.brentq(lambda z: cdf(z) - p, loc + 1e-300, hi, xtol=1e-13)


def t_two_sided_quadrature(confidence, ndf):
    """Two-sided critical value from quadrature of the Student-t density."""
    lognorm = (
        math.lgamma(0.5 * (ndf + 1.0))
        - math.lgamma(0.5 * ndf)
        - 0.5 * math.log(ndf * math.pi)
    )

    def pdf(t):
        return math.exp(lognorm - 0.5 * (ndf + 1.0) * math.log1p(t * t / ndf))

    def two_sided(c):
        val, _ = integrate.quad(pdf, 0.0, c, limit=400)
        return 2.0 * val

    hi = 1.0
    while two_sided(hi) < confidence:
        hi *= 2.0
    return optimize.brentq(lambda c: two_sided(c) - confidence, 0.0, hi, xtol=1e-12)


def gamma_anchor_reference(ys):
    """One group's gamma anchor ``(min, mean, location, s)`` from its own 1-D reductions.

    This is the anchor ``fit_gamma`` computed group by group: s is
    ``math.log`` of the mean z less the mean of ``np.log`` z.  A degenerate
    group gets None.
    """
    ys = np.asarray(ys, dtype=np.float64)
    n = ys.size
    if n < 3 or np.all(ys == ys[0]):
        return None
    with np.errstate(all="ignore"):
        mn, mean = float(ys.min()), float(ys.mean())
    if not abs(mean) < math.inf:
        return None
    loc = mn - max((mean - mn) / (n - 1), 1e-9)
    if not loc < min(mn, mean):
        return None
    z = ys - loc
    s = math.log(float(z.mean())) - float(np.log(z).mean())
    return (mn, mean, loc, s) if math.isfinite(s) and s > 0.0 else None


def read_csv_reference(path):
    """A dataset CSV read row by row with ``csv.reader``: one ``Sample`` per record."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidRecord(f"{path}: empty file, expected a header row") from None
        if len(header) < 2 or header[-1] != "y":
            raise InvalidRecord(f"{path}: expected header x_0..x_{{d-1}},y")
        d = len(header) - 1
        samples = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise RaggedFeatures(f"{path}: row {i} has {len(row)} cells, expected {d + 1}")
            try:
                samples.append(Sample(tuple(map(int, row[:d])), float(row[d])))
            except ValueError as exc:
                raise InvalidRecord(f"{path}: row {i}: {exc}") from None
    return as_records(samples)


def csv_text_reference(samples, **columns):
    """The whole CSV text of records and one float column per distinct input, in one string."""
    records = as_records(samples)
    header = ",".join([f"x_{j}" for j in range(len(records.inputs[0]))] + ["y", *columns])
    heads = [",".join(map(str, x)) + "," for x in records.inputs]
    table = np.asarray(list(columns.values()), dtype=np.float64).reshape(len(columns), len(heads))
    tails = ["".join("," + repr(v) for v in row) + "\r\n" for row in table.T.tolist()]
    index, targets = records.index.tolist(), records.targets.tolist()
    return header + "\r\n" + "".join(heads[i] + repr(y) + tails[i] for i, y in zip(index, targets))
