"""Independent oracles shared by the test modules.

The numerical ones are deliberately written from the mathematical
definitions (densities integrated by adaptive quadrature, roots found by
brentq) and never call into the package's own CDF/quantile code.  The CSV
one parses every row with ``csv.reader`` into ``Sample``s, the way
``read_csv`` once did, and checks them with ``as_records``.
"""

import csv
import math
from pathlib import Path

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
