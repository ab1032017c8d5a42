"""One hypothesis profile for the whole suite: examples come from a fixed
seed, so every property test draws the same cases on every run, and no
per-example deadline makes a slow machine fail a test.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` only
when a property fails, and through libcst that import can emit a
``DeprecationWarning``.  Inside a test marked ``filterwarnings("error")``
the warning became an error in pytest's own reporting and ended the run
with an INTERNALERROR, hiding every later result.  Imported here once,
with its warnings caught, the module is not imported again inside a test;
without libcst the import fails, and the plugin then skips it too.
"""

import contextlib
import warnings

from hypothesis import settings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("dapien", derandomize=True, deadline=None)
settings.load_profile("dapien")
