"""In-memory span tracer that wraps dapien's functions from outside.

A wrapper replaces a module attribute, so it only sees calls that look the
name up in that module: ``dapien.cli.bootstrap_fit`` catches the CLI's
calls, ``dapien.bootstrap.train`` the bootstrap's calls into the regressor.
Every wrapped call records a span ``(name, start, end, parent)``; self time
is a span's duration minus the time its child spans cover.  Counters are
kept at the same boundaries.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Spans, self times and counters for one traced region of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1), in order of entry
        self.spans: list[tuple | None] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, note=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``note(tracer, args, kwargs, result)`` updates
        counters after a call that returned.
        """
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            layer = span_name.split(".", 1)[0]
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_s[span_name] += duration - frame[1]
                tracer.calls[span_name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (tracer._name_id(span_name), start, end, parent)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        return traced

    def count_calls(self, fn, counter):
        """Return ``fn`` counting its calls under ``counter``, without spans."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing --------------------------------------------------------

    def install(self, plan):
        """Replace each ``(module, attribute)`` of ``plan`` by its wrapper.

        ``plan`` yields ``(module, attribute, name, note)``; ``name`` None
        means count calls under ``note`` instead of recording spans.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, note in plan:
            original = getattr(module, attr)
            if name is None:
                wrapper = self.count_calls(original, note)
            else:
                wrapper = self.wrap(original, name, note)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Write every span as a compressed numpy archive."""
        records = np.array(
            [s for s in self.spans if s is not None],
            dtype=[("name", "i4"), ("start", "f8"), ("end", "f8"), ("parent", "i8")],
        )
        tmp = f"{path}.tmp.npz"
        np.savez_compressed(tmp, spans=records, names=np.array(self.names))
        os.replace(tmp, path)
