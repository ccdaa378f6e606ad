"""Span tracing at the package's module boundaries, kept in memory.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in ``Tracer.spans``, or -1 for a top-level call.  The tracer
records spans by replacing public functions with timing wrappers at the
place where their callers look them up, and puts the originals back on
:meth:`Tracer.restore`.  Everything is single-threaded: the benchmark keeps
``TUBALSKETCH_WORKERS`` unset, so the harness runs one task at a time.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

import numpy as np

from tubalsketch import analysis, harness, sketching, solvers, t_algebra
from tubalsketch import io as tio

# (owner, attribute, span name): each public function is patched where the
# package itself looks it up, so calls between modules are seen.
PATCH_POINTS = (
    (harness, "solve", "solvers.solve"),
    (harness, "tprod", "t_algebra.tprod"),
    (harness, "generate_problem", "harness.generate_problem"),
    (solvers, "make_state", "solvers.make_state"),
    (solvers, "select_index", "solvers.select_index"),
    (sketching, "is_complete_discrete_sampling", "sketching.complete_check"),
    (sketching, "sample_index", "sketching.sample_index"),
    (sketching.SketchSet, "member_hat", "sketching.member_hat"),
    (tio, "write_trace", "io.write_trace"),
    (tio, "write_curve", "io.write_curve"),
    (analysis, "expected_projector", "analysis.expected_projector"),
    (analysis, "per_slice_rates", "analysis.per_slice_rates"),
    (analysis, "estimate_delta_inf", "analysis.estimate_delta_inf"),
    (analysis, "closed_form_rate_bounds", "analysis.closed_form_rate_bounds"),
    (analysis, "tprod_oracle", "t_algebra.tprod_oracle"),
    (analysis, "bcirc", "t_algebra.bcirc"),
    (analysis, "tpinv", "t_algebra.tpinv"),
    (t_algebra, "bcirc", "t_algebra.bcirc"),
)


def state_bytes(state):
    """Bytes of every array a solver state holds once setup is done."""
    total = 0
    pending = list(vars(state).values())
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            pending.extend(value)
    return total


class Tracer:
    """Records spans of patched calls; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.state_bytes = []  # state_bytes() of every state make_state built
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self):
        for owner, attr, name in PATCH_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            traced = self.wrap(name, original)
            if attr == "make_state":
                traced = self._keep_state_bytes(traced)
            setattr(owner, attr, traced)

    def _keep_state_bytes(self, make_state):
        # outside the make_state span, so the sizing is not counted as setup
        @functools.wraps(make_state)
        def measured(*args, **kwargs):
            state = make_state(*args, **kwargs)
            self.state_bytes.append(state_bytes(state))
            return state

        return measured

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus that of its direct children; the
    run is single-threaded, so children never overlap.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        own[name] += end - start - children[index]
    return calls, inclusive, own


def write_spans(path, traced_passes):
    """Write the spans of every traced pass, times relative to its first span."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "index", "name", "start_s", "end_s", "parent"])
        for number, tracer in enumerate(traced_passes):
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                writer.writerow(
                    [number, index, name, repr(start - origin), repr(end - origin), parent]
                )
