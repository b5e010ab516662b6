"""In-memory span recorder for a traced ``sckpd fit``.

Spans are recorded from outside the package: :func:`install` rebinds the
names that ``sckpd`` looks up at call time (module attributes, and the
``DataSummary.from_observations`` classmethod) to wrappers that open a span
around the original.  Spans stay in memory as ``[name, start, end, parent]``
lists, with ``parent`` the index of the enclosing span or -1, and are
written out once at the end.

A span's self time is its duration minus the time its direct children
cover.  Calls are sequential and properly nested (chains run in-process
with ``SCKPD_THREADS=1``), so the self times of all spans sum to the
duration of the root span.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from time import perf_counter

# (module, attribute, span name).  The attribute is the name the caller
# resolves at call time, so rebinding it reaches every call ``fit`` makes.
TARGETS = (
    ("sckpd.cli", "fit", "harness.fit"),
    ("sckpd.harness", "ingest_csv", "harness.ingest_csv"),
    ("sckpd.model", "DataSummary.from_observations", "model.data_summary"),
    ("sckpd.harness", "prior_targets_from_sample", "hyper.prior_targets"),
    ("sckpd.harness", "solve_hyper", "hyper.solve"),
    ("sckpd.harness", "hmc_sample", "hmc.sample"),
    ("sckpd.model", "log_posterior_grad", "model.posterior"),
    ("sckpd.dynamic", "sd_log_posterior_grad", "dynamic.posterior"),
    ("sckpd.model", "assemble_ldagger", "model.assemble_ldagger"),
    ("sckpd.harness", "diagnostics", "hmc.diagnostics"),
    ("sckpd.hmc", "effective_sample_size", "hmc.effective_sample_size"),
    ("sckpd.hmc", "split_rhat", "hmc.split_rhat"),
)

DIAGNOSTIC_SPANS = ("hmc.diagnostics", "hmc.effective_sample_size", "hmc.split_rhat")


class Tracer:
    """Collects nested spans of one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), math.nan, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Rebind every target to a traced wrapper.  Returns the targets the
    package no longer has; they are skipped, so their spans count zero."""
    missing = []
    for module_name, attr, span_name in targets:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(span_name, raw.__func__)))
        else:
            setattr(owner, leaf, tracer.wrap(span_name, raw))
    return missing


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_tree(spans) -> list[str]:
    """Problems that would break the self-time sum: a span left open, more
    than one root, or a child outside its parent's interval."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    for i, (name, start, end, parent) in enumerate(spans):
        if not end >= start:
            problems.append(f"span {i} ({name}) was never closed")
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
    return problems
