"""In-memory spans around calls into the program's public functions.

A span is a name, a start, an end and the index of its parent span. A
tracer wraps each target function and puts the wrapper wherever a bibagree
module holds the function object, so calls made through names bound by
``from .module import name`` are seen too. ``uninstall`` puts the originals
back. Functions absent from the program are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, function) -> span name. The end-to-end metrics need only this one.
PROBES = {("pipeline", "run_bootstrap"): "pipeline.bootstrap"}

# Every layer boundary of the traced run. The cli module only parses
# arguments and is left out.
LAYERS = {
    ("pipeline", "run"): "pipeline.run",
    ("corpus", "load_corpus"): "corpus.load",
    ("corpus", "assign_reviewer_roles"): "corpus.assign_roles",
    **PROBES,
    ("pipeline", "compute_pipeline_stats"): "pipeline.stats",
    ("resampling", "bootstrap_statistics"): "resampling.bootstrap",
    ("indicators", "reassign_multidisciplinary"): "indicators.reassign",
    ("pipeline", "build_series"): "pipeline.series",
    ("indicators", "compute_baselines"): "indicators.baselines",
    ("indicators", "build_indicator_table"): "indicators.table",
    ("aggregation", "aggregate"): "aggregation.aggregate",
    ("agreement", "run_agreement"): "agreement.run_agreement",
    ("resampling", "_replicate_values"): "resampling.replicate",
    ("resampling", "resample_within_areas"): "resampling.resample",
    ("resampling", "midrank_quantile"): "resampling.quantile",
    ("resampling", "coverage_report"): "resampling.coverage",
    ("pipeline", "write_report"): "pipeline.write",
    ("pipeline", "emit_figure_tables"): "pipeline.write",
}


class Tracer:
    """Records spans for the functions it wraps until uninstalled."""

    def __init__(self, targets: dict[tuple[str, str], str], capture: tuple[str, ...] = ()):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.captured: dict[str, tuple] = {}  # span name -> (function, args, kwargs) of its last call
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._install(targets, capture)

    def _install(self, targets, capture) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "bibagree" or name.startswith("bibagree.")]
        for (module_name, attr), span_name in targets.items():
            original = getattr(importlib.import_module(f"bibagree.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, span_name in capture)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def _wrap(self, name: str, fn, capture: bool):
        spans, open_spans, captured = self.spans, self._open, self.captured

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if capture:
                captured[name] = (fn, args, kwargs)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        return wrapper

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, summed duration and number of spans."""
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    count: dict[str, int] = {}
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        own[name] = own.get(name, 0.0) + s
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
    return own, inclusive, count
