"""Machine-speed reference for the benchmark's timings.

The reference machine is shared with other machines' work and switches
between speed regimes, for minutes at a time, that differ by up to 1.7x in
the time of one ``pipeline.run``. A run therefore also times a fixed piece of
pure-Python work (dict building, sorting strings, float sums: the kind of
work the pipeline does) just before each timed step, and scales the
step's time by NOMINAL_S over that reference time. A timing is thus in
seconds of a machine on which the reference takes NOMINAL_S, near this
machine's fast regime. The reference work must never change.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.05
ROUNDS = 8
_KEYS = [f"P-U{(i * 7919) % 997:03d}-{i:05d}" for i in range(5000)]


def _round() -> float:
    table = {}
    for i, key in enumerate(_KEYS):
        table[key] = (float(i), key[:6], i % 13)
    rows = sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
    total = 0.0
    for _, (x, _, m) in rows:
        total += x * m
    return total


def reference_s() -> float:
    """Seconds taken by ROUNDS rounds of the reference work."""
    t0 = perf_counter()
    for _ in range(ROUNDS):
        _round()
    return perf_counter() - t0


def scale(reference_times: list[float]) -> float:
    """Factor that turns seconds into nominal seconds, from the reference
    times taken just before the timed step."""
    return NOMINAL_S / statistics.median(reference_times)
