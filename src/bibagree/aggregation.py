"""Institutional aggregates of per-publication scores.

Aggregates are per (institution, area) and carry both the size-independent
view (mean over the institution's publications) and the size-dependent view
(sum, i.e. publication count times mean).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InstitutionAggregate:
    institution_id: str
    area_id: str
    pub_count: int
    mean_score: dict[str, float]
    total_score: dict[str, float]
