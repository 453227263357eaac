"""Institution x area units, the rows of the institutional comparison.

A unit holds the kept publications of one institution in one area and the
mean of each score series over them: the size-independent view. The
size-dependent view, the total, is the publication count times the mean.
"""

from __future__ import annotations

from typing import NamedTuple


class InstitutionAggregate(NamedTuple):
    institution_id: str
    area_id: str
    pub_count: int
    means: tuple[float, ...]  # one per series, in table.SERIES_LABELS order
