"""Per-paper diversity metrics over author expertise vectors.

Two metrics per paper, both taken from the same pairwise cosine distances:
the maximum distance within the team, and the number of connected
components of the author-similarity graph (edge when a pair's distance
falls below the threshold). ``paper_diversity`` computes each member's
vector norm once and each pair's distance once, and folds the distance into
both metrics; the per-pair work is the dot product over shared topics.
Component counts map onto four ordered diversity categories.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path

from .expertise import ExpertiseVector

# distances below this are float drift between proportional vectors
_CLAMP = 1e-12


class DiversityCategory(str, Enum):
    LOW = "low"
    MODERATE = "moderate"
    HIGH = "high"
    VERY_HIGH = "very_high"


CATEGORIES: tuple[DiversityCategory, ...] = tuple(DiversityCategory)


@dataclass(frozen=True, slots=True)
class PaperDiversity:
    """Diversity metrics for one paper.

    ``max_distance`` is None when fewer than two authors had nonempty
    expertise vectors; such papers still get a component count (authors
    without a profile stay as isolated vertices, tallied in
    ``excluded_authors``).
    """

    paper_id: str
    n_authors: int
    pair_count: int
    max_distance: float | None
    n_components: int
    category: DiversityCategory
    excluded_authors: int


def _norm(entries: Mapping[str, float]) -> float:
    return math.sqrt(math.fsum(w * w for w in entries.values()))


def _distance(a: Mapping[str, float], b: Mapping[str, float], norms: float) -> float:
    """Cosine distance of two nonempty vectors, given the product of their norms."""
    if len(b) < len(a):
        a, b = b, a
    shared = [w * b[t] for t, w in a.items() if t in b]
    if not shared:
        return 1.0
    # fsum keeps the dot product independent of summation order, so the
    # distance is exactly symmetric in its arguments
    distance = 1.0 - math.fsum(shared) / norms
    # The only code that decides the endpoints. Exact 1 (no shared topic) came
    # back above; a shared topic whose similarity is under ~6e-17 rounds this
    # to 1.0, so it is kept just below 1. The few-ulp drift of proportional
    # vectors snaps onto 0.
    if distance < _CLAMP:
        return 0.0
    return distance if distance < 1.0 else math.nextafter(1.0, 0.0)


def categorize(n_components: int) -> DiversityCategory:
    """Map a component count onto the four-level diversity scale."""
    if n_components < 1:
        raise ValueError("component count must be >= 1")
    if n_components <= 2:
        return DiversityCategory.LOW
    if n_components <= 4:
        return DiversityCategory.MODERATE
    if n_components <= 6:
        return DiversityCategory.HIGH
    return DiversityCategory.VERY_HIGH


def paper_diversity(
    paper_id: str,
    team: Sequence[ExpertiseVector],
    threshold: float,
    inclusive: bool = False,
) -> PaperDiversity:
    """Evaluate both metrics and the category for one paper's team.

    One pass over the pairs of members with nonempty vectors: each pair's
    distance feeds the running maximum and, when it is below the threshold
    (or equal to it with ``inclusive``), joins the pair in a union-find.
    Members with empty vectors stay isolated vertices.
    """
    if not team:
        raise ValueError("team must be nonempty")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    usable = [v.entries for v in team if not v.is_empty]
    norms = [_norm(entries) for entries in usable]
    n = len(usable)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    largest = 0.0
    unions = 0
    for i, u in enumerate(usable):
        norm_i = norms[i]
        for j in range(i):
            d = _distance(u, usable[j], norm_i * norms[j])
            if d > largest:
                largest = d
            if d < threshold or (inclusive and d == threshold):
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[root_i] = root_j
                    unions += 1
    n_components = len(team) - unions
    return PaperDiversity(
        paper_id=paper_id,
        n_authors=len(team),
        pair_count=n * (n - 1) // 2,
        max_distance=largest if n >= 2 else None,
        n_components=n_components,
        category=categorize(n_components),
        excluded_authors=len(team) - n,
    )


def write_metrics_csv(path: str | Path, metrics: Iterable[PaperDiversity]) -> None:
    """One row per paper, one column per field of ``PaperDiversity``.

    ``csv`` writes None as an empty field, a float as its repr and the
    category, a str enum, as its value.
    """
    names = [f.name for f in fields(PaperDiversity)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(map(attrgetter(*names), metrics))
