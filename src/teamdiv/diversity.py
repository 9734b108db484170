"""Per-paper diversity metrics over author expertise vectors.

Two metrics per paper, both taken from the same pairwise cosine distances:
the maximum distance within the team, and the number of connected
components of the author-similarity graph (edge when a pair's distance
falls below the threshold). ``paper_diversity`` is the one implementation
of both, and the scoring pass, ``report._score_by_year``, calls it once per
paper. It computes each pair's cosine distance once, inline, from the norms
the vectors carry (each computed once, when its vector is built), and folds
it into both metrics; the per-pair work is the dot product over shared
topics. Component counts map onto four ordered diversity categories.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
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


# the distance of a pair that shares a topic but whose similarity rounds to 0
_BELOW_ONE = math.nextafter(1.0, 0.0)


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
    cosine distance, from the dot product over shared topics and the norms
    the vectors carry, feeds the running maximum and, when it is below the
    threshold (or equal to it with ``inclusive``), joins the pair in a
    union-find. Members with empty vectors stay isolated vertices.
    """
    if not team:
        raise ValueError("team must be nonempty")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    usable = [v for v in team if v.entries]
    n = len(usable)
    parent = list(range(n))
    fsum = math.fsum
    largest = 0.0
    unions = 0
    for i in range(1, n):
        u = usable[i]
        a = u.entries
        norm_a = u.norm
        for j in range(i):
            v = usable[j]
            b = v.entries
            if len(b) < len(a):
                small, big = b, a
            else:
                small, big = a, b
            shared = []
            for t, w in small.items():
                if t in big:
                    shared.append(w * big[t])
            if shared:
                # fsum keeps the dot product independent of summation order,
                # so the distance is exactly symmetric in the pair
                d = 1.0 - fsum(shared) / (norm_a * v.norm)
                # The only code that decides the endpoints. Exact 1 means no
                # shared topic; a shared topic whose similarity is under ~6e-17
                # rounds this to 1.0, so it is kept just below 1. The few-ulp
                # drift of proportional vectors snaps onto 0.
                if d < _CLAMP:
                    d = 0.0
                elif not d < 1.0:
                    d = _BELOW_ONE
            else:
                d = 1.0
            if d > largest:
                largest = d
            if d < threshold or (inclusive and d == threshold):
                # union-find by index, halving the path to each root
                root_i = i
                while parent[root_i] != root_i:
                    parent[root_i] = parent[parent[root_i]]
                    root_i = parent[root_i]
                root_j = j
                while parent[root_j] != root_j:
                    parent[root_j] = parent[parent[root_j]]
                    root_j = parent[root_j]
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
