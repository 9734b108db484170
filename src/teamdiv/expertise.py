"""Author expertise vectors from windowed topic counts.

An author's distribution counts the papers in their recent window that
contain each topic, normalised by the window size. Subtracting the
corpus-wide topic distribution surfaces the topics that set the author
apart; the top-k remaining topics (positive adjusted weight only) form
the expertise vector.

Weights are ratios of integer counts, so the subtraction is carried out
on cross-multiplied integers and rounded only once: an author frequency
of 7/10 against a background of 3/10 comes out as exactly 0.4.
"""
from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import AnalysisConfig, Corpus, PaperRecord, window_papers


@dataclass(frozen=True, slots=True)
class TopicDistribution:
    """Paper-containment counts per topic over a set of papers."""

    counts: Mapping[str, int]
    paper_count: int


@dataclass(frozen=True, slots=True)
class ExpertiseVector:
    """Top-k topics of one author with positive background-adjusted weights.

    ``entries`` is ordered by descending weight (ties by ascending topic id),
    so canonical serialization is deterministic.
    """

    entries: Mapping[str, float]

    @property
    def is_empty(self) -> bool:
        return not self.entries


def topic_distribution(papers: Sequence[PaperRecord]) -> TopicDistribution:
    """How many of the given papers contain each topic; zero papers count nothing."""
    counts: dict[str, int] = {}
    for paper in papers:
        for topic in paper.topics:
            counts[topic] = counts.get(topic, 0) + 1
    return TopicDistribution(counts=counts, paper_count=len(papers))


def background_distribution(corpus: Corpus) -> TopicDistribution:
    """Topic distribution over every paper in the corpus."""
    return topic_distribution(corpus.papers)


def expertise_vector(
    author_dist: TopicDistribution,
    background: TopicDistribution,
    k: int,
) -> ExpertiseVector:
    """Rank the author's topics by background-adjusted weight and keep the top k.

    Topics whose adjusted weight is zero or negative are dropped, even
    inside the top k; the result may therefore be empty. Ties are broken
    by ascending topic id. A distribution over zero papers, on either side,
    leaves no positive weight, so the vector is empty and nothing is divided.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    na = author_dist.paper_count
    nb = background.paper_count
    denominator = na * nb
    # numerator of (count_a/na - count_b/nb) over the common denominator
    scored = []
    for topic, count_a in author_dist.counts.items():
        numerator = count_a * nb - background.counts.get(topic, 0) * na
        if numerator > 0:
            scored.append((-numerator, topic))
    scored.sort()
    entries = {topic: -neg / denominator for neg, topic in scored[:k]}
    return ExpertiseVector(entries)


def profile_author(
    corpus: Corpus,
    background: TopicDistribution,
    author: str,
    as_of_year: int,
    config: AnalysisConfig,
) -> ExpertiseVector:
    """Expertise vector from the author's papers in the window before as_of_year.

    Authors with no window papers get an empty vector; downstream treats
    them as having no measurable expertise.
    """
    papers = window_papers(corpus, author, as_of_year, config.window_years)
    if not papers:
        return ExpertiseVector({})
    return expertise_vector(topic_distribution(papers), background, config.top_k)


def write_profiles(
    path: str | Path,
    profiles: Mapping[tuple[str, int], ExpertiseVector],
) -> None:
    """Dump profiles as JSONL keyed by (author, as_of_year), for audit/caching."""
    with open(path, "w", encoding="utf-8") as handle:
        for (author, year) in sorted(profiles):
            vector = profiles[(author, year)]
            record = {
                "author": author,
                "as_of_year": year,
                "topics": [
                    {"id": topic, "weight": weight}
                    for topic, weight in vector.entries.items()
                ],
            }
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
