"""Author expertise vectors from windowed topic counts.

An author's distribution counts the papers in their recent window that
contain each topic, normalised by the window size. Subtracting the
corpus-wide topic distribution surfaces the topics that set the author
apart; the top-k remaining topics (positive adjusted weight only) form
the expertise vector.

Weights are ratios of integer counts, so the subtraction is carried out
on cross-multiplied integers and rounded only once: an author frequency
of 7/10 against a background of 3/10 comes out as exactly 0.4.

Each step has one implementation, shared by ``profile_author`` and by the
scoring pass, ``report._score_by_year``, which calls the steps directly:
``corpus._window_bounds`` finds the window, ``_count_topics`` counts its
topics, ``_top_k`` keeps the top k, and ``ExpertiseVector`` computes its
norm once, when it is built, for every distance it takes part in.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import AnalysisConfig, Corpus, PaperRecord, window_papers


@dataclass(frozen=True, slots=True)
class TopicDistribution:
    """Paper-containment counts per topic over a set of papers."""

    counts: Mapping[str, int]
    paper_count: int


def _norm(entries: Mapping[str, float]) -> float:
    """Euclidean norm of the weights."""
    return math.sqrt(math.fsum([w * w for w in entries.values()]))


@dataclass(frozen=True, slots=True, init=False)
class ExpertiseVector:
    """Top-k topics of one author with positive background-adjusted weights.

    ``entries`` is ordered by descending weight (ties by ascending topic id),
    so canonical serialization is deterministic. ``norm`` is the Euclidean
    norm of the weights, computed once, when the vector is built, for every
    distance it takes part in; ``entries`` is not changed afterwards.
    """

    entries: Mapping[str, float]
    norm: float = field(init=False, repr=False, compare=False)

    def __init__(self, entries: Mapping[str, float]) -> None:
        # the slot setters: a frozen dataclass's own __init__ sets each field
        # through object.__setattr__, which costs about as much again
        _set_entries(self, entries)
        _set_norm(self, _norm(entries))

    @property
    def is_empty(self) -> bool:
        return not self.entries


_set_entries = ExpertiseVector.entries.__set__
_set_norm = ExpertiseVector.norm.__set__


def _count_topics(papers: Sequence[PaperRecord]) -> dict[str, int]:
    """How many of the given papers contain each topic."""
    counts: dict[str, int] = {}
    get = counts.get
    for paper in papers:
        for topic in paper.topics:
            counts[topic] = get(topic, 0) + 1
    return counts


def _top_k(
    counts: Mapping[str, int],
    na: int,
    background_counts: Mapping[str, int],
    nb: int,
    k: int,
) -> dict[str, float]:
    """The entries of ``expertise_vector`` for ``counts`` over ``na`` papers
    against ``background_counts`` over ``nb``: the k largest positive
    numerators, ties by ascending topic, each divided once by ``na * nb``."""
    denominator = na * nb
    get = background_counts.get
    # numerator of (count_a/na - count_b/nb) over the common denominator
    scored = []
    for topic, count_a in counts.items():
        numerator = count_a * nb - get(topic, 0) * na
        if numerator > 0:
            scored.append((-numerator, topic))
    scored.sort()
    return {topic: -neg / denominator for neg, topic in scored[:k]}


def topic_distribution(papers: Sequence[PaperRecord]) -> TopicDistribution:
    """How many of the given papers contain each topic; zero papers count nothing."""
    return TopicDistribution(counts=_count_topics(papers), paper_count=len(papers))


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
    return ExpertiseVector(_top_k(author_dist.counts, author_dist.paper_count,
                                  background.counts, background.paper_count, k))


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
