"""Synthetic corpora with controllable diversity-citation coupling.

Authors live in expertise clusters with disjoint topic sets. Each
analysis paper samples a team spanning a random number of clusters;
its citation count is drawn from a heavy-tailed negative binomial whose
location rises with the team's cluster count when coupling > 0 and is
flat at coupling = 0. Every analysis paper satisfies the default
selection constraints by construction (backfill records cover each
author's expertise window).

A small share of filler records with a reserved off-cluster topic keeps
every core topic's corpus-wide share strictly below 1, so background
subtraction never wipes out author profiles even in a one-cluster world.

All draws come from one numpy PCG64 generator, so a fixed seed yields a
byte-identical corpus; params.json echoes the algorithm identifier.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import PaperRecord, _is_int, _is_number, _is_pair

RNG_ALGORITHM = "numpy-pcg64"

# citation model constants: location of the negative binomial at cluster
# count 1, and the per-extra-cluster log-location gain at coupling 1
_BASE_MEAN_CITATIONS = 20.0
_COUPLING_GAIN = 1.1
_MIN_CITATIONS = 2

# geometric decay of the team cluster-count distribution
_CLUSTER_COUNT_DECAY = 0.45

# chance of a second window paper per author backfill
_SECOND_BACKFILL_P = 0.6

# expertise window the backfill guarantee targets (the analysis default)
_WINDOW_YEARS = 5

# share of filler records diluting the topic background
_FILLER_SHARE = 0.02

DEFAULT_TEAM_SIZES: Mapping[int, float] = {
    2: 0.35,
    3: 0.30,
    4: 0.18,
    5: 0.09,
    6: 0.05,
    7: 0.03,
}


@dataclass(frozen=True)
class SynthParams:
    seed: int = 0
    n_authors: int = 3000
    n_topics: int = 200
    n_papers: int = 5000
    year_range: tuple[int, int] = (2010, 2015)
    team_size_distribution: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_TEAM_SIZES)
    )
    n_expertise_clusters: int = 20
    cluster_mix: float = 0.1
    coupling: float = 0.0
    citation_noise: float = 0.35

    def __post_init__(self):
        for name in ("seed", "n_authors", "n_topics", "n_papers", "n_expertise_clusters"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("cluster_mix", "coupling", "citation_noise"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not _is_pair(self.year_range) or not all(map(_is_int, self.year_range)):
            raise ValueError(f"year_range must be two integers, got {self.year_range!r}")
        if not isinstance(self.team_size_distribution, Mapping) or not all(
            _is_int(s) and _is_number(p) for s, p in self.team_size_distribution.items()
        ):
            raise ValueError("team_size_distribution must map integer sizes to numbers")
        if self.n_authors < 2 or self.n_topics < 1 or self.n_papers < 1:
            raise ValueError("counts must be positive (>=2 authors)")
        if self.year_range[0] > self.year_range[1]:
            raise ValueError("year_range start exceeds end")
        sizes = self.team_size_distribution
        if not sizes:
            raise ValueError("team_size_distribution is empty")
        if any(s < 2 or s > 12 for s in sizes):
            raise ValueError("team sizes must lie in {2..12}")
        if any(p < 0 for p in sizes.values()) or not math.isclose(
            sum(sizes.values()), 1.0, abs_tol=1e-9
        ):
            raise ValueError("team size probabilities must be >=0 and sum to 1")
        if max(sizes) > self.n_authors:
            raise ValueError("largest team size exceeds n_authors")
        if not 1 <= self.n_expertise_clusters <= self.n_topics:
            raise ValueError("need 1 <= n_expertise_clusters <= n_topics")
        if not 0.0 <= self.cluster_mix <= 1.0:
            raise ValueError("cluster_mix must lie in [0, 1]")
        if not -1.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [-1, 1]")
        if self.citation_noise <= 0:
            raise ValueError("citation_noise must be positive")
        if not math.isfinite(self.citation_noise):
            raise ValueError(f"citation_noise must be finite, got {self.citation_noise!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "SynthParams":
        """The inverse of ``write_params``: a params.json object, or any subset of it."""
        if not isinstance(data, Mapping):
            raise ValueError(f"params must be a JSON object, got {type(data).__name__}")
        kwargs = dict(data)
        rng = kwargs.pop("rng", RNG_ALGORITHM)
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown params keys: {sorted(unknown)}")
        if rng != RNG_ALGORITHM:
            raise ValueError(f"rng must be {RNG_ALGORITHM!r}, got {rng!r}")
        # params.json spells year_range as an array and team sizes as string keys
        if isinstance(kwargs.get("year_range"), list):
            kwargs["year_range"] = tuple(kwargs["year_range"])
        if isinstance(kwargs.get("team_size_distribution"), dict):
            kwargs["team_size_distribution"] = {
                _int_key(k): v for k, v in kwargs["team_size_distribution"].items()
            }
        return cls(**kwargs)


def _int_key(key):
    """``key`` as an int if it spells one; otherwise unchanged, for
    ``__post_init__`` to reject."""
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


def write_params(params: SynthParams, path: str | Path) -> None:
    """Write every field of ``params`` and the RNG algorithm as JSON.

    Team sizes become string keys before the keys are sorted, so "10" sorts
    before "2", as in every params.json written so far.
    """
    data = asdict(params)
    data["team_size_distribution"] = {str(k): v for k, v in params.team_size_distribution.items()}
    data["rng"] = RNG_ALGORITHM
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cluster_cores(params: SynthParams) -> list[tuple[str, ...]]:
    """Each cluster's topics in ascending order, as a loaded record holds them.

    Ids past t9999 do not sort by number, so each core is sorted as a string.
    """
    topics = [f"t{i:04d}" for i in range(params.n_topics)]
    c = params.n_expertise_clusters
    bounds = np.linspace(0, params.n_topics, c + 1).astype(int)
    return [tuple(sorted(topics[bounds[i] : bounds[i + 1]])) for i in range(c)]


def _cluster_count_cdf(m_max: int) -> list[float]:
    weights = [_CLUSTER_COUNT_DECAY**k for k in range(m_max)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _distinct_clusters(rng: np.random.Generator, n_clusters: int, m: int) -> list[int]:
    if m >= n_clusters:
        return list(range(n_clusters))
    chosen: list[int] = []
    seen = set()
    while len(chosen) < m:
        c = int(rng.integers(n_clusters))
        if c not in seen:
            seen.add(c)
            chosen.append(c)
    return chosen


def generate_corpus(params: SynthParams) -> list[PaperRecord]:
    """Build the records of a corpus: filler and backfill records plus analysis papers.

    Deterministic for a fixed seed. The records round-trip through the JSONL
    schema unchanged; write them with ``write_corpus_jsonl`` and read them
    back with ``load_corpus``.
    """
    rng = np.random.default_rng(params.seed)
    cores = _cluster_cores(params)
    n_clusters = params.n_expertise_clusters
    authors = [f"a{i:06d}" for i in range(params.n_authors)]
    home = [i % n_clusters for i in range(params.n_authors)]
    cluster_members: list[list[int]] = [[] for _ in range(n_clusters)]
    for i, h in enumerate(home):
        cluster_members[h].append(i)
    if any(not members for members in cluster_members):
        raise ValueError("more clusters than authors")

    size_values = sorted(params.team_size_distribution)
    size_probs = [params.team_size_distribution[s] for s in size_values]
    cdf_by_max = {m: _cluster_count_cdf(m) for m in range(1, 13)}

    y0, y1 = params.year_range
    filler_topic = f"t{params.n_topics:04d}"
    n_filler = max(1, int(params.n_papers * _FILLER_SHARE))
    filler_years = rng.integers(y0, y1 + 1, size=n_filler)
    filler_records = [
        PaperRecord(
            id=f"f{i:05d}",
            year=int(filler_years[i]),
            authors=("filler",),
            topics=(filler_topic,),
        )
        for i in range(n_filler)
    ]
    years = rng.integers(y0, y1 + 1, size=params.n_papers)
    sizes = rng.choice(size_values, size=params.n_papers, p=size_probs)
    m_draws = rng.random(params.n_papers)

    # backfill_years[author] holds years of already-scheduled window papers
    backfill_years: list[list[int]] = [[] for _ in range(params.n_authors)]
    backfill_records: list[PaperRecord] = []

    def add_backfill(author_idx: int, year: int) -> None:
        if rng.random() < params.cluster_mix and n_clusters > 1:
            c = int(rng.integers(n_clusters - 1))
            if c >= home[author_idx]:
                c += 1
        else:
            c = home[author_idx]
        backfill_records.append(
            PaperRecord(
                id=f"b{len(backfill_records):07d}",
                year=year,
                authors=(authors[author_idx],),
                topics=cores[c],
            )
        )
        backfill_years[author_idx].append(year)

    def ensure_window(author_idx: int, year: int) -> None:
        lo, hi = year - _WINDOW_YEARS, year - 1
        if any(lo <= y <= hi for y in backfill_years[author_idx]):
            return
        add_backfill(author_idx, year - 1 - int(rng.integers(3)))
        if rng.random() < _SECOND_BACKFILL_P:
            add_backfill(author_idx, year - 1 - int(rng.integers(3)))

    teams: list[list[int]] = []
    primary_clusters: list[int] = []
    cluster_counts = np.empty(params.n_papers, dtype=np.int64)
    for i in range(params.n_papers):
        size = int(sizes[i])
        year = int(years[i])
        m_max = min(size, n_clusters)
        cdf = cdf_by_max[m_max]
        u = m_draws[i]
        m = next(k + 1 for k, edge in enumerate(cdf) if u <= edge)
        clusters = _distinct_clusters(rng, n_clusters, m)
        team: list[int] = []
        taken = set()
        for slot in range(size):
            c = clusters[slot] if slot < m else clusters[int(rng.integers(m))]
            members = cluster_members[c]
            author_idx = None
            for _ in range(50):
                candidate = members[int(rng.integers(len(members)))]
                if candidate not in taken:
                    author_idx = candidate
                    break
            if author_idx is None:
                author_idx = next((a for a in members if a not in taken), None)
            if author_idx is None:
                # cluster exhausted; fall back to any free author
                author_idx = next(a for a in range(params.n_authors) if a not in taken)
            taken.add(author_idx)
            team.append(author_idx)
            ensure_window(author_idx, year)
        teams.append(team)
        primary_clusters.append(clusters[0])
        cluster_counts[i] = m

    mu = _BASE_MEAN_CITATIONS * np.exp(
        _COUPLING_GAIN * params.coupling * (cluster_counts - 1)
    )
    shape = params.citation_noise
    draws = rng.negative_binomial(shape, shape / (shape + mu))
    citations = _MIN_CITATIONS + draws

    analysis_records = [
        PaperRecord(
            id=f"p{i:06d}",
            year=int(years[i]),
            authors=tuple(authors[a] for a in teams[i]),
            topics=cores[primary_clusters[i]],
            citations_5y=int(citations[i]),
        )
        for i in range(params.n_papers)
    ]
    return filler_records + backfill_records + analysis_records
