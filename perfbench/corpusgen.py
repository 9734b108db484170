"""Seeded corpus generator owned by the benchmark.

It never imports ``teamdiv``: the inputs must stay fixed while the code
under test changes, so two commits are compared on identical bytes.

The world it builds, and why:

- 400 topics with skewed (Zipf-like) popularity. Each of 40 expertise
  clusters draws from a pool of 20 topics that shares 10 topics with each
  neighbouring cluster and none with clusters further away. Papers carry
  random topic subsets of their pool, so teams that span neighbouring
  clusters give interior max distances, some pairs falling either side of
  the 0.3 edge threshold, while teams that span distant clusters give
  exact-1 distances.
- Recurring co-author groups publish only together. Their members share
  every window paper, so their vectors are identical and every group
  paper has a max distance of exactly 0. Group papers take citations
  from the same law as every other paper, so each bucket gets some.
- Prolific authors have many window papers and more than ``top_k``
  positive topics, which exercises truncation.
- Every record also carries ``GENERAL_TOPIC``. Its corpus share is exactly
  1, so its adjusted weight is never positive. A few one-off authors have
  only that topic in their window: their profiles come out empty, and a
  paper left with fewer than two usable authors has no max distance.
- Decoy papers each break a selection constraint, so the selection step
  has work to do and the planted analysis-set size is known exactly.

All draws come from ``random.Random`` streams seeded from the workload
seed; the planted bad lines use a stream of their own, so a dirty corpus
holds the same clean records as the clean corpus of the same seed.
"""
from __future__ import annotations

import math
import os
import random
from bisect import bisect
from itertools import accumulate
from dataclasses import dataclass, field
from pathlib import Path

GENERAL_TOPIC = "t_all"
YEAR_RANGE = (2010, 2015)
WINDOW_YEARS = 5
MIN_CITATIONS = 2
MAX_CITATIONS = 400
# The ten citation buckets of the analysis: half-open [lo, hi), hi None = unbounded.
BUCKET_BOUNDS = (
    (2, 5), (5, 10), (10, 15), (15, 20), (20, 30),
    (30, 40), (40, 50), (50, 100), (100, 150), (150, None),
)
DEFAULT_TEAM_SIZES = {2: 0.35, 3: 0.30, 4: 0.18, 5: 0.09, 6: 0.05, 7: 0.03}

N_TOPICS = 400
N_CLUSTERS = 40
POOL_SIZE = 20
POOL_OFFSET = 5
GROUP_SHARE = 0.06       # analysis papers written by a recurring group
GROUP_REUSE = 0.6        # chance a group paper reuses an existing group
PROLIFIC_SHARE = 0.05    # authors with many window papers
GENERALIST_SHARE = 0.03  # papers with one author whose window is GENERAL_TOPIC only
FAR_SHARE = 0.5          # chance a further cluster on a team is not a neighbour
DECOY_SHARE = 0.05       # papers, on top of the analysis set, that fail selection
# cumulative chances of 1, 2, 3, 4 and 5 topics on one paper
TOPIC_COUNT_CUM = (0.25, 0.6, 0.85, 0.95)


@dataclass(frozen=True)
class WorldSpec:
    """Sizes and shares of one generated corpus."""

    n_papers: int
    n_authors: int
    team_sizes: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_TEAM_SIZES))
    dirty_every: int = 0  # mean clean lines between planted bad lines; 0 = clean


@dataclass
class Planted:
    """What the generator put in the corpus, for checking the program's output."""

    records: int = 0
    lines: int = 0
    analysis_size: int = 0
    bucket_counts: list[int] = field(default_factory=lambda: [0] * len(BUCKET_BOUNDS))
    group_bucket_counts: list[int] = field(default_factory=lambda: [0] * len(BUCKET_BOUNDS))
    bad_lines: dict[int, str] = field(default_factory=dict)


def bucket_index(citations: int) -> int:
    for i, (lo, hi) in enumerate(BUCKET_BOUNDS):
        if citations >= lo and (hi is None or citations < hi):
            return i
    raise ValueError(f"citations {citations} fit no bucket")


def _record(pid: str, year: int, authors, topics, citations: int | None) -> str:
    names = ", ".join(f'"{a}"' for a in authors)
    tags = ", ".join(f'"{t}"' for t in sorted(topics))
    cites = "" if citations is None else f', "citations_5y": {citations}'
    return f'{{"id": "{pid}", "year": {year}, "authors": [{names}], "topics": [{tags}]{cites}}}\n'


# Each planted bad line breaks one schema rule. The second field is
# the text `teamdiv validate` is expected to report for it.
BAD_KINDS = (
    ("invalid_json", "invalid JSON"),
    ("missing_id", "missing or empty id"),
    ("non_integer_year", "non-integer year"),
    ("duplicate_paper_id", "duplicate paper id"),
    ("duplicate_author", "duplicate author within"),
    ("negative_citations", "citations_5y must be a nonnegative integer"),
)


class _Sink:
    """Writes corpus lines and, when asked, plants bad and blank lines among them."""

    def __init__(self, handle, planted: Planted, rng: random.Random, dirty_every: int):
        self.handle = handle
        self.planted = planted
        self.rng = rng
        self.dirty_every = dirty_every
        self.last_clean = ""
        self.n_bad = 0

    def _put(self, line: str) -> None:
        self.handle.write(line)
        self.planted.lines += 1

    def write(self, line: str) -> None:
        if self.dirty_every and self.last_clean and self.rng.random() * self.dirty_every < 1.0:
            self._plant()
        self._put(line)
        self.planted.records += 1
        self.last_clean = line

    def _plant(self) -> None:
        if self.rng.random() < 0.25:
            self._put(self.rng.choice(("\n", "   \n")))
            return
        kind, _ = self.rng.choice(BAD_KINDS)
        self.n_bad += 1
        pid = f"z{self.n_bad:06d}"
        line = {
            "invalid_json": f'{{"id": "{pid}", "year": 2012, "authors": ["{pid}a"\n',
            "missing_id": f'{{"year": 2012, "authors": ["{pid}a"], "topics": ["{GENERAL_TOPIC}"]}}\n',
            "non_integer_year": f'{{"id": "{pid}", "year": "2012", "authors": ["{pid}a"], '
                                f'"topics": ["{GENERAL_TOPIC}"]}}\n',
            "duplicate_paper_id": self.last_clean,
            "duplicate_author": f'{{"id": "{pid}", "year": 2012, "authors": ["{pid}a", "{pid}a"], '
                                f'"topics": ["{GENERAL_TOPIC}"]}}\n',
            "negative_citations": f'{{"id": "{pid}", "year": 2012, "authors": ["{pid}a"], '
                                  f'"topics": ["{GENERAL_TOPIC}"], "citations_5y": -3}}\n',
        }[kind]
        self._put(line)
        self.planted.bad_lines[self.planted.lines] = kind


class _World:
    def __init__(self, spec: WorldSpec, rng: random.Random, sink: _Sink):
        self.rng = rng
        self.sink = sink
        topics = [f"t{i:03d}" for i in range(N_TOPICS)]
        ranks = list(range(N_TOPICS))
        rng.shuffle(ranks)
        popularity = [1.0 / (1 + r) ** 0.7 for r in ranks]
        step = N_TOPICS // N_CLUSTERS
        self.pools: list[tuple[list[str], list[float]]] = []
        for c in range(N_CLUSTERS):
            idx = [(c * step - POOL_OFFSET + j) % N_TOPICS for j in range(POOL_SIZE)]
            self.pools.append(([topics[i] for i in idx], list(accumulate(popularity[i] for i in idx))))
        self.size_values = list(spec.team_sizes)
        self.size_cum = list(accumulate(spec.team_sizes.values()))
        self.home = [self.below(N_CLUSTERS) for _ in range(spec.n_authors)]
        self.members: list[list[int]] = [[] for _ in range(N_CLUSTERS)]
        for a, c in enumerate(self.home):
            self.members[c].append(a)
        self.prolific = {a for a in range(spec.n_authors) if rng.random() < PROLIFIC_SHARE}
        self.window_years: dict[object, list[int]] = {}
        self.groups: dict[int, list[tuple[tuple[str, ...], int]]] = {}
        self.n_backfill = 0
        self.n_fresh = 0
        self.lo_log = math.log(MIN_CITATIONS)
        self.hi_log = math.log(MAX_CITATIONS + 1)

    # --- draws ---

    def below(self, n: int) -> int:
        return int(self.rng.random() * n)

    def pick(self, items):
        return items[int(self.rng.random() * len(items))]

    def topics(self, cluster: int) -> set[str]:
        """A skewed random subset of the cluster's pool, plus GENERAL_TOPIC."""
        pool, cum = self.pools[cluster]
        rand = self.rng.random
        total = cum[-1]
        chosen = {pool[bisect(cum, rand() * total)] for _ in range(bisect(TOPIC_COUNT_CUM, rand()) + 1)}
        chosen.add(GENERAL_TOPIC)
        return chosen

    def citations(self) -> int:
        return int(math.exp(self.rng.uniform(self.lo_log, self.hi_log)))

    def near(self, cluster: int) -> int:
        return (cluster + self.pick((-1, 1))) % N_CLUSTERS

    def other(self, cluster: int) -> int:
        c = self.below(N_CLUSTERS - 1)
        return c + 1 if c >= cluster else c

    def fresh(self, prefix: str) -> str:
        self.n_fresh += 1
        return f"{prefix}{self.n_fresh:06d}"

    # --- records ---

    def backfill(self, authors: tuple[str, ...], year: int, topics) -> None:
        self.n_backfill += 1
        self.sink.write(_record(f"b{self.n_backfill:07d}", year, authors, topics, None))

    def ensure_window(self, key, authors: tuple[str, ...], year: int, cluster: int, extra: int = 0) -> None:
        """Give the authors a window paper before `year` unless they have one."""
        years = self.window_years.setdefault(key, [])
        if any(year - WINDOW_YEARS <= y < year for y in years):
            return
        n = 1 + (self.rng.random() < 0.3) + extra
        for i in range(n):
            y = year - 1 - self.below(3 if i == 0 else WINDOW_YEARS)
            r = self.rng.random()
            c = cluster if r < 0.85 else self.near(cluster) if r < 0.95 else self.other(cluster)
            self.backfill(authors, y, self.topics(c))
            years.append(y)

    def individual(self, a: int, year: int) -> str:
        name = f"a{a:06d}"
        first = a not in self.window_years
        extra = 6 + self.below(5) if first and a in self.prolific else 0
        self.ensure_window(a, (name,), year, self.home[a], extra)
        return name

    def group(self, size: int, year: int) -> tuple[tuple[str, ...], int]:
        known = self.groups.setdefault(size, [])
        if known and self.rng.random() < GROUP_REUSE:
            members, cluster = self.pick(known)
        else:
            gid = self.fresh("r")
            members = tuple(f"{gid}-{i}" for i in range(size))
            cluster = self.below(N_CLUSTERS)
            known.append((members, cluster))
        self.ensure_window(members, members, year, cluster)
        return members, cluster

    def team(self, size: int, year: int) -> tuple[list[str], int]:
        c0 = self.below(N_CLUSTERS)
        r = self.rng.random()
        m = 1 if r < 0.45 else 2 if r < 0.8 else 3
        clusters = [c0]
        while len(clusters) < min(m, size):
            c = self.other(clusters[-1]) if self.rng.random() < FAR_SHARE else self.near(clusters[-1])
            if c not in clusters:
                clusters.append(c)
        taken: set[int] = set()
        names = []
        for slot in range(size):
            c = clusters[slot] if slot < len(clusters) else self.pick(clusters)
            pool = self.members[c]
            a = self.pick(pool)
            while a in taken:
                a = self.pick(pool)
            taken.add(a)
            names.append(self.individual(a, year))
        if self.rng.random() < GENERALIST_SHARE:
            g = self.fresh("g")
            self.window_years[g] = [year - 1]
            self.backfill((g,), year - 1, {GENERAL_TOPIC})
            names[-1] = g
        return names, c0

    def analysis_paper(self, i: int, planted: Planted) -> None:
        year = YEAR_RANGE[0] + self.below(YEAR_RANGE[1] - YEAR_RANGE[0] + 1)
        size = self.size_values[bisect(self.size_cum, self.rng.random() * self.size_cum[-1])]
        is_group = self.rng.random() < GROUP_SHARE
        if is_group:
            authors, cluster = self.group(size, year)
        else:
            authors, cluster = self.team(size, year)
        cites = self.citations()
        b = bucket_index(cites)
        planted.analysis_size += 1
        planted.bucket_counts[b] += 1
        if is_group:
            planted.group_bucket_counts[b] += 1
        self.sink.write(_record(f"p{i:06d}", year, authors, self.topics(cluster), cites))

    def decoy(self, i: int) -> None:
        """A paper that fails one of the four selection constraints, in turn."""
        kind = i % 4
        year = self.rng.randint(*YEAR_RANGE)
        c = self.rng.randrange(N_CLUSTERS)
        authors = [f"a{a:06d}" for a in self.rng.sample(self.members[c], 2)]
        cites = self.citations()
        if kind == 0:    # (i) year outside the range
            year = self.rng.choice((YEAR_RANGE[0] - 1, YEAR_RANGE[1] + 1))
        elif kind == 1:  # (ii) too few citations
            cites = self.rng.randrange(MIN_CITATIONS)
        elif kind == 2:  # (iii) too few authors
            authors = authors[:1]
        else:            # (iv) an author with no window paper: a newcomer seen only here
            authors[-1] = self.fresh("n")
        self.sink.write(_record(f"x{i:06d}", year, authors, self.topics(c), cites))


def generate(spec: WorldSpec, seed: int, path: Path) -> Planted:
    """Write one corpus as JSONL to `path` and return what was planted in it."""
    rng = random.Random(f"world-{seed}")
    planted = Planted()
    n_decoys = int(spec.n_papers * DECOY_SHARE)
    with open(path, "w", encoding="utf-8") as handle:
        sink = _Sink(handle, planted, random.Random(f"dirty-{seed}"), spec.dirty_every)
        world = _World(spec, rng, sink)
        for i in range(spec.n_papers):
            world.analysis_paper(i, planted)
        for i in range(n_decoys):
            world.decoy(i)
        # written back now, so that no disk writeback overlaps the timed commands
        handle.flush()
        os.fsync(handle.fileno())
    return planted
