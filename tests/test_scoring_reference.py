"""The scoring pass against a reference written from the definitions.

The reference below builds every expertise vector and every paper's metrics
from PAPER.md's definitions with its own code: exact fractions for the
background-adjusted weights, a sort for the top k (ties by ascending topic),
the cosine distance with its clamp at both ends, and connected components by
graph search. It calls nothing in ``teamdiv`` but the loader and the
selection. Small corpora draw from a few authors and topics, so windows
overlap, weights tie and vectors repeat.
"""
import math
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from teamdiv.corpus import AnalysisConfig, select_analysis_set
from teamdiv.diversity import DiversityCategory, PaperDiversity
from teamdiv.report import compute_paper_metrics
from tests.conftest import load_records, record

AUTHORS = [f"a{i}" for i in range(6)]
TOPICS = [f"t{i}" for i in range(6)]
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _reference_vector(records, author, year, window_years, top_k):
    """The author's top-k positive weights over the window, from exact fractions."""
    background = Counter(t for r in records for t in set(r["topics"]))
    window = [r for r in records
              if author in r["authors"] and year - window_years <= r["year"] < year]
    counts = Counter(t for r in window for t in set(r["topics"]))
    weight = {t: Fraction(c, len(window)) - Fraction(background[t], len(records))
              for t, c in counts.items()}
    ranked = sorted((t for t in weight if weight[t] > 0), key=lambda t: (-weight[t], t))
    return {t: float(weight[t]) for t in ranked[:top_k]}


def _reference_distance(u, v):
    """Cosine distance of two nonempty vectors: exactly 1 with no shared topic,
    otherwise drift under 1e-12 snaps to 0 and 1 itself is kept just below 1."""
    shared = [u[t] * v[t] for t in u if t in v]
    if not shared:
        return 1.0
    norm_u = math.sqrt(math.fsum([w * w for w in u.values()]))
    norm_v = math.sqrt(math.fsum([w * w for w in v.values()]))
    d = 1.0 - math.fsum(shared) / (norm_u * norm_v)
    if d < 1e-12:
        return 0.0
    return min(d, _BELOW_ONE)


def _reference_category(n_components):
    for most, category in ((2, "low"), (4, "moderate"), (6, "high")):
        if n_components <= most:
            return DiversityCategory(category)
    return DiversityCategory.VERY_HIGH


def _reference_paper(paper, team, config):
    """One paper's metrics from its team's vectors: the largest pair distance
    and the components of the graph whose edges are the close pairs."""
    usable = [i for i, v in enumerate(team) if v]
    edges = {i: set() for i in range(len(team))}
    distances = []
    for x, i in enumerate(usable):
        for j in usable[:x]:
            d = _reference_distance(team[i], team[j])
            distances.append(d)
            threshold = config.edge_threshold
            if d < threshold or (config.inclusive_threshold and d == threshold):
                edges[i].add(j)
                edges[j].add(i)
    seen, components = set(), 0
    for start in range(len(team)):
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(edges[node] - seen)
    return PaperDiversity(
        paper_id=paper["id"],
        n_authors=len(team),
        pair_count=len(distances),
        max_distance=max(distances) if distances else None,
        n_components=components,
        category=_reference_category(components),
        excluded_authors=len(team) - len(usable),
    ), distances


_records = st.lists(
    st.tuples(
        st.integers(2008, 2013),
        st.lists(st.sampled_from(AUTHORS), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(TOPICS), min_size=1, max_size=4, unique=True),
        st.integers(0, 40),
    ),
    min_size=4,
    max_size=30,
)


def test_scoring_matches_the_reference_on_one_cpu_and_two(cpus):
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        rows=_records,
        window_years=st.integers(1, 4),
        top_k=st.integers(1, 3),
        threshold=st.sampled_from([0.0, 0.3, 1.0]),
        inclusive=st.booleans(),
    )
    def check(rows, window_years, top_k, threshold, inclusive):
        records = [record(f"p{i}", year, authors, topics, citations=cited)
                   for i, (year, authors, topics, cited) in enumerate(rows)]
        corpus = load_records(records)
        config = AnalysisConfig(window_years=window_years, top_k=top_k,
                                edge_threshold=threshold, year_range=(2011, 2013),
                                inclusive_threshold=inclusive)
        selected = select_analysis_set(corpus, config)
        expected, vectors = [], {}
        for paper in sorted((r for r in records if r["id"] in selected), key=lambda r: r["id"]):
            team = []
            for author in paper["authors"]:
                key = (author, paper["year"])
                if key not in vectors:
                    vectors[key] = _reference_vector(records, *key, window_years, top_k)
                team.append(vectors[key])
            metrics, distances = _reference_paper(paper, team, config)
            expected.append(metrics)
            seen["interior"] += any(0.0 < d < 1.0 for d in distances)
            seen["empty"] += metrics.excluded_authors > 0
            seen["identical"] += any(u and u == v for i, u in enumerate(team) for v in team[:i])
            seen["edge at the threshold"] += threshold in distances
        seen["truncated"] += sum(
            len(_reference_vector(records, *key, window_years, len(TOPICS))) > top_k
            for key in vectors
        )
        for n in (1, 2):
            cpus(n)
            assert compute_paper_metrics(corpus, config, selected) == expected
            profiles = {}
            assert compute_paper_metrics(corpus, config, selected, profiles=profiles) == expected
            assert {key: list(v.entries.items()) for key, v in profiles.items()} == {
                key: list(v.items()) for key, v in vectors.items()
            }

    check()
    # so the comparison cannot pass on 0/1 distances and untruncated vectors alone
    assert all(seen[name] >= 10 for name in
               ("interior", "empty", "identical", "edge at the threshold", "truncated")), seen
