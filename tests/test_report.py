import csv
import gc
import json
import math
import os
import random
import re
import statistics
import threading
import warnings
import weakref
from collections import Counter, defaultdict
from dataclasses import replace
from operator import attrgetter

import pytest
from scipy.stats import chi2_contingency, pearsonr

from teamdiv import report
from teamdiv.cli import main
from teamdiv.corpus import AnalysisConfig, select_analysis_set
from teamdiv.diversity import DiversityCategory, PaperDiversity
from teamdiv.expertise import ExpertiseVector
from teamdiv.report import (
    BucketStats,
    EmptyAnalysisSetError,
    aggregate_report,
    build_profiles,
    category_delta_vs_baseline,
    compute_paper_metrics,
    homogeneity_comparisons,
    max_distance_histogram,
    median_correlation,
    render,
    run_analysis,
)
from teamdiv.stats import chi_square_homogeneity
from teamdiv.synth import SynthParams, generate_corpus
from tests.conftest import load_papers, load_records, record


def _stats(label, lo, hi, n, median_, zeros, ones, cats):
    config = AnalysisConfig()
    bucket = next(b for b in config.buckets if b.label == label)
    return BucketStats(
        bucket=bucket,
        n_papers=n,
        citation_median=median_,
        zeros=zeros,
        ones=ones,
        category_counts=cats,
    )


def _team_corpus(n_papers=12, shared_topics=True, team_size=3, seed=1):
    """Corpus where every analysis team either shares one topic or is fully
    disjoint in expertise, with full backfill coverage."""
    rng = random.Random(seed)
    records = []
    author_id = 0
    for i in range(n_papers):
        year = rng.choice([2012, 2013, 2014])
        authors = []
        for slot in range(team_size):
            name = f"a{author_id:04d}"
            author_id += 1
            topic = "shared" if shared_topics else f"solo_{name}"
            records.append(record(f"w_{name}", year - 1, [name], [topic]))
            authors.append(name)
        records.append(
            record(f"p{i:03d}", year, authors, ["paper-topic"], citations=rng.randint(2, 400))
        )
    return load_records(records)


def _multi_year_corpus():
    """Analysis papers in 2012, 2013 and 2014 whose ids interleave the years.

    Author "a" writes p2 (2012) and p1 (2013), so (a, 2012) and (a, 2013) are
    different profiles: p2 is inside a's window for 2013 only.
    """
    records = [
        record("w1", 2010, ["a"], ["ml"]),
        record("w2", 2011, ["b"], ["db"]),
        record("w3", 2011, ["c"], ["ml", "hci"]),
        record("w4", 2010, ["d"], ["nlp"]),
        record("w5", 2011, ["e"], ["db", "nlp"]),
        record("p2", 2012, ["a", "b"], ["vision"], citations=5),
        record("p5", 2012, ["c", "d"], ["ml"], citations=40),
        record("p1", 2013, ["a", "c"], ["hci"], citations=12),
        record("p4", 2013, ["b", "e", "d"], ["db"], citations=3),
        record("p3", 2014, ["a", "e"], ["nlp"], citations=160),
        record("p6", 2014, ["b", "c"], ["ml", "db"], citations=8),
    ]
    return load_records(records)


def _same_year_corpus():
    """Authors with more than one analysis paper in a year.

    In 2013 "a" writes p1 and p3, with p2 between them, and "c" writes p2 and
    p4; "a" and "b" write p5 in 2014 as well.
    """
    records = [
        record("w1", 2011, ["a"], ["ml"]),
        record("w2", 2011, ["b"], ["db"]),
        record("w3", 2012, ["c"], ["ml", "hci"]),
        record("w4", 2010, ["d"], ["nlp"]),
        record("w5", 2012, ["e"], ["db", "nlp"]),
        record("p1", 2013, ["a", "b"], ["vision"], citations=5),
        record("p2", 2013, ["c", "d"], ["ml"], citations=40),
        record("p3", 2013, ["e", "a"], ["hci"], citations=12),
        record("p4", 2013, ["c", "e"], ["db"], citations=3),
        record("p5", 2014, ["b", "a"], ["nlp"], citations=160),
    ]
    return load_records(records)


def _overlap_records(n_papers=80, seed=4):
    """Teams whose members' topics overlap in part, so that max distances fall
    strictly inside (0, 1) as well as on both ends, in every bucket."""
    rng = random.Random(seed)
    topics = ["t0", "t1", "t2"]
    medians = [3, 6, 12, 17, 24, 34, 44, 64, 118, 226]
    records = []
    for i in range(n_papers):
        year = rng.choice([2012, 2013, 2014])
        authors = [f"a{i:03d}_{j}" for j in range(rng.randint(2, 3))]
        for name in authors:
            records.append(record(f"w_{name}", year - 1, [name], rng.sample(topics, rng.randint(1, 2))))
        records.append(record(f"p{i:03d}", year, authors, ["x"], citations=rng.choice(medians)))
    return records


# --- histogram ---


def test_histogram_spikes_only():
    h = max_distance_histogram([0.0, 1.0, 1.0])
    assert h.zero_count == 1
    assert h.one_count == 2
    assert sum(h.bin_counts) == 0


def test_histogram_boundary_convention():
    h = max_distance_histogram([0.04, 0.05])
    assert h.bin_counts[0] == 1  # (0, 0.05)
    assert h.bin_counts[1] == 1  # [0.05, 0.10)
    assert (h.zero_count, h.one_count, sum(h.bin_counts)) == (0, 0, 2)


def test_histogram_matches_linear_scan_oracle():
    rng = random.Random(17)
    values = [rng.random() for _ in range(10_000)] + [0.0, 1e-15, 1.0 - 1e-15, 1.0, 1.0]
    h = max_distance_histogram(values)
    edges = [i * report.BIN_WIDTH for i in range(len(h.bin_counts) + 1)]
    expected = [0] * len(h.bin_counts)
    spike0 = spike1 = 0
    for v in values:
        if v == 0.0:
            spike0 += 1
        elif v == 1.0:
            spike1 += 1
        else:
            for i in range(len(expected)):
                if edges[i] <= v < edges[i + 1]:
                    expected[i] += 1
                    break
    assert list(h.bin_counts) == expected
    assert (h.zero_count, h.one_count) == (spike0, spike1) == (1, 2)
    assert h.zero_count + h.one_count + sum(h.bin_counts) == len(values)


def test_histogram_bins_every_edge_and_its_neighbours_by_the_labelled_edges():
    # fig2 labels bin i by the float i * BIN_WIDTH; 0.85 lies below 17 * 0.05
    n_bins = round(1 / report.BIN_WIDTH)
    edges = [i * report.BIN_WIDTH for i in range(n_bins + 1)]
    for i in range(1, n_bins):
        for v in (math.nextafter(edges[i], 0.0), edges[i], math.nextafter(edges[i], 1.0)):
            expected = next(j for j in range(n_bins) if edges[j] <= v < edges[j + 1])
            counts = max_distance_histogram([v]).bin_counts
            assert counts.index(1) == expected, v
    assert max_distance_histogram([0.85]).bin_counts[16] == 1


# --- pipeline over degenerate corpora ---


def test_identical_profiles_give_low_everywhere():
    corpus = _team_corpus(shared_topics=True)
    report = run_analysis(corpus, AnalysisConfig())
    assert len(report.metrics) == 12
    assert report.histogram.zero_count == 12
    assert report.histogram.one_count == 0
    for s in report.buckets:
        assert s.category_counts[1:] == (0, 0, 0)


def test_disjoint_profiles_give_max_components():
    corpus = _team_corpus(shared_topics=False, team_size=3)
    report = run_analysis(corpus, AnalysisConfig())
    assert report.histogram.one_count == 12
    assert report.histogram.zero_count == 0
    for s in report.buckets:
        # 3 components per paper -> everything moderate
        assert s.category_counts[0] == 0
        assert s.category_counts[1] == s.n_papers


def test_bucket_paper_counts_partition_selection():
    corpus = _team_corpus(n_papers=30, seed=5)
    config = AnalysisConfig()
    report = run_analysis(corpus, config)
    selected = select_analysis_set(corpus, config)
    assert sum(s.n_papers for s in report.buckets) == len(selected) == len(report.metrics)
    assert [m.paper_id for m in report.metrics] == sorted(selected)


def test_empty_analysis_set_raises():
    corpus = load_records([record("p1", 2013, ["only"], ["t"], citations=9)])
    with pytest.raises(EmptyAnalysisSetError):
        run_analysis(corpus, AnalysisConfig())


def test_empty_bucket_retained_with_warning():
    corpus = _team_corpus(n_papers=8, seed=3)
    # narrow bounds so the final bucket is empty
    config = AnalysisConfig(
        bucket_bounds=((2, 5), (5, 500), (500, None)),
    )
    report = run_analysis(corpus, config)
    last = report.buckets[-1]
    assert last.n_papers == 0
    assert last.citation_median is None
    assert last.category_percentages is None
    assert any("empty" in w for w in report.warnings)


def test_rerun_is_deterministic(tmp_path):
    corpus = _team_corpus(n_papers=15, shared_topics=False, seed=9)
    config = AnalysisConfig()
    first = run_analysis(corpus, config)
    second = run_analysis(corpus, config)
    assert first == second
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    render(first, dir_a)
    render(second, dir_b)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()


def test_jobs_do_not_change_metrics():
    corpus = _team_corpus(n_papers=10, shared_topics=False, seed=2)
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    assert compute_paper_metrics(corpus, config, selected, jobs=1) == compute_paper_metrics(
        corpus, config, selected
    )


def test_year_by_year_metrics_equal_metrics_from_all_profiles():
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    assert len({corpus.by_id[i].year for i in selected}) == 3
    profiles = build_profiles(corpus, config, sorted(selected))
    assert profiles[("a", 2012)].entries != profiles[("a", 2013)].entries
    year_by_year = compute_paper_metrics(corpus, config, selected)
    assert year_by_year == compute_paper_metrics(corpus, config, selected, profiles=profiles)
    assert [m.paper_id for m in year_by_year] == ["p1", "p2", "p3", "p4", "p5", "p6"]


def test_each_years_profiles_are_gone_before_the_next_year(monkeypatch, cpus):
    cpus(1)
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    real_profile_author = report.profile_author
    built = []  # (year, finalizer) of every vector, in build order
    stale = []  # years of other years' vectors still alive when a vector is built

    class Tracked(ExpertiseVector):
        pass  # unlike its slotted base class, weakly referenceable

    def spy(corpus, background, author, year, config):
        stale.extend(y for y, alive in built if y != year and alive.alive)
        vector = Tracked(real_profile_author(corpus, background, author, year, config).entries)
        built.append((year, weakref.finalize(vector, lambda: None)))
        return vector

    monkeypatch.setattr(report, "profile_author", spy)
    # as in analyze: with the collector off, only reference counting frees
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        metrics = compute_paper_metrics(corpus, config, selected)
        cycles = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert len(metrics) == 6
    assert sorted({year for year, _ in built}) == [2012, 2013, 2014]
    assert stale == []
    assert not any(alive.alive for _, alive in built)
    assert cycles == 0


def test_each_vector_is_gone_once_its_authors_last_paper_of_the_year_is_scored(monkeypatch, cpus):
    cpus(1)
    corpus = _same_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    needed = sorted(build_profiles(corpus, config, selected))
    real_profile_author = report.profile_author
    real_paper_diversity = report.paper_diversity
    built = []  # (author, year) of every vector, in build order
    alive = {}  # (author, year) -> finalizer of its vector
    scored = []  # (paper id, keys of the vectors alive while it is scored)

    class Tracked(ExpertiseVector):
        pass  # unlike its slotted base class, weakly referenceable

    def build(corpus, background, author, year, config):
        vector = Tracked(real_profile_author(corpus, background, author, year, config).entries)
        built.append((author, year))
        alive[author, year] = weakref.finalize(vector, lambda: None)
        return vector

    def score(paper_id, team, *args, **kwargs):
        scored.append((paper_id, {key for key, ref in alive.items() if ref.alive}))
        return real_paper_diversity(paper_id, team, *args, **kwargs)

    monkeypatch.setattr(report, "profile_author", build)
    monkeypatch.setattr(report, "paper_diversity", score)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        metrics = compute_paper_metrics(corpus, config, selected)
        cycles = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert sorted(built) == needed and len(needed) == 7  # each vector built once
    order = [paper_id for paper_id, _ in scored]
    assert sorted(order) == [m.paper_id for m in metrics] == ["p1", "p2", "p3", "p4", "p5"]
    papers = {paper_id: corpus.by_id[paper_id] for paper_id in order}
    for k, (paper_id, live) in enumerate(scored):
        year = papers[paper_id].year
        later = {a for p in order[k + 1:] if papers[p].year == year for a in papers[p].authors}
        earlier = {a for p in order[:k] if papers[p].year == year for a in papers[p].authors}
        own = set(papers[paper_id].authors)
        # its team, and the built vectors of authors with a paper still to score
        assert live == {(a, year) for a in own | (earlier & later)}, paper_id
    assert ("a", 2013) in scored[order.index("p2")][1]
    assert not any(ref.alive for ref in alive.values())
    assert cycles == 0
    # a caller's dict keeps every vector
    profiles = {}
    assert compute_paper_metrics(corpus, config, selected, profiles=profiles) == metrics
    assert sorted(profiles) == needed
    assert all(alive[key].alive for key in needed)


def test_a_profiles_dict_receives_exactly_the_vectors_build_profiles_builds():
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    profiles = {}
    metrics = compute_paper_metrics(corpus, config, selected, profiles=profiles)
    assert profiles == build_profiles(corpus, config, selected)
    assert metrics == compute_paper_metrics(corpus, config, selected)


def test_the_background_is_computed_once_and_only_when_a_vector_is_missing(monkeypatch):
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    complete = build_profiles(corpus, config, selected)
    calls = []
    real_background = report.background_distribution

    def spy(corpus):
        calls.append(corpus)
        return real_background(corpus)

    monkeypatch.setattr(report, "background_distribution", spy)
    with_map = compute_paper_metrics(corpus, config, selected, profiles=dict(complete))
    assert calls == []
    assert with_map == compute_paper_metrics(corpus, config, selected)
    assert calls == [corpus]


def test_the_pipeline_never_builds_the_whole_corpus_id_map():
    corpus = _team_corpus(n_papers=12, shared_topics=False, seed=3)
    config = AnalysisConfig()
    run_analysis(corpus, config)
    assert "by_id" not in vars(corpus)
    selected = select_analysis_set(corpus, config)
    metrics = compute_paper_metrics(corpus, config, selected)
    aggregate_report(corpus, config, metrics)
    build_profiles(corpus, config, sorted(selected))
    assert "by_id" not in vars(corpus)


@pytest.mark.parametrize("jobs", [0, 2])
def test_compute_paper_metrics_accepts_only_one_job(jobs):
    corpus = _team_corpus(n_papers=10, shared_topics=False, seed=2)
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    with pytest.raises(ValueError, match="jobs must be 1"):
        compute_paper_metrics(corpus, config, selected, jobs=jobs)


def test_one_and_two_workers_give_the_same_metrics_and_profiles(cpus, forks):
    corpus = _synth_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    assert len({corpus.by_id[i].year for i in selected}) == 6
    complete = build_profiles(corpus, config, selected)
    given = dict(sorted(complete.items())[::2])  # a caller's dict holding every other vector
    runs = []
    for n in (1, 2):
        cpus(n)
        empty, partial = {}, dict(given)
        metrics = [
            compute_paper_metrics(corpus, config, selected),
            compute_paper_metrics(corpus, config, selected, profiles=empty),
            compute_paper_metrics(corpus, config, selected, profiles=partial),
        ]
        assert all(partial[key] is vector for key, vector in given.items())
        # the dump writes each vector's entries in their order, so compare that too
        runs.append((metrics, [{k: list(v.entries.items()) for k, v in d.items()}
                               for d in (empty, partial)]))
    assert forks == ["fork"]  # only the call without a dict forks
    assert runs[0] == runs[1]
    (metrics, dicts) = runs[1]
    assert metrics[0] == metrics[1] == metrics[2]
    assert dicts[0] == dicts[1] == {k: list(v.entries.items()) for k, v in complete.items()}


def test_one_analysis_year_is_scored_without_a_fork(cpus, monkeypatch):
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    one_year = [i for i in select_analysis_set(corpus, config) if corpus.by_id[i].year == 2013]
    expected = compute_paper_metrics(corpus, config, one_year)
    cpus(2)

    def no_fork():
        raise AssertionError("forked for one year")

    monkeypatch.setattr(os, "fork", no_fork)
    assert compute_paper_metrics(corpus, config, one_year) == expected
    assert [m.paper_id for m in expected] == ["p1", "p4"]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_error_in_any_year_reaches_the_caller_and_leaves_no_process(
    cpus, forks, monkeypatch, error
):
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    years = {paper_id: corpus.by_id[paper_id].year for paper_id in selected}
    real_paper_diversity = report.paper_diversity
    cpus(2)
    # the worker scores one set of years and this process the other, so the
    # failing year is in each in turn
    for year in sorted(set(years.values())):

        def failing(paper_id, *args, **kwargs):
            if years[paper_id] == year:
                raise error(f"cannot score {year}")
            return real_paper_diversity(paper_id, *args, **kwargs)

        monkeypatch.setattr(report, "paper_diversity", failing)
        with pytest.raises(error, match=f"cannot score {year}"):
            compute_paper_metrics(corpus, config, selected)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert forks == ["fork"] * 3


def test_a_second_thread_keeps_scoring_in_this_process(cpus, forks):
    corpus = _multi_year_corpus()
    config = AnalysisConfig()
    selected = select_analysis_set(corpus, config)
    cpus(1)
    expected = compute_paper_metrics(corpus, config, selected)
    cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        # Python 3.12+ warns (DeprecationWarning) on a fork with threads alive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = compute_paper_metrics(corpus, config, selected)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert metrics == expected
    assert compute_paper_metrics(corpus, config, selected) == expected
    assert forks == ["fork"]


def test_aggregate_is_independent_of_metric_order():
    corpus = load_records(_overlap_records())
    config = AnalysisConfig()
    metrics = compute_paper_metrics(corpus, config, select_analysis_set(corpus, config))
    shuffled = list(metrics)
    random.Random(3).shuffle(shuffled)
    assert shuffled != metrics
    report = aggregate_report(corpus, config, metrics)
    assert aggregate_report(corpus, config, shuffled) == report
    # metrics come sorted by id from compute_paper_metrics; reversed, every bucket's tally is too
    assert [m.paper_id for m in metrics] == sorted(m.paper_id for m in metrics)
    assert aggregate_report(corpus, config, metrics[::-1]) == report
    assert report.metrics == metrics


def test_aggregate_rejects_a_paper_without_a_bucket():
    corpus = load_records(_overlap_records() + [record("uncited", 2013, ["u"], ["x"])])
    config = AnalysisConfig()
    metrics = compute_paper_metrics(corpus, config, select_analysis_set(corpus, config))
    uncited = replace(metrics[0], paper_id="uncited")
    with pytest.raises(ValueError, match="'uncited' has no citation count"):
        aggregate_report(corpus, config, metrics + [uncited])
    stranger = replace(metrics[0], paper_id="stranger")
    with pytest.raises(ValueError, match="'stranger' is not in the corpus"):
        aggregate_report(corpus, config, metrics + [stranger])
    # papers selected with 2+ citations, bucketed from 50 up
    narrow = AnalysisConfig(min_citations=50, bucket_bounds=((50, None),))
    with pytest.raises(ValueError, match="fits no citation bucket"):
        aggregate_report(corpus, narrow, metrics)


def test_exact_counts_in_tables_match_dumped_metrics(tmp_path):
    records = _overlap_records()
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out, dump = tmp_path / "out", tmp_path / "metrics.csv"
    assert main(["analyze", str(corpus_path), "--output", str(out), "--dump-metrics", str(dump)]) == 0
    buckets = AnalysisConfig().buckets
    citations = {r["id"]: r.get("citations_5y") for r in records}
    expected = {b.label: [0, 0] for b in buckets}
    interior = 0
    with open(dump, newline="") as handle:
        for row in csv.DictReader(handle):
            if not row["max_distance"]:
                continue
            d = float(row["max_distance"])
            label = next(b.label for b in buckets if b.contains(citations[row["paper_id"]]))
            if d == 0.0:
                expected[label][0] += 1
            elif d == 1.0:
                expected[label][1] += 1
            else:
                interior += 1
    with open(out / "tables" / "table2.csv", newline="") as handle:
        table2 = {row["bucket"]: [int(row["zeros"]), int(row["ones"])] for row in csv.DictReader(handle)}
    assert table2 == expected
    zeros = sum(z for z, _ in expected.values())
    ones = sum(o for _, o in expected.values())
    assert min(zeros, ones, interior) > 0
    assert (
        f"Exact 0: {zeros}; exact 1: {ones}; interior values: {interior} in bins of width 0.05."
        in (out / "report.md").read_text()
    )


# --- correlations, deltas, tests over assembled bucket stats ---


def test_ratio_correlation_requires_three_buckets():
    # Every correlation against the medians counts only the buckets that define
    # its value, and two such buckets fail with pearson's own reason.
    reason = re.escape("need at least 3 points, got 2")
    two = [
        _stats("A", 2, 5, 10, 3.0, 2, 4, (6, 2, 1, 1)),
        _stats("B", 5, 10, 10, 6.0, 2, 8, (5, 3, 1, 1)),
    ]
    empty = _stats("C", 10, 15, 0, None, 0, 0, (0, 0, 0, 0))
    cases = [
        (attrgetter("one_zero_ratio"), _stats("C", 10, 15, 10, 12.0, 0, 8, (5, 3, 1, 1))),
        (attrgetter("severity_ratio"), _stats("C", 10, 15, 10, 12.0, 2, 8, (0, 8, 1, 1))),
    ] + [
        (lambda s, i=i: None if s.category_percentages is None else s.category_percentages[i],
         empty)
        for i in range(4)
    ]
    for value, undefined in cases:
        assert value(two[0]) is not None and value(undefined) is None
        with pytest.raises(ValueError, match=reason):
            median_correlation(two + [undefined], value)

    # aggregate_report words each of its six shortfalls the same way
    records, metrics = [], []
    for label, cited in (("A", 3), ("B", 7)):
        for j, (distance, category) in enumerate(
            [(0.0, DiversityCategory.LOW), (1.0, DiversityCategory.MODERATE)]
        ):
            pid = f"{label}{j}"
            records.append(record(pid, 2013, ["a", "b"], ["x"], citations=cited))
            metrics.append(PaperDiversity(pid, 2, 1, distance, 1 + j, category, 0))
    result = aggregate_report(load_records(records), AnalysisConfig(), metrics)
    names = ["ratio"] + [f"{c} share" for c in _CATEGORY_NAMES] + ["severity ratio"]
    assert [w for w in result.warnings if "correlation" in w] == [
        f"{name} correlation unavailable: need at least 3 points, got 2" for name in names
    ]


def test_ratio_correlation_monotone_fixture():
    stats = [
        _stats("A", 2, 5, 30, 3.0, 10, 10, (30, 0, 0, 0)),
        _stats("B", 5, 10, 30, 6.0, 10, 20, (30, 0, 0, 0)),
        _stats("C", 10, 15, 30, 12.0, 10, 30, (30, 0, 0, 0)),
        _stats("D", 15, 20, 30, 17.0, 10, 45, (30, 0, 0, 0)),
    ]
    result = median_correlation(stats, attrgetter("one_zero_ratio"))
    assert result.r > 0


def test_delta_vs_self_is_zero():
    stats = [_stats("A", 2, 5, 40, 3.0, 5, 10, (20, 12, 6, 2))]
    deltas = category_delta_vs_baseline(stats, "A")
    assert deltas["A"] == (0.0, 0.0, 0.0, 0.0)


def test_deltas_sum_to_zero_per_bucket():
    stats = [
        _stats("A", 2, 5, 40, 3.0, 5, 10, (20, 12, 6, 2)),
        _stats("B", 5, 10, 50, 6.0, 5, 10, (19, 16, 10, 5)),
    ]
    deltas = category_delta_vs_baseline(stats, "A")
    assert sum(deltas["B"]) == pytest.approx(0.0, abs=1e-9)


def test_delta_missing_baseline():
    stats = [_stats("A", 2, 5, 10, 3.0, 1, 1, (10, 0, 0, 0))]
    with pytest.raises(ValueError):
        category_delta_vs_baseline(stats, "Z")


def test_identical_buckets_give_p_one():
    cats = (50, 30, 15, 5)
    stats = [
        _stats(label, 2, 5, 100, float(m), 10, 10, cats)
        for label, m in zip("ABCD", [3, 6, 12, 17])
    ]
    adjacent, pooled = homogeneity_comparisons(stats)
    assert [label for label, _, _ in adjacent] == ["A vs B", "B vs C", "C vs D"]
    assert [label for label, _, _ in pooled] == ["A vs pooled B-D", "pooled A-B vs pooled C-D"]
    for _, a, b in adjacent + pooled:
        assert chi_square_homogeneity(a, b).p_value == pytest.approx(1.0, abs=1e-12)


def test_one_incomputable_comparison_drops_only_itself():
    # F and G hold only low-diversity papers, so "F vs G" has one category
    # with observations; every other comparison can still be computed.
    medians = [3, 6, 12, 17, 24, 34, 44, 64, 118, 226]
    mixed = [DiversityCategory.LOW, DiversityCategory.MODERATE, DiversityCategory.HIGH]
    records, metrics = [], []
    for label, cited in zip("ABCDEFGHIJ", medians):
        for j in range(3):
            pid = f"{label}{j}"
            records.append(record(pid, 2013, ["a", "b"], ["x"], citations=cited))
            category = DiversityCategory.LOW if label in "FG" else mixed[j]
            metrics.append(PaperDiversity(pid, 2, 1, 0.5, 2, category, 0))
    corpus = load_records(records)
    result = aggregate_report(corpus, AnalysisConfig(), metrics)
    assert len(result.adjacent_tests) == 8
    assert "F vs G" not in [t.label for t in result.adjacent_tests]
    assert len(result.pooled_tests) == 2
    assert [w for w in result.warnings if "chi-square" in w] == [
        "chi-square F vs G unavailable: need at least 2 categories with observations"
    ]
    one_bucket = aggregate_report(corpus, AnalysisConfig(bucket_bounds=((2, None),)), metrics)
    assert one_bucket.adjacent_tests == one_bucket.pooled_tests == []
    assert [w for w in one_bucket.warnings if "chi-square" in w] == [
        "chi-square tests unavailable: need at least 2 nonempty buckets"
    ]


# --- rendering ---


def test_render_layout_and_structure(tmp_path):
    corpus = _team_corpus(n_papers=25, shared_topics=False, seed=21)
    report = run_analysis(corpus, AnalysisConfig())
    render(report, tmp_path)
    for expected in [
        "tables/table1.csv",
        "tables/table2.csv",
        "tables/table3.csv",
        "figures/fig2.svg",
        "figures/fig3.svg",
        "figures/fig4.svg",
        "report.md",
        "config.json",
    ]:
        assert (tmp_path / expected).is_file(), expected
    markdown = (tmp_path / "report.md").read_text()
    # one markdown table per reference-table analogue
    assert markdown.count("| --- |") >= 3


def test_rendered_csvs_reproduce_bucket_stats(tmp_path):
    corpus = _team_corpus(n_papers=25, shared_topics=False, seed=20)
    report = run_analysis(corpus, AnalysisConfig())
    render(report, tmp_path, formats=("csv",))
    by_label = {s.label: s for s in report.buckets}

    with open(tmp_path / "tables" / "table1.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            s = by_label[row["bucket"]]
            assert int(row["n_papers"]) == s.n_papers
            if row["citation_median"]:
                assert float(row["citation_median"]) == s.citation_median
            else:
                assert s.citation_median is None
    with open(tmp_path / "tables" / "table2.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            s = by_label[row["bucket"]]
            assert int(row["zeros"]) == s.zeros
            assert int(row["ones"]) == s.ones
            if row["one_zero_ratio"]:
                assert float(row["one_zero_ratio"]) == s.one_zero_ratio
    with open(tmp_path / "tables" / "table3.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            s = by_label[row["bucket"]]
            counts = tuple(
                int(row[c]) for c in ("low", "moderate", "high", "very_high")
            )
            assert counts == s.category_counts


def test_fig3_has_one_point_per_bucket(tmp_path):
    stats = [
        _stats(label, 0, 0, 100, float(m), 10, 10 + i, (50, 30, 15, 5))
        for i, (label, m) in enumerate(
            zip("ABCDEFGHIJ", [3, 6, 12, 17, 24, 34, 44, 64, 118, 226])
        )
    ]
    metrics_report = aggregate_fake_report(stats)
    render(metrics_report, tmp_path, formats=("svg",))
    svg = (tmp_path / "figures" / "fig3.svg").read_text()
    assert svg.count("<circle") == 10


def test_fig3_leaves_out_a_zero_median_bucket(tmp_path):
    # fig3's x axis is logarithmic, so a median of 0 has no point on it
    stats = [
        _stats(label, 0, 0, 100, float(m), 10, 10 + i, (50, 30, 15, 5))
        for i, (label, m) in enumerate(
            zip("ABCDEFGHIJ", [0, 6, 12, 17, 24, 34, 44, 64, 118, 226])
        )
    ]
    render(aggregate_fake_report(stats), tmp_path, formats=("svg",))
    svg = (tmp_path / "figures" / "fig3.svg").read_text()
    assert svg.count("<circle") == 9


def aggregate_fake_report(stats):
    from teamdiv.report import AnalysisReport, Histogram

    return AnalysisReport(
        config=AnalysisConfig(),
        metrics=[],
        buckets=stats,
        histogram=Histogram(1, 1, tuple([0] * 20)),
        ratio_correlation=None,
        category_correlations={},
        severity_correlation=None,
        adjacent_tests=[],
        pooled_tests=[],
        baseline="A",
        category_deltas=category_delta_vs_baseline(stats, "A"),
        warnings=[],
    )


# --- bucket-level oracle: statistics, collections and scipy only ---

_CATEGORY_NAMES = ("low", "moderate", "high", "very_high")


def _oracle_pearson(pairs):
    """(r, p) of the pairs, or None where Pearson r is undefined."""
    if len(pairs) < 3:
        return None
    x, y = zip(*pairs)
    if len(set(x)) == 1 or len(set(y)) == 1:
        return None
    result = pearsonr(x, y)
    return result.statistic, result.pvalue


def _oracle_chi_square(counts_a, counts_b):
    """(statistic, df, p) of a 2-row homogeneity test over the observed columns."""
    columns = [(a, b) for a, b in zip(counts_a, counts_b) if a + b > 0]
    if len(columns) < 2:
        return None
    result = chi2_contingency([list(row) for row in zip(*columns)], correction=False)
    return result.statistic, result.dof, result.pvalue


def _oracle_aggregate(citations, config, metrics):
    """Every bucket-level number of the report, from the metrics and citation counts."""
    labels = [b.label for b in config.buckets]
    by_label = defaultdict(list)
    for m in metrics:
        cited = citations[m.paper_id]
        label = next(
            label
            for label, (lo, hi) in zip(labels, config.bucket_bounds)
            if lo <= cited and (hi is None or cited < hi)
        )
        by_label[label].append((cited, m))
    buckets = {}
    for label in labels:
        papers = by_label[label]
        categories = Counter(m.category.value for _, m in papers)
        buckets[label] = {
            "n": len(papers),
            "median": statistics.median(c for c, _ in papers) if papers else None,
            "zeros": sum(1 for _, m in papers if m.max_distance == 0.0),
            "ones": sum(1 for _, m in papers if m.max_distance == 1.0),
            "categories": tuple(categories[c] for c in _CATEGORY_NAMES),
        }
    usable = [label for label in labels if buckets[label]["n"]]
    share = {
        label: [100.0 * c / buckets[label]["n"] for c in buckets[label]["categories"]]
        for label in usable
    }
    ratio = _oracle_pearson([
        (buckets[l]["median"], buckets[l]["ones"] / buckets[l]["zeros"])
        for l in usable
        if buckets[l]["zeros"]
    ])
    category_correlations = {
        name: _oracle_pearson([(buckets[l]["median"], share[l][i]) for l in usable])
        for i, name in enumerate(_CATEGORY_NAMES)
    }
    severity = _oracle_pearson([
        (buckets[l]["median"], (buckets[l]["categories"][2] + buckets[l]["categories"][3])
         / buckets[l]["categories"][0])
        for l in usable
        if buckets[l]["categories"][0]
    ])
    rows = {l: buckets[l]["categories"] for l in usable}

    def pooled(members):
        return [sum(col) for col in zip(*(rows[l] for l in members))]

    comparisons = [(f"{a} vs {b}", rows[a], rows[b]) for a, b in zip(usable, usable[1:])]
    comparisons.append(
        (f"{usable[0]} vs pooled {usable[1]}-{usable[-1]}", rows[usable[0]], pooled(usable[1:]))
    )
    if len(usable) >= 3:
        comparisons.append((
            f"pooled {usable[0]}-{usable[1]} vs pooled {usable[2]}-{usable[-1]}",
            pooled(usable[:2]),
            pooled(usable[2:]),
        ))
    chi_square = {label: _oracle_chi_square(a, b) for label, a, b in comparisons}
    deltas = {
        l: [p - b for p, b in zip(share[l], share[usable[0]])] for l in usable
    }
    distances = [m.max_distance for m in metrics if m.max_distance is not None]
    histogram = (
        distances.count(0.0),
        distances.count(1.0),
        sum(1 for d in distances if 0.0 < d < 1.0),
    )
    return buckets, ratio, category_correlations, severity, chi_square, deltas, histogram


def _synth_corpus():
    return load_papers(generate_corpus(SynthParams(seed=5, n_papers=400, n_authors=300)))


def _overlap_corpus():
    return load_records(_overlap_records())


@pytest.mark.parametrize("build", [_overlap_corpus, _synth_corpus], ids=["overlap", "synth"])
def test_run_analysis_reports_what_aggregate_report_does(build, cpus):
    """run_analysis aggregates the citation counts of the records it scored,
    and aggregate_report looks them up in the corpus: one report either way."""
    cpus(1)
    corpus = build()
    config = AnalysisConfig()
    metrics = compute_paper_metrics(corpus, config, select_analysis_set(corpus, config))
    result = run_analysis(corpus, config)
    assert aggregate_report(corpus, config, metrics[::-1]) == result
    assert result.metrics == metrics
    assert sum(s.n_papers for s in result.buckets) == len(metrics) > 0


def _close(a, b):
    return pytest.approx(b, rel=1e-9, abs=1e-12) == a


@pytest.mark.parametrize("build", [_synth_corpus, _overlap_corpus], ids=["synth", "overlap"])
def test_aggregate_report_matches_an_independent_bucket_oracle(build):
    corpus = build()
    config = AnalysisConfig()
    metrics = compute_paper_metrics(corpus, config, select_analysis_set(corpus, config))
    citations = {paper.id: paper.citations_5y for paper in corpus.papers}
    buckets, ratio, category_corrs, severity, chi_square, deltas, histogram = _oracle_aggregate(
        citations, config, metrics
    )
    assert sum(1 for b in buckets.values() if b["n"]) >= 3
    result = aggregate_report(corpus, config, metrics)

    assert {
        s.label: {
            "n": s.n_papers,
            "median": s.citation_median,
            "zeros": s.zeros,
            "ones": s.ones,
            "categories": s.category_counts,
        }
        for s in result.buckets
    } == buckets
    h = result.histogram
    assert (h.zero_count, h.one_count, sum(h.bin_counts)) == histogram

    def same_correlation(got, expected):
        if expected is None:
            return got is None
        return got is not None and _close(got.r, expected[0]) and _close(got.p_value, expected[1])

    assert same_correlation(result.ratio_correlation, ratio)
    assert result.category_correlations.keys() == category_corrs.keys()
    for name, expected in category_corrs.items():
        assert same_correlation(result.category_correlations[name], expected), name
    assert same_correlation(result.severity_correlation, severity)
    assert sum(1 for c in [ratio, severity, *category_corrs.values()] if c is not None) >= 3

    tests = {t.label: t.result for t in result.adjacent_tests + result.pooled_tests}
    assert tests.keys() == {label for label, c in chi_square.items() if c is not None}
    for label, (statistic, df, p) in ((l, c) for l, c in chi_square.items() if c is not None):
        assert tests[label].df == df, label
        assert _close(tests[label].statistic, statistic), label
        assert _close(tests[label].p_value, p), label

    assert result.category_deltas.keys() == deltas.keys()
    for label, expected in deltas.items():
        assert all(map(_close, result.category_deltas[label], expected)), label
