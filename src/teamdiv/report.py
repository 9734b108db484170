"""End-to-end analysis: select, profile, score, bucket, aggregate, render.

The pipeline groups the analysis set into citation buckets and aggregates
both diversity metrics per bucket, then runs the association tests:
Pearson correlation of the #1/#0 ratio (and category shares) against the
bucket citation medians, and chi-square homogeneity tests between
adjacent and pooled buckets.

``run_analysis`` walks the corpus once, to select the papers and group them
by year; it aggregates from the records it scored, so the corpus is not
walked again. ``aggregate_report`` gives the same report from metrics alone,
looking their citation counts up in the corpus.
"""
from __future__ import annotations

import csv
import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from . import svgchart
from .corpus import (
    AnalysisConfig,
    CitationBucket,
    Corpus,
    PaperRecord,
    _analysis_papers_by_year,
    _window_bounds,
)
from .diversity import CATEGORIES, PaperDiversity, paper_diversity
from .expertise import (
    ExpertiseVector,
    TopicDistribution,
    _count_topics,
    _top_k,
    background_distribution,
    profile_author,
)
from .stats import (
    ChiSquareResult,
    CorrelationResult,
    chi_square_homogeneity,
    median,
    pearson,
    pool_counts,
)

# width of fig2's interior max-distance bins; bin i starts at its labelled edge i * width
BIN_WIDTH = 0.05
_BIN_EDGES = [i * BIN_WIDTH for i in range(1, round(1 / BIN_WIDTH))]

# aggregate_report's citation count for a metric whose paper the corpus lacks
_NOT_IN_CORPUS = object()


class EmptyAnalysisSetError(ValueError):
    """No papers satisfied the selection constraints."""


@dataclass(frozen=True)
class Histogram:
    """Interior bin counts over (0, 1) plus exact-0 and exact-1 spikes."""

    zero_count: int
    one_count: int
    bin_counts: tuple[int, ...]


@dataclass(frozen=True)
class BucketStats:
    """Aggregates for one citation bucket.

    ``category_counts`` and ``category_percentages`` follow the category
    order (low, moderate, high, very_high). Derived fields are None when
    the bucket is empty or the denominator is zero.
    """

    bucket: CitationBucket
    n_papers: int
    citation_median: float | None
    zeros: int
    ones: int
    category_counts: tuple[int, int, int, int]

    @property
    def label(self) -> str:
        return self.bucket.label

    @property
    def one_zero_ratio(self) -> float | None:
        if self.zeros == 0:
            return None
        return self.ones / self.zeros

    @property
    def category_percentages(self) -> tuple[float, float, float, float] | None:
        if self.n_papers == 0:
            return None
        return tuple(100.0 * c / self.n_papers for c in self.category_counts)

    @property
    def severity_ratio(self) -> float | None:
        """(high + very_high) / low share, the classic last-column summary."""
        low = self.category_counts[0]
        if low == 0:
            return None
        return (self.category_counts[2] + self.category_counts[3]) / low


@dataclass(frozen=True)
class LabeledTest:
    label: str
    result: ChiSquareResult


@dataclass
class AnalysisReport:
    """The aggregated analysis; ``metrics`` holds its papers' metrics, ordered by paper id."""

    config: AnalysisConfig
    metrics: list[PaperDiversity]
    buckets: list[BucketStats]
    histogram: Histogram
    ratio_correlation: CorrelationResult | None
    category_correlations: dict[str, CorrelationResult | None]
    severity_correlation: CorrelationResult | None
    adjacent_tests: list[LabeledTest]
    pooled_tests: list[LabeledTest]
    baseline: str
    category_deltas: dict[str, tuple[float, float, float, float]]
    warnings: list[str] = field(default_factory=list)


def _papers_by_year(corpus: Corpus, paper_ids: Iterable[str]) -> dict[int, list[PaperRecord]]:
    """The records of the given ids grouped by year, from one pass over the corpus.

    A set of ids is read as it is; any other iterable is copied into one.
    """
    wanted = paper_ids if isinstance(paper_ids, (set, frozenset)) else set(paper_ids)
    papers_by_year: dict[int, list[PaperRecord]] = {}
    for paper in corpus.papers:
        if paper.id in wanted:
            papers_by_year.setdefault(paper.year, []).append(paper)
    return papers_by_year


def build_profiles(
    corpus: Corpus,
    config: AnalysisConfig,
    paper_ids: Iterable[str],
    background: TopicDistribution | None = None,
) -> dict[tuple[str, int], ExpertiseVector]:
    """Expertise vectors for every (author, year) pair the papers need.

    ``compute_paper_metrics``' grouping, with one ``profile_author`` call per
    distinct (author, year) pair and no scoring; a background not given is
    computed on the first call. The dict grows with the distinct pairs.
    """
    profiles: dict[tuple[str, int], ExpertiseVector] = {}
    for year, papers in _papers_by_year(corpus, paper_ids).items():
        for paper in papers:
            for author in paper.authors:
                if (author, year) not in profiles:
                    background = background or background_distribution(corpus)
                    profiles[author, year] = profile_author(corpus, background, author, year, config)
    return profiles


def compute_paper_metrics(
    corpus: Corpus,
    config: AnalysisConfig,
    paper_ids: Iterable[str],
    profiles: dict[tuple[str, int], ExpertiseVector] | None = None,
    jobs: int = 1,
) -> list[PaperDiversity]:
    """Diversity metrics for the given papers, ordered by paper id.

    One pass over the corpus groups the papers by year; this is the only
    place the analysis builds expertise vectors. A vector keyed (author, Y)
    is read only by papers of year Y, so the years are scored one at a time,
    in one fused pass each (``_score_by_year``): each paper's team is built
    (each vector once) and scored before the next paper. Each vector is
    dropped right after its author's last paper of the year is scored, so
    only the vectors of authors with a paper still to score that year are
    alive. The same pass serves a caller's ``profiles`` dict: it reads each
    vector from the dict first, stores there each vector it builds, and the
    dict keeps them all.

    Without a ``profiles`` dict, with at least two years and
    ``fork.can_fork()`` (two CPUs to run on, ``os.fork`` and no other thread
    alive), the years are split into two sets of near-equal authorships, and
    one forked worker scores one set while this process scores the other (see
    ``worker.score_in_two_processes``); otherwise, and always with a
    ``profiles`` dict, every year is scored here. The metrics are the same
    either way. ``jobs`` accepts only 1; it is kept because existing callers
    still pass ``jobs=1``.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    return _score_by_year(corpus, config, _papers_by_year(corpus, paper_ids), profiles)


def _score_by_year(
    corpus: Corpus,
    config: AnalysisConfig,
    papers_by_year: dict[int, list[PaperRecord]],
    profiles: dict[tuple[str, int], ExpertiseVector] | None,
) -> list[PaperDiversity]:
    """``compute_paper_metrics`` on papers already grouped by year.

    One fused pass per year. The first time the year needs an author's
    vector, the pass takes it from the caller's ``profiles`` dict or builds
    it from the steps ``profile_author`` is made of, without its calls and
    intermediate objects: ``_window_bounds`` bisects the author's records,
    ``_count_topics`` counts the window's topics, ``_top_k`` keeps the top k,
    and ``ExpertiseVector`` computes the norm. Each paper is then one
    ``paper_diversity`` call over its team. A vector built here goes into a
    caller's dict, which keeps it; the background is computed before the
    first build, so not at all when the dict holds every vector.
    """
    two_processes = False
    if profiles is None and len(papers_by_year) >= 2:
        from .fork import can_fork

        two_processes = can_fork()
    background = None
    if two_processes:
        # compiled on the first fork, so one-process runs never load it
        from . import worker

        # computed once, before the fork, instead of once in each process
        background = background_distribution(corpus)
    find = corpus.author_index.get
    window_years = config.window_years
    top_k = config.top_k
    threshold = config.edge_threshold
    inclusive = config.inclusive_threshold

    def score(years: Iterable[int]) -> list[PaperDiversity]:
        nonlocal background
        metrics: list[PaperDiversity] = []
        for year in years:
            papers = papers_by_year[year]
            # the index of each author's last paper this year
            last = {author: i for i, paper in enumerate(papers) for author in paper.authors}
            vectors: dict[str, ExpertiseVector] = {}
            for i, paper in enumerate(papers):
                authors = paper.authors
                team = []
                for author in authors:
                    vector = vectors.get(author)
                    if vector is None:
                        if profiles is not None:
                            vector = profiles.get((author, year))
                        if vector is None:
                            if background is None:
                                background = background_distribution(corpus)
                            records = find(author, ())
                            lo, hi = _window_bounds(records, year, window_years)
                            vector = ExpertiseVector(_top_k(
                                _count_topics(records[lo:hi]), hi - lo,
                                background.counts, background.paper_count, top_k,
                            ))
                            if profiles is not None:
                                profiles[author, year] = vector
                        vectors[author] = vector
                    team.append(vector)
                metrics.append(paper_diversity(paper.id, team, threshold, inclusive))
                for author in authors:
                    if last[author] == i:
                        del vectors[author]
        return metrics

    if two_processes:
        metrics = worker.score_in_two_processes(score, papers_by_year)
    else:
        metrics = score(papers_by_year)
    metrics.sort(key=attrgetter("paper_id"))
    return metrics


def max_distance_histogram(distances: Iterable[float]) -> Histogram:
    """Count max distances that are exactly 0, exactly 1, or in [i*w, (i+1)*w).

    Bins the overall max distances for fig2 and report.md; ``_bucket_stats``
    counts each bucket's exact 0s and 1s for table2 by the same equality
    tests. The distance kernel decides the ends.
    """
    counts = [0] * (len(_BIN_EDGES) + 1)
    zero_count = 0
    one_count = 0
    for d in distances:
        if d == 0.0:
            zero_count += 1
        elif d == 1.0:
            one_count += 1
        else:
            counts[bisect_right(_BIN_EDGES, d)] += 1
    return Histogram(zero_count=zero_count, one_count=one_count, bin_counts=tuple(counts))


def median_correlation(
    stats: Sequence[BucketStats], value: Callable[[BucketStats], float | None]
) -> CorrelationResult:
    """Pearson r of (citation median, value) over the buckets where the value
    is defined, in bucket order; ``pearson`` rejects fewer than 3 such buckets."""
    pairs = [(s.citation_median, v) for s in stats if (v := value(s)) is not None]
    return pearson([m for m, _ in pairs], [v for _, v in pairs])


def category_delta_vs_baseline(
    stats: Sequence[BucketStats], baseline: str
) -> dict[str, tuple[float, float, float, float]]:
    """Percentage-point deltas of each bucket's category shares vs a baseline."""
    base = next((s for s in stats if s.label == baseline), None)
    if base is None:
        raise ValueError(f"baseline bucket {baseline!r} not present")
    base_pct = base.category_percentages
    if base_pct is None:
        raise ValueError(f"baseline bucket {baseline!r} is empty")
    deltas: dict[str, tuple[float, float, float, float]] = {}
    for s in stats:
        pct = s.category_percentages
        if pct is None:
            continue
        deltas[s.label] = tuple(p - b for p, b in zip(pct, base_pct))
    return deltas


Comparison = tuple[str, Sequence[int], Sequence[int]]


def homogeneity_comparisons(
    stats: Sequence[BucketStats],
) -> tuple[list[Comparison], list[Comparison]]:
    """The (label, counts, counts) rows that the chi-square homogeneity tests
    compare: adjacent nonempty buckets, and two pooled splits."""
    usable = [s for s in stats if s.n_papers > 0]
    if len(usable) < 2:
        raise ValueError("need at least 2 nonempty buckets")
    adjacent = [
        (f"{a.label} vs {b.label}", a.category_counts, b.category_counts)
        for a, b in zip(usable, usable[1:])
    ]
    first, second, *rest = usable
    pooled = [
        (
            f"{first.label} vs pooled {second.label}-{usable[-1].label}",
            first.category_counts,
            pool_counts([s.category_counts for s in usable[1:]]),
        )
    ]
    if rest:
        pooled.append(
            (
                f"pooled {first.label}-{second.label} vs pooled {rest[0].label}-{rest[-1].label}",
                pool_counts([first.category_counts, second.category_counts]),
                pool_counts([s.category_counts for s in rest]),
            )
        )
    return adjacent, pooled


def _bucket_stats(
    bucket: CitationBucket, citations: Sequence[int], metrics: Sequence[PaperDiversity]
) -> BucketStats:
    """Aggregates of one bucket from its papers' citation counts and metrics,
    in the same order."""
    distances = [m.max_distance for m in metrics]
    categories = Counter([m.category for m in metrics])
    return BucketStats(
        bucket=bucket,
        n_papers=len(metrics),
        citation_median=median(citations) if citations else None,
        zeros=distances.count(0.0),
        ones=distances.count(1.0),
        category_counts=tuple(categories[c] for c in CATEGORIES),
    )


def aggregate_report(
    corpus: Corpus,
    config: AnalysisConfig,
    metrics: Sequence[PaperDiversity],
) -> AnalysisReport:
    """Reduce per-paper metrics into the full report.

    Deterministic given corpus and config; metrics may arrive in any order.
    A statistic whose computation raises ValueError is left out (None, or
    empty) with the warning "<name> unavailable: <reason>".

    Each metric's citation count is looked up in one pass over the corpus;
    a paper the corpus lacks, or one without a count, is a ValueError. The
    report is then ``run_analysis``'s, from ``_aggregate``.
    """
    if not metrics:
        raise EmptyAnalysisSetError("no papers to aggregate")
    metrics = sorted(metrics, key=attrgetter("paper_id"))
    # each metric's citation count, filled in one pass over the corpus
    citations = dict.fromkeys([m.paper_id for m in metrics], _NOT_IN_CORPUS)
    for paper in corpus.papers:
        if paper.id in citations:
            citations[paper.id] = paper.citations_5y
    for m in metrics:
        cited = citations[m.paper_id]
        if cited is _NOT_IN_CORPUS:
            raise ValueError(f"paper {m.paper_id!r} is not in the corpus")
        if cited is None:
            raise ValueError(f"paper {m.paper_id!r} has no citation count")
    return _aggregate(config, metrics, citations)


def _aggregate(
    config: AnalysisConfig, metrics: list[PaperDiversity], citations: Mapping[str, int]
) -> AnalysisReport:
    """The report of metrics sorted by paper id, given each one's citation count.

    Each bucket is tallied as a list of its papers' citation counts and a
    list of their metrics, the metric objects given, not copies; a count
    that fits no bucket is a ValueError.
    """
    tallies: dict[CitationBucket, tuple[list[int], list[PaperDiversity]]] = {
        b: ([], []) for b in config.buckets
    }
    for m in metrics:
        cited = citations[m.paper_id]
        for bucket, (counts, tallied) in tallies.items():
            if bucket.contains(cited):
                break
        else:
            raise ValueError(f"paper {m.paper_id!r} fits no citation bucket")
        counts.append(cited)
        tallied.append(m)
    bucket_stats = [_bucket_stats(b, *tally) for b, tally in tallies.items()]
    # every paper landed in a bucket, so at least one is nonempty
    usable = [s for s in bucket_stats if s.n_papers > 0]

    warnings = [
        f"bucket {s.label} is empty; derived statistics undefined"
        for s in bucket_stats
        if s.n_papers == 0
    ]
    warnings += [
        f"bucket {s.label} has no exact-0 papers; ratio undefined"
        for s in usable
        if s.one_zero_ratio is None
    ]

    def attempt(name: str, compute: Callable, *args):
        try:
            return compute(*args)
        except ValueError as exc:
            warnings.append(f"{name} unavailable: {exc}")
            return None

    def tested(comparisons: list[Comparison]) -> list[LabeledTest]:
        results = [
            (label, attempt(f"chi-square {label}", chi_square_homogeneity, a, b))
            for label, a, b in comparisons
        ]
        return [LabeledTest(label, result) for label, result in results if result is not None]

    def correlation(name: str, value: Callable[[BucketStats], float | None]):
        return attempt(f"{name} correlation", median_correlation, bucket_stats, value)

    ratio_corr = correlation("ratio", attrgetter("one_zero_ratio"))
    category_correlations = {
        category.value: correlation(
            f"{category.value} share",
            lambda s: None if s.n_papers == 0 else s.category_percentages[i],
        )
        for i, category in enumerate(CATEGORIES)
    }
    severity_corr = correlation("severity ratio", attrgetter("severity_ratio"))
    comparisons = attempt("chi-square tests", homogeneity_comparisons, bucket_stats) or ([], [])
    adjacent, pooled = map(tested, comparisons)
    baseline = usable[0].label

    return AnalysisReport(
        config=config,
        metrics=metrics,
        buckets=bucket_stats,
        histogram=max_distance_histogram(
            m.max_distance for m in metrics if m.max_distance is not None
        ),
        ratio_correlation=ratio_corr,
        category_correlations=category_correlations,
        severity_correlation=severity_corr,
        adjacent_tests=adjacent,
        pooled_tests=pooled,
        baseline=baseline,
        category_deltas=category_delta_vs_baseline(bucket_stats, baseline),
        warnings=warnings,
    )


def run_analysis(
    corpus: Corpus,
    config: AnalysisConfig,
    profiles: dict[tuple[str, int], ExpertiseVector] | None = None,
) -> AnalysisReport:
    """Full pipeline: select, profile, score each paper, aggregate, test.

    The analysis ``teamdiv analyze`` runs. A ``profiles`` dict receives every
    expertise vector scoring builds, and then every year is scored in this
    process (see ``compute_paper_metrics``).

    One walk over the corpus selects the papers and groups them by year. The
    citation counts the report needs come from those records, so the corpus
    is not walked again, and the metrics arrive already sorted by paper id.
    The report equals ``aggregate_report(corpus, config, metrics)``.
    """
    papers_by_year = _analysis_papers_by_year(corpus, config)
    if not papers_by_year:
        raise EmptyAnalysisSetError("no papers satisfy the selection constraints")
    metrics = _score_by_year(corpus, config, papers_by_year, profiles)
    # built once scoring is done, so it never adds to scoring's peak
    citations = {
        paper.id: paper.citations_5y for papers in papers_by_year.values() for paper in papers
    }
    del papers_by_year  # not read again
    return _aggregate(config, metrics, citations)


# ---------- rendering ----------

ALL_FORMATS = ("csv", "markdown", "svg")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _opt_repr(value: float | None) -> str:
    return "" if value is None else repr(value)


def _render_tables(report: AnalysisReport, tables_dir: Path) -> list[Path]:
    tables_dir.mkdir(parents=True, exist_ok=True)
    t1 = tables_dir / "table1.csv"
    _write_csv(
        t1,
        ["bucket", "citation_range", "citation_median", "n_papers"],
        [
            [s.label, s.bucket.range_text(), _opt_repr(s.citation_median), s.n_papers]
            for s in report.buckets
        ],
    )
    t2 = tables_dir / "table2.csv"
    _write_csv(
        t2,
        ["bucket", "zeros", "ones", "one_zero_ratio"],
        [[s.label, s.zeros, s.ones, _opt_repr(s.one_zero_ratio)] for s in report.buckets],
    )
    t3 = tables_dir / "table3.csv"
    cat_names = [c.value for c in CATEGORIES]
    header = (
        ["bucket"]
        + cat_names
        + [f"{c}_pct" for c in cat_names]
        + ["n_papers", "severity_ratio"]
    )
    rows = []
    for s in report.buckets:
        pct = s.category_percentages or (None, None, None, None)
        rows.append(
            [s.label]
            + list(s.category_counts)
            + [_opt_repr(p) for p in pct]
            + [s.n_papers, _opt_repr(s.severity_ratio)]
        )
    _write_csv(t3, header, rows)
    return [t1, t2, t3]


def _corr_text(result: CorrelationResult | None) -> str:
    if result is None:
        return "undefined"
    verdict = "significant" if result.significant else "not significant"
    return f"r = {result.r:.3f}, p = {result.p_value:.3g} ({verdict})"


def _render_markdown(report: AnalysisReport, path: Path) -> Path:
    lines = ["# Team expertise-diversity analysis", ""]
    lines.append(f"Papers analysed: {len(report.metrics)}")
    lines.append("")
    lines.append("## Citation buckets")
    lines.append("")
    lines.append("| bucket | citation range | median | papers |")
    lines.append("| --- | --- | --- | --- |")
    for s in report.buckets:
        med = "" if s.citation_median is None else f"{s.citation_median:g}"
        lines.append(f"| {s.label} | {s.bucket.range_text()} | {med} | {s.n_papers} |")
    lines.append("")
    lines.append("## Exact-0 and exact-1 max-distance counts")
    lines.append("")
    lines.append("| bucket | #0 | #1 | #1/#0 |")
    lines.append("| --- | --- | --- | --- |")
    for s in report.buckets:
        ratio = "" if s.one_zero_ratio is None else f"{s.one_zero_ratio:.2f}"
        lines.append(f"| {s.label} | {s.zeros} | {s.ones} | {ratio} |")
    lines.append("")
    lines.append("## Diversity category shares")
    lines.append("")
    lines.append("| bucket | low | moderate | high | very high | papers | (high+very)/low |")
    lines.append("| --- | --- | --- | --- | --- | --- | --- |")
    for s in report.buckets:
        pct = s.category_percentages
        if pct is None:
            cells = ["", "", "", ""]
        else:
            cells = [f"{p:.2f}%" for p in pct]
        sev = "" if s.severity_ratio is None else f"{s.severity_ratio:.2f}"
        lines.append(
            f"| {s.label} | {cells[0]} | {cells[1]} | {cells[2]} | {cells[3]} "
            f"| {s.n_papers} | {sev} |"
        )
    lines.append("")
    lines.append("## Association tests")
    lines.append("")
    lines.append(f"- #1/#0 ratio vs citation median: {_corr_text(report.ratio_correlation)}")
    for name, corr in report.category_correlations.items():
        lines.append(f"- {name} share vs citation median: {_corr_text(corr)}")
    lines.append(
        f"- (high+very)/low ratio vs citation median: {_corr_text(report.severity_correlation)}"
    )
    lines.append("")
    lines.append("| comparison | chi-square | df | p | significant |")
    lines.append("| --- | --- | --- | --- | --- |")
    for t in report.adjacent_tests + report.pooled_tests:
        r = t.result
        lines.append(
            f"| {t.label} | {r.statistic:.3f} | {r.df} | {r.p_value:.3g} "
            f"| {'yes' if r.significant else 'no'} |"
        )
    lines.append("")
    lines.append(f"## Category share deltas vs bucket {report.baseline}")
    lines.append("")
    lines.append("| bucket | low | moderate | high | very high |")
    lines.append("| --- | --- | --- | --- | --- |")
    for label, delta in report.category_deltas.items():
        cells = " | ".join(f"{d:+.2f}" for d in delta)
        lines.append(f"| {label} | {cells} |")
    lines.append("")
    h = report.histogram
    lines.append("## Max-distance histogram")
    lines.append("")
    lines.append(
        f"Exact 0: {h.zero_count}; exact 1: {h.one_count}; "
        f"interior values: {sum(h.bin_counts)} in bins of width {BIN_WIDTH:g}."
    )
    if report.warnings:
        lines.append("")
        lines.append("## Warnings")
        lines.append("")
        for w in report.warnings:
            lines.append(f"- {w}")
    lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _render_figures(report: AnalysisReport, figures_dir: Path) -> list[Path]:
    figures_dir.mkdir(parents=True, exist_ok=True)
    h = report.histogram
    labels = ["0"]
    values = [float(h.zero_count)]
    for i, count in enumerate(h.bin_counts):
        labels.append(f"{i * BIN_WIDTH:.2f}")
        values.append(float(count))
    labels.append("1")
    values.append(float(h.one_count))
    fig2 = figures_dir / "fig2.svg"
    fig2.write_text(
        svgchart.bar_chart(
            labels, values, "Max cosine distance distribution", "max distance", "papers"
        ),
        encoding="utf-8",
    )
    # fig3's x axis is logarithmic, so a bucket whose median is 0 has no place on it
    pairs = [
        (s.citation_median, s.one_zero_ratio)
        for s in report.buckets
        if s.citation_median is not None
        and s.citation_median > 0
        and s.one_zero_ratio is not None
    ]
    fig3 = figures_dir / "fig3.svg"
    fig3.write_text(
        svgchart.scatter_line_chart(
            [m for m, _ in pairs],
            [r for _, r in pairs],
            "#1/#0 ratio vs citation median",
            "citation median (log scale)",
            "#1/#0 ratio",
        ),
        encoding="utf-8",
    )
    delta_labels = [l for l in report.category_deltas if l != report.baseline]
    series = [
        [report.category_deltas[l][i] for l in delta_labels] for i in range(len(CATEGORIES))
    ]
    fig4 = figures_dir / "fig4.svg"
    fig4.write_text(
        svgchart.grouped_bar_chart(
            delta_labels,
            [c.value for c in CATEGORIES],
            series,
            f"Category share deltas vs bucket {report.baseline}",
            "bucket",
            "percentage points",
        ),
        encoding="utf-8",
    )
    return [fig2, fig3, fig4]


def render(
    report: AnalysisReport,
    out_dir: str | Path,
    formats: Sequence[str] = ALL_FORMATS,
) -> list[Path]:
    """Write tables, figures, the markdown report, and the config echo.

    Output is byte-identical across reruns with the same report.
    """
    unknown = set(formats) - set(ALL_FORMATS)
    if unknown:
        raise ValueError(f"unknown render formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in formats:
        written.extend(_render_tables(report, out / "tables"))
    if "markdown" in formats:
        written.append(_render_markdown(report, out / "report.md"))
    if "svg" in formats:
        written.extend(_render_figures(report, out / "figures"))
    config_path = out / "config.json"
    config_path.write_text(
        json.dumps(report.config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written.append(config_path)
    return written
