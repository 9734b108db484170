"""Traced run of one workload, in a fresh process.

Calls the public functions that ``teamdiv analyze`` and ``teamdiv validate``
call, in the same order, with a span around each call and counts taken at
the same boundaries. Spans and counts stay in memory and are written as
JSON at the end. Nothing inside ``teamdiv`` is instrumented.

    python3 trace_child.py analyze|validate CORPUS OUT_DIR RESULT_JSON SEED
"""
from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from contextlib import contextmanager

from teamdiv.corpus import AnalysisConfig, load_corpus, prior_window, select_analysis_set, validate_jsonl
from teamdiv.expertise import background_distribution
from teamdiv.report import ALL_FORMATS, aggregate_report, build_profiles, compute_paper_metrics, render

import oracle

ORACLE_SAMPLE = 200


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent})

    def gc_counts(self) -> dict:
        return {"runtime.gc_s": self.gc_s, "runtime.gc_collections": self.gc_collections}


def traced_analyze(tracer: Tracer, corpus_path: str, out_dir: str, seed: int) -> dict:
    config = AnalysisConfig()
    counts: dict = {}
    with tracer.span("corpus.load"):
        corpus = load_corpus(corpus_path)
    counts["corpus.load_peak_rss_mb"] = peak_rss_mb()
    counts["corpus.records"] = len(corpus)
    with tracer.span("corpus.select"):
        selected = select_analysis_set(corpus, config)
    counts["corpus.selected"] = len(selected)
    paper_ids = sorted(selected)
    with tracer.span("expertise.profiles"):
        with tracer.span("expertise.background"):
            background = background_distribution(corpus)
        profiles = build_profiles(corpus, config, paper_ids, background=background)
    counts["expertise.profiles_peak_rss_mb"] = peak_rss_mb()
    counts["expertise.profiles"] = len(profiles)
    counts["expertise.profiles_empty"] = sum(1 for v in profiles.values() if v.is_empty)
    counts["expertise.profiles_truncated"] = sum(1 for v in profiles.values() if len(v.entries) == config.top_k)
    counts["expertise.window_papers"] = sum(
        len(prior_window(corpus, author, year, config.window_years)) for author, year in profiles
    )
    with tracer.span("diversity.metrics"):
        metrics = compute_paper_metrics(corpus, config, selected, profiles=profiles, jobs=1)
    counts["diversity.metrics_peak_rss_mb"] = peak_rss_mb()
    counts["diversity.pairs"] = sum(m.pair_count for m in metrics)
    counts["diversity.excluded_authors"] = sum(m.excluded_authors for m in metrics)
    distances = [m.max_distance for m in metrics]
    counts["diversity.max_zero"] = sum(1 for d in distances if d == 0.0)
    counts["diversity.max_one"] = sum(1 for d in distances if d == 1.0)
    counts["diversity.max_none"] = sum(1 for d in distances if d is None)
    counts["diversity.max_interior"] = sum(1 for d in distances if d is not None and 0.0 < d < 1.0)
    for category in ("low", "moderate", "high", "very_high"):
        counts[f"diversity.cat_{category}"] = sum(1 for m in metrics if m.category.value == category)
    with tracer.span("report.aggregate"):
        report = aggregate_report(corpus, config, metrics)
    with tracer.span("report.render"):
        written = render(report, out_dir, formats=ALL_FORMATS)
    counts["report.output_bytes"] = sum(p.stat().st_size for p in written)
    counts.update(tracer.gc_counts())

    # Spot oracle, outside every span.
    sample = random.Random(seed).sample(paper_ids, min(ORACLE_SAMPLE, len(paper_ids)))
    by_id = {m.paper_id: m for m in metrics}
    papers = {pid: (corpus.by_id[pid].year, corpus.by_id[pid].authors) for pid in sample}
    computed = {pid: (by_id[pid].max_distance, by_id[pid].n_components) for pid in sample}
    del corpus, profiles, metrics, report, by_id
    mismatches, below, above = oracle.check_sample(
        corpus_path, papers, computed, config.window_years, config.top_k,
        config.edge_threshold, config.inclusive_threshold,
    )
    counts["oracle"] = {"checked": len(sample), "mismatches": mismatches,
                        "pairs_below_threshold": below, "pairs_above_threshold": above}
    return counts


def traced_validate(tracer: Tracer, corpus_path: str) -> dict:
    with tracer.span("corpus.validate"):
        problems = validate_jsonl(corpus_path)
    return {"corpus.problems": len(problems), **tracer.gc_counts()}


def main(argv: list[str]) -> int:
    command, corpus_path, out_dir, result_path, seed = argv
    tracer = Tracer()
    if command == "analyze":
        counts = traced_analyze(tracer, corpus_path, out_dir, int(seed))
    else:
        counts = traced_validate(tracer, corpus_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": counts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
