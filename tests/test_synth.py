import json
import math
import re

import pytest

from teamdiv.corpus import AnalysisConfig, select_analysis_set, write_corpus_jsonl
from teamdiv.report import run_analysis
from teamdiv.stats import chi_square_survival
from teamdiv.synth import (
    RNG_ALGORITHM,
    SynthParams,
    generate_corpus,
    write_params,
)
from tests.conftest import load_papers


def test_fixed_seed_is_byte_identical(tmp_path):
    params = SynthParams(seed=123, n_papers=300, n_authors=200)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_corpus_jsonl(generate_corpus(params), path_a)
    write_corpus_jsonl(generate_corpus(params), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_different_seeds_differ():
    a = generate_corpus(SynthParams(seed=1, n_papers=200, n_authors=150))
    b = generate_corpus(SynthParams(seed=2, n_papers=200, n_authors=150))
    assert a != b


def test_analysis_papers_satisfy_constraints_by_construction():
    params = SynthParams(seed=5, n_papers=400, n_authors=300)
    corpus = load_papers(generate_corpus(params))
    selected = select_analysis_set(corpus, AnalysisConfig())
    analysis_ids = {p.id for p in corpus.papers if p.id.startswith("p")}
    assert selected == analysis_ids
    assert len(analysis_ids) == 400


def test_homogeneous_world_is_all_low():
    params = SynthParams(
        seed=9, n_papers=150, n_authors=100, n_expertise_clusters=1, cluster_mix=0.0
    )
    report = run_analysis(load_papers(generate_corpus(params)), AnalysisConfig())
    for s in report.buckets:
        low, moderate, high, very_high = s.category_counts
        assert (moderate, high, very_high) == (0, 0, 0)
    assert report.histogram.one_count == 0


def test_cluster_usage_matches_uniform_model():
    # every generated record uses exactly one cluster topic core; usage
    # should be uniform across clusters by symmetry
    params = SynthParams(seed=31, n_papers=50_000, n_authors=8000, n_topics=200)
    papers = generate_corpus(params)
    cores = {}
    n_clusters = params.n_expertise_clusters
    per_cluster = params.n_topics // n_clusters
    for c in range(n_clusters):
        topics = tuple(
            f"t{i:04d}" for i in range(c * per_cluster, (c + 1) * per_cluster)
        )
        cores[topics] = c
    observed = [0] * n_clusters
    n_core_papers = 0
    for paper in papers:
        cluster = cores.get(paper.topics)
        if cluster is None:
            continue  # filler records sit outside the cluster model
        observed[cluster] += 1
        n_core_papers += 1
    expected = n_core_papers / n_clusters
    statistic = sum((obs - expected) ** 2 / expected for obs in observed)
    p = chi_square_survival(statistic, n_clusters - 1)
    assert p > 0.01


def test_team_sizes_respect_distribution_support():
    params = SynthParams(
        seed=3,
        n_papers=500,
        n_authors=400,
        team_size_distribution={2: 0.5, 5: 0.5},
    )
    sizes = {len(p.authors) for p in generate_corpus(params) if p.id.startswith("p")}
    assert sizes <= {2, 5}


def test_backfill_records_have_no_citations():
    for paper in generate_corpus(SynthParams(seed=4, n_papers=100, n_authors=80)):
        if paper.id.startswith("b"):
            assert paper.citations_5y is None
            assert len(paper.authors) == 1


_INFEASIBLE = [
    ({"n_authors": 1}, "counts must be positive (>=2 authors)"),
    ({"team_size_distribution": {1: 1.0}}, "team sizes must lie in {2..12}"),
    ({"team_size_distribution": {13: 1.0}}, "team sizes must lie in {2..12}"),
    ({"team_size_distribution": {2: 0.4, 3: 0.4}},
     "team size probabilities must be >=0 and sum to 1"),
    ({"n_expertise_clusters": 0}, "need 1 <= n_expertise_clusters <= n_topics"),
    ({"n_expertise_clusters": 999, "n_topics": 100}, "need 1 <= n_expertise_clusters <= n_topics"),
    ({"cluster_mix": 1.5}, "cluster_mix must lie in [0, 1]"),
    ({"coupling": 2.0}, "coupling must lie in [-1, 1]"),
    ({"citation_noise": 0.0}, "citation_noise must be positive"),
    ({"team_size_distribution": {8: 1.0}, "n_authors": 5}, "largest team size exceeds n_authors"),
    ({"citation_noise": math.inf}, "citation_noise must be finite, got inf"),
    ({"citation_noise": math.nan}, "citation_noise must be finite, got nan"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "kwargs, reason", _INFEASIBLE, ids=[f"kwargs{i}" for i in range(len(_INFEASIBLE))]
)
def test_infeasible_params_rejected(kwargs, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        SynthParams(**{"n_papers": 10, **kwargs})


def test_params_echo_includes_rng(tmp_path):
    params = SynthParams(seed=77)
    path = tmp_path / "params.json"
    write_params(params, path)
    data = json.loads(path.read_text())
    assert data["rng"] == RNG_ALGORITHM
    assert data["seed"] == 77
    assert data["team_size_distribution"]["2"] == pytest.approx(0.35)


def test_from_dict_reads_back_what_write_params_wrote(tmp_path):
    # "10" and "12" sort before "2" as string keys
    params = SynthParams(
        seed=9, n_authors=500, year_range=(2011, 2016),
        team_size_distribution={2: 0.5, 10: 0.25, 12: 0.25},
        cluster_mix=0.2, coupling=-0.3, citation_noise=0.7,
    )
    path = tmp_path / "params.json"
    write_params(params, path)
    assert SynthParams.from_dict(json.loads(path.read_text())) == params


def test_coupled_corpus_shows_positive_association():
    params = SynthParams(seed=11, n_papers=4000, n_authors=2000, coupling=0.8)
    report = run_analysis(load_papers(generate_corpus(params)), AnalysisConfig())
    corr = report.ratio_correlation
    assert corr is not None
    assert corr.r > 0.5
    assert corr.significant


def test_negative_coupling_reverses_association():
    params = SynthParams(seed=12, n_papers=4000, n_authors=2000, coupling=-0.8)
    report = run_analysis(load_papers(generate_corpus(params)), AnalysisConfig())
    corr = report.ratio_correlation
    assert corr is not None
    assert corr.r < 0
