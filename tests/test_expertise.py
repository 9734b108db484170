import json

from teamdiv.corpus import AnalysisConfig
from teamdiv.expertise import (
    ExpertiseVector,
    TopicDistribution,
    background_distribution,
    expertise_vector,
    profile_author,
    topic_distribution,
    write_profiles,
)
from tests.conftest import load_records, record


def papers_with_topics(topic_sets):
    records = [
        record(f"p{i}", 2010, ["a"], topics) for i, topics in enumerate(topic_sets)
    ]
    return load_records(records).papers


def test_topic_weight_is_containment_share():
    papers = papers_with_topics([["ml"]] * 7 + [["nlp"]] * 3)
    dist = topic_distribution(papers)
    assert dist.counts["ml"] / dist.paper_count == 0.7
    assert dist.counts["nlp"] / dist.paper_count == 0.3
    assert dist.paper_count == 10


def test_single_paper_weights_are_one():
    dist = topic_distribution(papers_with_topics([["x", "y"]]))
    assert dist.counts["x"] / dist.paper_count == 1.0
    assert dist.counts["y"] / dist.paper_count == 1.0


def test_absent_topic_not_in_map():
    dist = topic_distribution(papers_with_topics([["x"]]))
    assert "y" not in dist.counts


def test_zero_papers_give_an_empty_distribution_and_vector():
    empty = topic_distribution([])
    assert empty == TopicDistribution({}, 0)
    some = topic_distribution(papers_with_topics([["x", "y"], ["x"]]))
    assert expertise_vector(empty, some, 3).is_empty
    assert expertise_vector(some, empty, 3).is_empty


def test_background_matches_brute_force_count():
    # 1000 papers with rotating topic subsets; compare against a plain scan
    topic_sets = [[f"t{i % 13}", f"t{(i * 7) % 13}"] for i in range(1000)]
    corpus = load_records(
        [record(f"p{i}", 2010, ["a"], topics) for i, topics in enumerate(topic_sets)]
    )
    background = background_distribution(corpus)
    for t in {f"t{i}" for i in range(13)}:
        expected = sum(1 for topics in topic_sets if t in set(topics))
        assert background.counts.get(t, 0) == expected
        assert background.counts.get(t, 0) / background.paper_count == expected / 1000


def test_background_share_example():
    corpus = load_records(
        [record(f"p{i}", 2010, ["a"], ["t"] if i < 30 else ["u"]) for i in range(100)]
    )
    background = background_distribution(corpus)
    assert background.counts["t"] / background.paper_count == 0.3


# --- expertise_vector ---


def test_adjusted_weight_is_exact():
    author = TopicDistribution(counts={"ml": 7}, paper_count=10)
    background = TopicDistribution(counts={"ml": 30}, paper_count=100)
    vec = expertise_vector(author, background, k=10)
    assert vec.entries["ml"] == 0.4


def test_zero_adjusted_weight_dropped():
    author = TopicDistribution(counts={"ml": 3}, paper_count=10)
    background = TopicDistribution(counts={"ml": 3}, paper_count=10)
    vec = expertise_vector(author, background, k=10)
    assert vec.is_empty


def test_top_k_matches_full_sort():
    # 15 topics with distinct positive adjusted weights
    author = TopicDistribution(
        counts={f"t{i:02d}": i + 1 for i in range(15)}, paper_count=16
    )
    background = TopicDistribution(counts={}, paper_count=50)
    vec = expertise_vector(author, background, k=10)
    full = sorted(
        ((author.counts[t] / author.paper_count, t) for t in author.counts),
        key=lambda p: (-p[0], p[1]),
    )
    expected = {t for _, t in full[:10]}
    assert set(vec.entries) == expected
    assert len(vec.entries) == 10


def test_rank_tie_broken_by_topic_id():
    author = TopicDistribution(counts={"b": 1, "a": 1, "c": 2}, paper_count=2)
    background = TopicDistribution(counts={}, paper_count=10)
    vec = expertise_vector(author, background, k=2)
    assert list(vec.entries) == ["c", "a"]


def test_background_topic_author_lacks_changes_nothing():
    author = TopicDistribution(counts={"x": 3, "y": 1}, paper_count=4)
    base = TopicDistribution(counts={"x": 5}, paper_count=50)
    extended = TopicDistribution(counts={"x": 5, "z": 40}, paper_count=50)
    assert expertise_vector(author, base, 10).entries == expertise_vector(
        author, extended, 10
    ).entries


def test_k_changes_only_truncation():
    author = TopicDistribution(
        counts={f"t{i:02d}": 20 - i for i in range(20)}, paper_count=25
    )
    background = TopicDistribution(counts={}, paper_count=100)
    orders = {}
    for k in range(5, 21):
        orders[k] = list(expertise_vector(author, background, k).entries)
    for k in range(5, 20):
        assert orders[k] == orders[k + 1][: len(orders[k])]


def test_retained_topics_subset_of_window_topics(small_corpus):
    config = AnalysisConfig()
    background = background_distribution(small_corpus)
    vec = profile_author(small_corpus, background, "bob", 2013, config)
    window_topics = set().union(
        *(p.topics for p in small_corpus.papers if "bob" in p.authors and p.year < 2013)
    )
    assert set(vec.entries) <= window_topics


def test_profile_without_window_is_empty(small_corpus):
    config = AnalysisConfig()
    background = background_distribution(small_corpus)
    vec = profile_author(small_corpus, background, "alice", 2011, config)
    assert vec.is_empty


def test_vector_serialization_deterministic(small_corpus):
    config = AnalysisConfig()
    background = background_distribution(small_corpus)
    first = profile_author(small_corpus, background, "bob", 2015, config)
    second = profile_author(small_corpus, background, "bob", 2015, config)
    assert json.dumps(dict(first.entries)) == json.dumps(dict(second.entries))


def test_profile_dump_schema(tmp_path):
    profiles = {
        ("a", 2013): ExpertiseVector(entries={"ml": 0.4, "nlp": 0.1}),
        ("b", 2014): ExpertiseVector(entries={}),
    }
    path = tmp_path / "profiles.jsonl"
    write_profiles(path, profiles)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {
        "author": "a",
        "as_of_year": 2013,
        "topics": [{"id": "ml", "weight": 0.4}, {"id": "nlp", "weight": 0.1}],
    }
    assert lines[1]["topics"] == []
