import math
import random

import pytest
from hypothesis import given, strategies as st

import teamdiv.diversity as diversity
from teamdiv.diversity import (
    DiversityCategory,
    categorize,
    paper_diversity,
    write_metrics_csv,
)
from teamdiv.expertise import ExpertiseVector
from tests.conftest import pair_distance


def vec(**weights):
    return ExpertiseVector(entries=weights)


def test_identical_vectors_distance_zero():
    u = vec(ml=0.4, nlp=0.2)
    assert pair_distance(u, vec(ml=0.4, nlp=0.2)) == 0.0


def test_disjoint_vectors_distance_one():
    assert pair_distance(vec(ml=0.5), vec(hci=0.5)) == 1.0


def test_light_shared_topic_is_not_exact_one():
    # exact 1 means no shared topic; one shared at weight 1e-7 (about the
    # smallest weight a 500k-record corpus gives) leaves a similarity of 1e-14
    u, v = vec(s=1e-7, x=1.0), vec(s=1e-7, y=1.0)
    assert pair_distance(u, v) == pair_distance(v, u) == 0.99999999999999
    assert pair_distance(vec(x=1.0), vec(y=1.0)) == 1.0


def test_shared_topic_under_float_resolution_is_not_exact_one():
    # a similarity of 1e-18 leaves 1 - 1e-18, which rounds to 1.0
    u, v = vec(s=1e-9, x=1.0), vec(s=1e-9, y=1.0)
    assert pair_distance(u, v) == pair_distance(v, u) == math.nextafter(1.0, 0.0)


def test_hand_computed_distance():
    u = vec(t1=0.6, t2=0.8)
    v = vec(t1=0.8, t2=0.6)
    # dot 0.96, both norms 1
    assert pair_distance(u, v) == pytest.approx(0.04, abs=1e-12)


def test_distance_symmetric_and_scale_invariant():
    rng = random.Random(7)
    for _ in range(200):
        topics = [f"t{i}" for i in range(rng.randint(1, 8))]
        u = vec(**{t: rng.uniform(0.01, 1) for t in rng.sample(topics, rng.randint(1, len(topics)))})
        v = vec(**{t: rng.uniform(0.01, 1) for t in rng.sample(topics, rng.randint(1, len(topics)))})
        d = pair_distance(u, v)
        assert 0.0 <= d <= 1.0
        assert pair_distance(v, u) == d
        scale = rng.uniform(0.1, 50)
        scaled = vec(**{t: w * scale for t, w in u.entries.items()})
        assert pair_distance(scaled, v) == pytest.approx(d, abs=1e-12)


@given(
    st.dictionaries(
        st.sampled_from([f"t{i}" for i in range(6)]),
        st.floats(min_value=1e-3, max_value=1.0),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_invariance_property(entries, scale):
    u = ExpertiseVector(entries=entries)
    scaled = ExpertiseVector(entries={t: w * scale for t, w in entries.items()})
    probe = vec(t0=0.3, t1=0.7)
    assert pair_distance(u, probe) == pytest.approx(
        pair_distance(scaled, probe), abs=1e-12
    )


def _per_pair_distance(u, v):
    # reference: the union-of-topics formula with both norms taken per pair
    dot = math.fsum(w * v.entries.get(t, 0.0) for t, w in u.entries.items())
    norm_u = math.sqrt(math.fsum(w * w for w in u.entries.values()))
    norm_v = math.sqrt(math.fsum(w * w for w in v.entries.values()))
    d = 1.0 - dot / (norm_u * norm_v)
    if d < 1e-12:
        return 0.0
    # exact 1 only when no topic is shared
    shares_a_topic = any(t in v.entries for t in u.entries)
    return math.nextafter(1.0, 0.0) if shares_a_topic and d == 1.0 else d


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from([f"t{i}" for i in range(8)]),
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=1,
            max_size=6,
        ),
        min_size=2,
        max_size=8,
    )
)
def test_team_distances_match_per_pair_norms(weights):
    team = [ExpertiseVector(entries=w) for w in weights]
    expected = [_per_pair_distance(u, team[j]) for i, u in enumerate(team) for j in range(i)]
    assert [pair_distance(u, team[j]) for i, u in enumerate(team) for j in range(i)] == expected
    assert paper_diversity("p", team, 0.3).max_distance == max(expected)


# --- pairs / max distance ---


def test_pair_counts():
    team2 = [vec(x=1.0), vec(x=1.0)]
    assert paper_diversity("p", team2, 0.3).pair_count == 1
    team7 = [vec(**{f"t{i}": 1.0}) for i in range(7)]
    assert paper_diversity("p", team7, 0.3).pair_count == 21


def test_one_distance_per_pair(monkeypatch):
    calls, norms = [], []
    distance, norm = diversity._distance, diversity._norm

    def counting_distance(a, b, product):
        calls.append((id(a), id(b)))
        return distance(a, b, product)

    def counting_norm(entries):
        norms.append(id(entries))
        return norm(entries)

    monkeypatch.setattr(diversity, "_distance", counting_distance)
    monkeypatch.setattr(diversity, "_norm", counting_norm)
    rng = random.Random(13)
    team = [
        vec(**{f"t{j}": rng.uniform(0.1, 1) for j in rng.sample(range(5), 2)})
        for _ in range(10)
    ] + [ExpertiseVector({}), ExpertiseVector({})]
    result = paper_diversity("p", team, threshold=0.3)
    assert len(calls) == result.pair_count == 45
    assert len({frozenset(pair) for pair in calls}) == 45
    # one norm per usable member, none per pair
    assert len(norms) == len(set(norms)) == 10


def test_pairwise_matches_nested_loop_oracle():
    rng = random.Random(3)
    team = [
        vec(**{f"t{rng.randint(0, 5)}": rng.uniform(0.1, 1), f"u{i % 3}": 0.5})
        for i in range(5)
    ]
    result = paper_diversity("p", team, threshold=0.3)
    assert result.pair_count == 10
    expected = []
    for i in range(len(team)):
        for j in range(i + 1, len(team)):
            expected.append(pair_distance(team[i], team[j]))
    assert result.max_distance == max(expected)


def test_max_distance_cases():
    identical = [vec(ml=0.3) for _ in range(4)]
    assert paper_diversity("p", identical, 0.3).max_distance == 0.0
    loner = [vec(ml=0.5), vec(ml=0.5), vec(far=0.9)]
    assert paper_diversity("p", loner, 0.3).max_distance == 1.0


def test_max_distance_enumerates_pairs():
    # three vectors engineered to have pairwise distances 0.04, ~0.293, ~0.293
    u = vec(t1=0.6, t2=0.8)
    v = vec(t1=0.8, t2=0.6)
    w = vec(t1=1.0)
    dists = [pair_distance(u, v), pair_distance(u, w), pair_distance(v, w)]
    assert paper_diversity("p", [u, v, w], 0.3).max_distance == max(dists)


# --- components ---


def test_identical_team_complete_graph():
    team = [vec(ml=0.3) for _ in range(4)]
    assert paper_diversity("p", team, threshold=0.1).n_components == 1


def test_disjoint_team_edgeless():
    team = [vec(**{f"t{i}": 1.0}) for i in range(5)]
    assert paper_diversity("p", team, threshold=0.3).n_components == 5


def test_threshold_comparison_is_strict():
    u = vec(t1=0.6, t2=0.8)
    v = vec(t1=0.8, t2=0.6)
    d = pair_distance(u, v)
    assert paper_diversity("p", [u, v], threshold=d).n_components == 2
    assert paper_diversity("p", [u, v], threshold=d, inclusive=True).n_components == 1


def test_empty_vector_member_is_isolated_vertex():
    team = [vec(ml=0.5), vec(ml=0.5), ExpertiseVector({})]
    result = paper_diversity("p", team, threshold=1.0, inclusive=True)
    assert result.n_components == 2
    assert result.excluded_authors == 1


def _brute_force_components(n, edges):
    # transitive closure over the reachability matrix
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in edges:
        reach[u][v] = reach[v][u] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    classes = {tuple(row) for row in reach}
    return len(classes)


def test_components_match_reachability_oracle():
    rng = random.Random(11)
    topics = [f"t{i}" for i in range(6)]
    for trial in range(1000):
        n = rng.randint(1, 12)
        threshold = (trial % 11) / 10.0
        team = [
            ExpertiseVector({})
            if rng.random() < 0.1
            else vec(**{t: rng.uniform(0.01, 1) for t in rng.sample(topics, 3)})
            for _ in range(n)
        ]
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not team[i].is_empty
            and not team[j].is_empty
            and pair_distance(team[i], team[j]) < threshold
        ]
        result = paper_diversity("p", team, threshold)
        assert result.n_components == _brute_force_components(n, edges)


def test_edgeless_graph_component_count():
    team = [vec(**{f"t{i}": 1.0}) for i in range(9)]
    assert paper_diversity("p", team, threshold=1.0).n_components == 9


def test_three_group_seven_author_team():
    team = (
        [vec(ml=0.5) for _ in range(3)]
        + [vec(hci=0.5) for _ in range(2)]
        + [vec(db=0.5) for _ in range(2)]
    )
    result = paper_diversity("p", team, threshold=0.3)
    assert result.n_components == 3
    assert result.category is DiversityCategory.MODERATE


def test_single_component_when_all_pairs_below_threshold():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 6)
        team = [
            vec(**{f"t{j}": rng.uniform(0.2, 1) for j in range(4)})
            for _ in range(n)
        ]
        threshold = paper_diversity("p", team, 0.0).max_distance + 0.05
        if threshold > 1:
            continue
        assert paper_diversity("p", team, threshold).n_components == 1


def test_threshold_monotonicity_of_components():
    rng = random.Random(5)
    topics = [f"t{i}" for i in range(4)]
    team = [
        vec(**{t: rng.uniform(0.05, 1) for t in rng.sample(topics, rng.randint(1, 4))})
        for _ in range(8)
    ]
    counts = [
        paper_diversity("p", team, threshold).n_components
        for threshold in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    ]
    assert counts == sorted(counts, reverse=True)


# --- categorize ---


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, DiversityCategory.LOW),
        (2, DiversityCategory.LOW),
        (3, DiversityCategory.MODERATE),
        (4, DiversityCategory.MODERATE),
        (5, DiversityCategory.HIGH),
        (6, DiversityCategory.HIGH),
        (7, DiversityCategory.VERY_HIGH),
        (40, DiversityCategory.VERY_HIGH),
    ],
)
def test_categorize_bands(n, expected):
    assert categorize(n) is expected


def test_categorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        categorize(0)


# --- paper_diversity / metric dump ---


def test_paper_diversity_fields():
    team = [vec(ml=0.5), vec(ml=0.5), vec(far=1.0),
            ExpertiseVector({})]
    result = paper_diversity("p1", team, threshold=0.3)
    assert result.n_authors == 4
    assert result.pair_count == 3  # 3 usable members
    assert result.max_distance == 1.0
    assert result.n_components == 3  # {a,b}, {c}, {d}
    assert result.category is DiversityCategory.MODERATE
    assert result.excluded_authors == 1


def test_paper_diversity_single_usable_member():
    team = [vec(ml=0.5), ExpertiseVector({})]
    result = paper_diversity("p1", team, threshold=0.3)
    assert result.max_distance is None
    assert result.pair_count == 0
    assert result.n_components == 2
    assert result.excluded_authors == 1


def test_zero_max_distance_single_component():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 6)
        weights = {f"t{i}": rng.uniform(0.1, 1) for i in range(3)}
        team = [vec(**weights) for _ in range(n)]
        result = paper_diversity(f"p", team, threshold=rng.uniform(0.01, 1.0))
        assert result.max_distance == 0.0
        assert result.n_components == 1


def test_metrics_csv_round_trip(tmp_path):
    metrics = [
        paper_diversity("p1", [vec(t1=0.6, t2=0.8), vec(t1=0.8, t2=0.6)], 0.3),
        paper_diversity("p2", [vec(ml=0.5), vec(nlp=0.7)], 0.3),
        paper_diversity("p3", [vec(ml=0.5), ExpertiseVector({})], 0.3),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, metrics)
    # floats are written with repr; an undefined max distance is an empty cell
    assert path.read_bytes().decode("utf-8").split("\r\n") == [
        "paper_id,n_authors,pair_count,max_distance,n_components,category,excluded_authors",
        "p1,2,1,0.040000000000000036,1,low,0",
        "p2,2,1,1.0,2,low,0",
        "p3,2,0,,2,low,1",
        "",
    ]
