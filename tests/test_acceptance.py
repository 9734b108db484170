"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""
import random
import time
from concurrent.futures import ProcessPoolExecutor

from teamdiv.cli import main
from teamdiv.corpus import AnalysisConfig
from teamdiv.diversity import (
    DiversityCategory,
    categorize,
    paper_diversity,
)
from teamdiv.expertise import ExpertiseVector, TopicDistribution, expertise_vector
from teamdiv.reference import (
    CITATION_MEDIANS,
    ONE_COUNTS,
    ONE_ZERO_RATIOS,
    ZERO_COUNTS,
    reconstructed_category_counts,
    reference_bucket_stats,
)
from teamdiv.report import category_delta_vs_baseline, run_analysis
from teamdiv.stats import (
    chi_square_homogeneity,
    chi_square_survival,
    pearson,
    pool_counts,
    student_t_two_sided_p,
)
from teamdiv.synth import SynthParams, generate_corpus
from tests.conftest import load_papers, pair_distance


def _verdict(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


def test_headline_correlation_replay():
    result = pearson(list(CITATION_MEDIANS), list(ONE_ZERO_RATIOS))
    ok = abs(result.r - 0.955) <= 0.005 and result.p_value < 1e-4
    _verdict(
        "headline correlation replay",
        ok,
        f"r = {result.r:.4f} (target 0.955 +/- 0.005), p = {result.p_value:.3g} (< 1e-4)",
    )


def test_ratio_reproduction():
    mismatches = []
    for bucket, zeros, ones, expected in zip(
        AnalysisConfig().buckets, ZERO_COUNTS, ONE_COUNTS, ONE_ZERO_RATIOS
    ):
        if round(ones / zeros, 2) != expected:
            mismatches.append(bucket.label)
    _verdict(
        "ratio reproduction",
        not mismatches,
        "all 10 bucket ratios to 2 decimals" if not mismatches else f"off: {mismatches}",
    )


def test_category_delta_replay():
    deltas = category_delta_vs_baseline(reference_bucket_stats(), "A")
    delta_high = deltas["J"][2]
    ok = abs(delta_high - 5.21) <= 0.02
    _verdict(
        "category delta replay",
        ok,
        f"J vs A high delta = {delta_high:.4f} (target 5.21 +/- 0.02)",
    )


def test_chi_square_replay():
    counts = reconstructed_category_counts()
    cases = [
        ("A vs B", counts[0], counts[1], 1e-4),
        ("B vs C", counts[1], counts[2], 1e-4),
        ("C vs D", counts[2], counts[3], 0.06),
        ("A vs pooled B-J", counts[0], pool_counts(counts[1:]), 1e-4),
    ]
    details = []
    ok = True
    for label, a, b, limit in cases:
        result = chi_square_homogeneity(a, b)
        details.append(f"{label} p = {result.p_value:.3g} (< {limit})")
        ok = ok and result.p_value < limit
    _verdict("chi-square replay", ok, "; ".join(details))


def test_expertise_formula():
    author = TopicDistribution(counts={"ml": 7}, paper_count=10)
    background = TopicDistribution(counts={"ml": 30}, paper_count=100)
    weight = expertise_vector(author, background, k=10).entries["ml"]
    _verdict(
        "expertise formula",
        weight == 0.4,
        f"0.70 author share minus 0.30 background = {weight!r} (exactly 0.4)",
    )


def _closure_components(vertices, edges):
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in edges:
        reach[idx[u]][idx[v]] = reach[idx[v]][idx[u]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return len({tuple(row) for row in reach})


def _random_team(rng, n, topics):
    # some members without expertise; the rest draw weights over a few topics
    return [
        ExpertiseVector({})
        if rng.random() < 0.15
        else ExpertiseVector(
            {t: rng.uniform(0.01, 1.0) for t in rng.sample(topics, rng.randint(1, len(topics)))},
        )
        for _ in range(n)
    ]


def test_component_oracle():
    rng = random.Random(2024)
    thresholds = [d / 10 for d in range(11)]
    topics = [f"t{i}" for i in range(6)]
    mismatches = 0
    for trial in range(1000):
        n = rng.randint(1, 12)
        threshold = thresholds[trial % 11]
        team = _random_team(rng, n, topics)
        vertices = tuple(range(n))
        edges = set()
        distances = []
        for i in range(n):
            for j in range(i + 1, n):
                if team[i].is_empty or team[j].is_empty:
                    continue
                d = pair_distance(team[i], team[j])
                distances.append(d)
                if d < threshold:
                    edges.add((vertices[i], vertices[j]))
        result = paper_diversity("p", team, threshold)
        expected_max = max(distances) if distances else None
        if (
            result.n_components != _closure_components(vertices, edges)
            or result.max_distance != expected_max
        ):
            mismatches += 1
    team = (
        [ExpertiseVector({"ml": 0.5}) for _ in range(3)]
        + [ExpertiseVector({"hci": 0.5}) for _ in range(2)]
        + [ExpertiseVector({"db": 0.5}) for _ in range(2)]
    )
    count = paper_diversity("fixture", team, 0.3).n_components
    fixture_ok = count == 3 and categorize(count) is DiversityCategory.MODERATE
    _verdict(
        "component oracle",
        mismatches == 0 and fixture_ok,
        f"{mismatches} mismatches in 1000 random teams; "
        f"7-author/3-group fixture -> {count} components, "
        f"{categorize(count).value}",
    )


T_CHECKPOINTS = [
    (1, 12.706, 0.05),
    (2, 4.303, 0.05),
    (5, 2.571, 0.05),
    (8, 1.860, 0.10),
    (10, 2.228, 0.05),
    (10, 3.169, 0.01),
    (20, 2.086, 0.05),
    (30, 2.750, 0.01),
]

CHI2_CHECKPOINTS = [
    (1, 3.841, 0.05),
    (2, 5.991, 0.05),
    (3, 7.815, 0.05),
    (4, 9.488, 0.05),
    (5, 11.070, 0.05),
    (10, 18.307, 0.05),
    (1, 6.635, 0.01),
    (6, 16.812, 0.01),
]


def test_statistics_kernel_oracles():
    worst = 0.0
    for df, t, expected in T_CHECKPOINTS:
        worst = max(worst, abs(student_t_two_sided_p(t, df) - expected))
    for df, x, expected in CHI2_CHECKPOINTS:
        worst = max(worst, abs(chi_square_survival(x, df) - expected))
    _verdict(
        "statistics kernel oracles",
        worst <= 0.001,
        f"16 distribution-table checkpoints, worst deviation {worst:.2e} (<= 0.001)",
    )


def test_metric_invariants():
    rng = random.Random(99)
    topics = [f"t{i}" for i in range(8)]
    trials = 10_000
    failures = 0
    for trial in range(trials):
        k = rng.randint(1, 6)
        u = ExpertiseVector(
            {t: rng.uniform(0.01, 1.0) for t in rng.sample(topics, k)},
        )
        v = ExpertiseVector(
            {t: rng.uniform(0.01, 1.0) for t in rng.sample(topics, rng.randint(1, 6))},
        )
        d_uv = pair_distance(u, v)
        d_vu = pair_distance(v, u)
        scale = rng.uniform(0.01, 100.0)
        scaled = ExpertiseVector({t: w * scale for t, w in u.entries.items()})
        d_scaled = pair_distance(scaled, v)
        ok = (
            d_uv == d_vu
            and 0.0 <= d_uv <= 1.0
            and abs(d_scaled - d_uv) <= 1e-12
        )
        if trial % 20 == 0:
            # team-level invariants on a fresh random team
            n = rng.randint(2, 7)
            team = [
                ExpertiseVector(
                    {t: rng.uniform(0.05, 1.0) for t in rng.sample(topics, rng.randint(1, 4))},
                )
                for _ in range(n)
            ]
            results = [
                paper_diversity("p", team, thr) for thr in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            ok = ok and all(r.pair_count == n * (n - 1) // 2 for r in results)
            counts = [r.n_components for r in results]
            ok = ok and counts == sorted(counts, reverse=True)
        if not ok:
            failures += 1
    _verdict(
        "metric invariants",
        failures == 0,
        f"{trials} randomized trials, {failures} failures",
    )


def _power_run(args):
    seed, coupling = args
    params = SynthParams(
        seed=seed, n_papers=20_000, n_authors=4000, coupling=coupling
    )
    report = run_analysis(load_papers(generate_corpus(params)), AnalysisConfig())
    corr = report.ratio_correlation
    return None if corr is None else (corr.r, corr.p_value)


def test_end_to_end_power_check():
    started = time.time()
    tasks = [(seed, 0.8) for seed in range(20)] + [(seed + 100, 0.0) for seed in range(20)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_power_run, tasks))
    coupled, null = results[:20], results[20:]
    detected = sum(1 for c in coupled if c and c[0] > 0.7 and c[1] < 0.05)
    quiet = sum(1 for c in null if c and c[1] > 0.05)
    elapsed = time.time() - started
    _verdict(
        "end-to-end power check",
        detected >= 19 and quiet >= 16,
        f"coupling 0.8 detected in {detected}/20 (need >= 19); "
        f"coupling 0 non-significant in {quiet}/20 (need >= 16); "
        f"{elapsed:.0f}s",
    )


def test_determinism_of_analyze(tmp_path):
    synth_dir = tmp_path / "synth"
    assert (
        main(
            ["synth", "--seed", "5", "--papers", "2000", "--authors", "1200",
             "--coupling", "0.6", "--output", str(synth_dir)]
        )
        == 0
    )
    corpus = str(synth_dir / "corpus.jsonl")
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["analyze", corpus, "--output", str(d)]) == 0
    mismatched = []
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    for rel in files:
        if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
            mismatched.append(str(rel))
    _verdict(
        "determinism",
        not mismatched and len(files) == 8,
        f"{len(files)} files byte-identical across reruns"
        if not mismatched
        else f"differs: {mismatched}",
    )


def test_throughput_at_scale():
    started = time.time()
    params = SynthParams(
        seed=7,
        n_papers=100_000,
        n_authors=350_000,
        n_topics=400,
        n_expertise_clusters=40,
    )
    corpus = load_papers(generate_corpus(params))
    report = run_analysis(corpus, AnalysisConfig())
    elapsed = time.time() - started
    _verdict(
        "throughput",
        elapsed < 300 and len(report.metrics) == 100_000,
        f"{len(corpus)} records generated and analysed in {elapsed:.0f}s (< 300s)",
    )
