import gc
import io
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import teamdiv
import teamdiv.cli as cli
import teamdiv.corpus as corpus_module
import teamdiv.report as report_module
from teamdiv.cli import main
from teamdiv.corpus import AnalysisConfig, load_corpus, select_analysis_set, write_corpus_jsonl
from teamdiv.diversity import write_metrics_csv
from teamdiv.expertise import write_profiles
from teamdiv.report import build_profiles, render, run_analysis
from teamdiv.synth import SynthParams, generate_corpus
from tests.conftest import record


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def write_valid_corpus(path, n_papers):
    records = []
    for i in range(n_papers):
        a, b = f"x{i}", f"y{i}"
        records.append(record(f"w_{a}", 2012, [a], ["ml"]))
        records.append(record(f"w_{b}", 2012, [b], [f"solo{i}"]))
        records.append(record(f"p{i}", 2013, [a, b], ["ml"], citations=3 + 40 * i))
    write_jsonl(path, records)
    return path


@pytest.fixture(scope="module")
def valid_corpus_path(tmp_path_factory):
    return write_valid_corpus(tmp_path_factory.mktemp("valid") / "corpus.jsonl", 6)


def snapshot(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_validate_ok(valid_corpus_path, capsys):
    assert main(["validate", str(valid_corpus_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_line_of_duplicate(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    write_jsonl(
        path,
        [record("p1", 2010, ["a"], ["t"]), record("p1", 2011, ["b"], ["t"])],
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "record 2" in out and "duplicate paper id 'p1'" in out


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.jsonl")]) == 2


def test_analyze_writes_report_tree(valid_corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["analyze", str(valid_corpus_path), "--output", str(out_dir)]) == 0
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
        assert (out_dir / expected).is_file(), expected
    out = capsys.readouterr().out
    assert "papers analysed: 6" in out
    assert "ratio vs median correlation" in out


def test_analyze_empty_selection_fails(tmp_path, capsys):
    path = tmp_path / "solo.jsonl"
    write_jsonl(path, [record("p1", 2013, ["a"], ["t"], citations=9)])
    assert main(["analyze", str(path), "--output", str(tmp_path / "out")]) == 1
    assert "no papers satisfy" in capsys.readouterr().err


def test_analyze_respects_env_output(valid_corpus_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("TEAMDIV_OUTPUT", str(env_dir))
    assert main(["analyze", str(valid_corpus_path)]) == 0
    assert (env_dir / "report.md").is_file()


def test_flags_override_config_file(valid_corpus_path, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"top_k": 5, "edge_threshold": 0.25}))
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "analyze",
                str(valid_corpus_path),
                "--config",
                str(config_path),
                "--top-k",
                "7",
                "--output",
                str(out_dir),
            ]
        )
        == 0
    )
    echo = json.loads((out_dir / "config.json").read_text())
    assert echo["top_k"] == 7  # flag wins
    assert echo["edge_threshold"] == 0.25  # file beats default


@pytest.mark.parametrize(
    "content",
    [
        {"top_k": "10"},
        {"top_k": True},
        {"window_years": None},
        {"edge_threshold": "0.3"},
        {"year_range": [2010]},
        {"year_range": [2010, "2015"]},
        {"bucket_bounds": [[2]]},
        {"bucket_bounds": [[2, 5.5], [5.5, None]]},
        {"bucket_bounds": 5},
        {"inclusive_threshold": 1},
        [1, 2],
        "top_k",
    ],
)
def test_config_file_type_mistakes_exit_2(valid_corpus_path, tmp_path, capsys, content):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(content))
    code = main(
        ["analyze", str(valid_corpus_path), "--config", str(config_path),
         "--output", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_strict_parse_fails_on_bad_record(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [record("p1", 2013, [], ["t"], citations=5)])
    assert main(["analyze", str(path), "--output", str(tmp_path / "o")]) == 1
    assert "empty authors" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line",
    [
        pytest.param(json.dumps(record("bad", 2013, [], ["t"])).encode(), id="schema"),
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b'{"id": "\xff"}', id="non-utf8"),
        pytest.param(
            b'{"id": "s\\ud800", "year": 2012, "authors": ["x0"], "topics": ["t"]}',
            id="lone-surrogate",
        ),
        pytest.param(b"[" * 200_000, id="deep-nesting"),
        pytest.param(
            b'{"id": "big", "year": ' + b"9" * 5000 + b', "authors": ["a"], "topics": ["t"]}',
            id="huge-int",
        ),
    ],
)
def test_lenient_parse_skips_bad_record(valid_corpus_path, tmp_path, capsys, bad_line):
    broken = tmp_path / "mixed.jsonl"
    lines = valid_corpus_path.read_bytes().splitlines()
    lines.insert(3, bad_line)
    broken.write_bytes(b"\n".join(lines) + b"\n")
    out_dir = tmp_path / "out"
    assert main(["analyze", str(broken), "--lenient", "--output", str(out_dir)]) == 0
    assert "records skipped: 1" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_runs_without_cyclic_gc(valid_corpus_path, tmp_path, monkeypatch, enabled):
    seen = []
    real_load = cli.load_corpus

    def load(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_corpus", load)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(valid_corpus_path.read_bytes() + b"{bad\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["analyze", str(valid_corpus_path), "--output", str(tmp_path / "o"),
                     "--jobs", "1"]) == 0
        assert gc.isenabled() is enabled
        assert main(["analyze", str(bad), "--output", str(tmp_path / "o"), "--jobs", "1"]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]


def test_analyze_garbage_does_not_grow_with_the_corpus(tmp_path):
    # Cycles left by one run (argparse's parser, the JSON encoder behind
    # config.json) are a fixed set; none may come from per-record data.
    found = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for n_papers in (6, 60):
            path = write_valid_corpus(tmp_path / f"c{n_papers}.jsonl", n_papers)
            gc.collect()
            assert main(["analyze", str(path), "--output", str(tmp_path / f"o{n_papers}"),
                         "--jobs", "1"]) == 0
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[0] == found[1]


def test_analyze_and_validate_name_the_same_line(tmp_path, capsys):
    path = tmp_path / "blanks.jsonl"
    good = json.dumps(record("p1", 2012, ["a"], ["t"]))
    bad = json.dumps(record("p2", 2013, [], ["t"]))
    path.write_text(f"\n{good}\n\n  \n{bad}\n")
    assert main(["validate", str(path)]) == 1
    assert "record 5: empty authors" in capsys.readouterr().out
    assert main(["analyze", str(path), "--output", str(tmp_path / "out")]) == 1
    assert "error: record 5: empty authors" in capsys.readouterr().err


def test_citation_count_beyond_float_exactness_is_rejected(tmp_path, capsys):
    # medians and correlations convert counts to float: 10**400 overflowed there
    path = tmp_path / "huge.jsonl"
    records = [json.loads(line) for line in write_valid_corpus(path, 12).read_text().splitlines()]
    records[3 * 9 + 2]["citations_5y"] = 10**400  # paper p9, line 30
    write_jsonl(path, records)
    reason = "citations_5y must be at most 2**53 in 'p9'"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"record 30: {reason}"
    assert main(["analyze", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: record 30: {reason}\n"
    records[3 * 9 + 2]["citations_5y"] = 2**53
    write_jsonl(path, records)
    assert main(["validate", str(path)]) == 0
    assert main(["analyze", str(path), "--output", str(tmp_path / "out")]) == 0


def test_validate_and_analyze_never_import_numpy(valid_corpus_path, tmp_path):
    # numpy serves only synth; the other commands must not pay for its import
    script = (
        "import sys, teamdiv, teamdiv.cli\n"
        "assert teamdiv.cli.main(sys.argv[1:3]) == 0\n"
        "assert teamdiv.cli.main(sys.argv[3:]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(teamdiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script, "validate", str(valid_corpus_path),
         "analyze", str(valid_corpus_path), "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.splitlines()[-1] == "False"


def test_only_reading_a_corpus_imports_orjson(tmp_path):
    # orjson serves only ingest; importing the CLI, synth and tables-check must not load it
    script = (
        "import sys, teamdiv.cli\n"
        "print('orjson loaded:', 'orjson' in sys.modules)\n"
        "assert teamdiv.cli.main(['tables-check']) == 0\n"
        "assert teamdiv.cli.main(sys.argv[1:]) == 0\n"
        "print('orjson loaded:', 'orjson' in sys.modules)\n"
        "assert teamdiv.cli.main(['validate', sys.argv[-1] + '/corpus.jsonl']) == 0\n"
        "print('orjson loaded:', 'orjson' in sys.modules)\n"
    )
    src = str(Path(teamdiv.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, "synth", "--seed", "1", "--papers", "40",
         "--authors", "60", "--output", str(tmp_path / "synth")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    loaded = [line for line in result.stdout.splitlines() if line.startswith("orjson loaded:")]
    assert loaded == ["orjson loaded: False", "orjson loaded: False", "orjson loaded: True"]


def test_analyze_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    # str hashes, and so set and dict-of-set orders, differ between processes
    corpus_path = tmp_path / "corpus.jsonl"
    papers = generate_corpus(SynthParams(seed=5, n_papers=400, n_authors=300))
    write_corpus_jsonl(papers, corpus_path)
    src = str(Path(teamdiv.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("0", "1"):
        run = tmp_path / f"hash-seed-{hash_seed}"
        result = subprocess.run(
            [sys.executable, "-m", "teamdiv.cli", "analyze", str(corpus_path),
             "--output", str(run / "out"), "--dump-metrics", str(run / "metrics.csv"),
             "--dump-profiles", str(run / "profiles.jsonl")],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        )
        files = {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
        runs.append((result.stdout.replace(str(run), "RUN"), files))
    assert len(runs[0][1]) == 10  # 3 tables, 3 figures, report.md, config.json, 2 dumps
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--config", "[" * 200_000, None),
        ("--params", "{bad", None),
        ("--params", "[1,2]", None),
        ("--params", '{"team_size_distribution": {"x": 1}}',
         "error: team_size_distribution must map integer sizes to numbers\n"),
        ("--params", '{"team_size_distribution": {"2": 0.5, "three": 0.5}}',
         "error: team_size_distribution must map integer sizes to numbers\n"),
        ("--params", '{"seed": 1.5}', None),
        ("--params", '{"seed": -1}', "error: seed must be >= 0, got -1\n"),
        ("--params", '{"foo": 1}', "error: unknown params keys: ['foo']\n"),
        ("--params", '{"rng": "mt19937"}', None),
    ],
    ids=["config-deep-nesting", "params-not-json", "params-not-object", "params-bad-team-size",
         "params-team-size-key", "params-float-seed", "params-negative-seed",
         "params-unknown-key", "params-other-rng"],
)
def test_json_side_file_mistakes_exit_2(valid_corpus_path, tmp_path, capsys, flag, content,
                                        message):
    side = tmp_path / "side.json"
    side.write_text(content)
    command = ["analyze", str(valid_corpus_path)] if flag == "--config" else ["synth"]
    code = main(command + [flag, str(side), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    if message is not None:
        assert err == message


def test_synth_negative_seed_flag_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["synth", "--seed=-1", "--papers", "10", "--output", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out_dir.exists()


# (command, flag and its arguments, field, side-file value, flag value); each flag
# value differs from the side-file value and from the default
_SETTING_FLAGS = [
    ("synth", ["--seed", "2"], "seed", 3, 2),
    ("synth", ["--papers", "30"], "n_papers", 20, 30),
    ("synth", ["--authors", "70"], "n_authors", 60, 70),
    ("synth", ["--topics", "50"], "n_topics", 40, 50),
    ("synth", ["--clusters", "5"], "n_expertise_clusters", 4, 5),
    ("synth", ["--mix", "0.25"], "cluster_mix", 0.5, 0.25),
    ("synth", ["--coupling", "0.5"], "coupling", -0.5, 0.5),
    ("synth", ["--citation-noise", "0.5"], "citation_noise", 0.75, 0.5),
    ("analyze", ["--window-years", "3"], "window_years", 4, 3),
    ("analyze", ["--top-k", "5"], "top_k", 7, 5),
    ("analyze", ["--edge-threshold", "0.25"], "edge_threshold", 0.5, 0.25),
    ("analyze", ["--year-range", "2011", "2014"], "year_range", [2012, 2013], [2011, 2014]),
    # a file's min_citations of 3 alone fails the default bucket_bounds
    ("analyze", ["--min-citations", "2"], "min_citations", 3, 2),
    ("analyze", ["--min-authors", "1"], "min_authors", 2, 1),
    ("analyze", ["--inclusive-threshold"], "inclusive_threshold", False, True),
]


@pytest.mark.parametrize(
    "command, flag, field, file_value, flag_value",
    _SETTING_FLAGS,
    ids=[row[1][0] for row in _SETTING_FLAGS],
)
def test_each_setting_flag_overrides_its_side_file_field(
    valid_corpus_path, tmp_path, command, flag, field, file_value, flag_value
):
    side = tmp_path / "side.json"
    out_dir = tmp_path / "out"
    if command == "synth":
        small = {"n_papers": 20, "n_authors": 60, "n_topics": 40, "n_expertise_clusters": 4}
        side.write_text(json.dumps({**small, field: file_value}))
        argv = ["synth", "--params", str(side)]
        echo = out_dir / "params.json"
    else:
        side.write_text(json.dumps({field: file_value}))
        argv = ["analyze", str(valid_corpus_path), "--config", str(side)]
        echo = out_dir / "config.json"
    assert main(argv + flag + ["--output", str(out_dir)]) == 0
    assert json.loads(echo.read_text())[field] == flag_value


def json_values(keys):
    """Arbitrary JSON whose objects often hold only the keys a reader knows."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        | st.fixed_dictionaries({}, optional=dict.fromkeys(keys, inner)),
        max_leaves=12,
    )


def file_contents(keys):
    values = json_values(keys)
    objects = st.fixed_dictionaries({}, optional=dict.fromkeys(keys, values))
    return (
        st.binary(max_size=120)
        | (values | objects).map(lambda v: json.dumps(v).encode())
        | st.lists(values | objects, max_size=4).map(
            lambda vs: "\n".join(map(json.dumps, vs)).encode())
    )


RECORD_KEYS = ("id", "year", "authors", "topics", "citations_5y")
FUZZ_COMMANDS = [
    (("validate", "{file}"), RECORD_KEYS),
    (("analyze", "{file}", "--output", "{out}"), RECORD_KEYS),
    (("analyze", "{file}", "--lenient", "--output", "{out}"), RECORD_KEYS),
    (("analyze", "{corpus}", "--config", "{file}", "--output", "{out}"),
     tuple(AnalysisConfig.__dataclass_fields__)),
    # the size flags win over the file, so no fuzzed params can ask for a large corpus
    (("synth", "--params", "{file}", "--papers", "3", "--authors", "12", "--topics", "4",
      "--clusters", "2", "--output", "{out}"), tuple(SynthParams.__dataclass_fields__)),
]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=st.sampled_from(FUZZ_COMMANDS).flatmap(
    lambda c: st.tuples(st.just(c[0]), file_contents(c[1]))))
def test_malformed_input_never_escapes_main(valid_corpus_path, case):
    command, content = case
    work = valid_corpus_path.parent
    (work / "fuzz.bin").write_bytes(content)
    names = {
        "{file}": str(work / "fuzz.bin"),
        "{corpus}": str(valid_corpus_path),
        "{out}": str(work / "out"),
    }
    assert main([names.get(arg, arg) for arg in command]) in (0, 1, 2)


def test_synth_then_analyze_round_trip(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert (
        main(
            [
                "synth",
                "--seed",
                "42",
                "--papers",
                "400",
                "--authors",
                "300",
                "--output",
                str(synth_dir),
            ]
        )
        == 0
    )
    assert (synth_dir / "corpus.jsonl").is_file()
    params = json.loads((synth_dir / "params.json").read_text())
    assert params["seed"] == 42 and params["n_papers"] == 400
    out_dir = tmp_path / "report"
    assert (
        main(["analyze", str(synth_dir / "corpus.jsonl"), "--output", str(out_dir)]) == 0
    )
    assert "papers analysed: 400" in capsys.readouterr().out


def test_analyze_reruns_byte_identical(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["synth", "--seed", "8", "--papers", "300", "--authors", "250",
          "--coupling", "0.5", "--output", str(synth_dir)])
    corpus = str(synth_dir / "corpus.jsonl")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", corpus, "--output", str(dir_a)]) == 0
    assert main(["analyze", corpus, "--output", str(dir_b)]) == 0
    assert snapshot(dir_a) == snapshot(dir_b)


def _permute_authors(records, rng):
    return [{**r, "authors": rng.sample(r["authors"], len(r["authors"]))} for r in records]


def _permute_and_repeat_topics(records, rng):
    changed = []
    for r in records:
        topics = r["topics"] + rng.choices(r["topics"], k=rng.randint(1, 3))
        rng.shuffle(topics)
        changed.append({**r, "topics": topics})
    return changed


# Rewrites of a corpus that leave every record's meaning as it was.
_SAME_CORPUS = {
    "shuffled-records": lambda records, rng: rng.sample(records, len(records)),
    "permuted-authors": _permute_authors,
    "permuted-and-repeated-topics": _permute_and_repeat_topics,
}


@pytest.mark.parametrize("rewrite", list(_SAME_CORPUS))
def test_analyze_output_ignores_record_author_and_topic_order(tmp_path, capsys, rewrite):
    # Two topics per cluster and a mixed backfill give interior max distances
    # as well as exact 0 and 1, so author order reaches the pairwise distances.
    params = SynthParams(seed=6, n_papers=300, n_authors=300, n_topics=60, cluster_mix=0.5)
    write_corpus_jsonl(generate_corpus(params), tmp_path / "corpus.jsonl")
    records = [json.loads(line) for line in (tmp_path / "corpus.jsonl").read_text().splitlines()]
    changed = _SAME_CORPUS[rewrite](records, random.Random(rewrite))
    assert changed != records
    write_jsonl(tmp_path / "changed.jsonl", changed)
    outputs = []
    for name in ("corpus", "changed"):
        run = tmp_path / f"run-{name}"
        assert main(["analyze", str(tmp_path / f"{name}.jsonl"), "--output", str(run / "out"),
                     "--dump-metrics", str(run / "metrics.csv"),
                     "--dump-profiles", str(run / "profiles.jsonl")]) == 0
        outputs.append((capsys.readouterr().out.replace(str(run), "RUN"), snapshot(run)))
    assert len(outputs[0][1]) == 10  # 3 tables, 3 figures, report.md, config.json, 2 dumps
    assert outputs[0] == outputs[1]


def test_jobs_flag_never_changes_output(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["synth", "--seed", "13", "--papers", "200", "--authors", "150",
          "--output", str(synth_dir)])
    corpus = str(synth_dir / "corpus.jsonl")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", corpus, "--output", str(dir_a)]) == 0
    assert main(["analyze", corpus, "--jobs", "1", "--output", str(dir_b)]) == 0
    assert snapshot(dir_a) == snapshot(dir_b)


@pytest.fixture(scope="module")
def synth_corpus_path(tmp_path_factory):
    """A synth corpus whose analysis papers span six years."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--seed", "1", "--papers", "300", "--authors", "900",
                 "--output", str(out)]) == 0
    return out / "corpus.jsonl"


@pytest.mark.parametrize(
    ("dump", "forks_with_two_cpus", "files"),
    [
        # 3 tables, 3 figures, report.md, config.json and the metrics dump
        ([], ["fork"], 9),
        # a dump keeps every profile, so scoring stays in this process
        (["--dump-profiles", "profiles.jsonl"], [], 10),
    ],
    ids=["without-dump", "with-dump"],
)
def test_analyze_writes_the_same_bytes_with_one_cpu_and_two(
    synth_corpus_path, tmp_path, monkeypatch, capfd, cpus, forks, dump, forks_with_two_cpus,
    files
):
    capfd.readouterr()
    outputs = []
    for n in (1, 2):
        cpus(n)
        run = tmp_path / f"cpus-{n}"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["analyze", str(synth_corpus_path), "--output", "out",
                     "--dump-metrics", "metrics.csv", *dump]) == 0
        outputs.append((capfd.readouterr(), snapshot(run)))
        assert forks == (forks_with_two_cpus if n == 2 else [])
    assert len(outputs[0][1]) == files
    assert outputs[0] == outputs[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_analyze_prints_each_line_once_and_the_skipped_count_before_the_fork(
    synth_corpus_path, tmp_path, monkeypatch, capfd, cpus
):
    """With stdout block-buffered, as when it is a file, a worker that flushed
    its inherited copy of the buffer would print the skipped count twice."""
    events = []  # the text written to stdout, and fork_marker where the fork happened
    fork_marker = object()
    real_fork = os.fork

    def fork():
        events.append(fork_marker)
        return real_fork()

    class Recorded(io.TextIOWrapper):
        def write(self, text):
            events.append(text)
            return super().write(text)

    capfd.readouterr()
    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    with Recorded(open(os.dup(1), "wb"), encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["analyze", str(synth_corpus_path), "--output", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
    out = capfd.readouterr().out
    assert events.count(fork_marker) == 1
    fork_at = events.index(fork_marker)
    assert "".join(events[:fork_at]) == "records skipped: 0\n"
    lines = out.splitlines()
    assert out == "".join(e for e in events if e is not fork_marker)
    assert len(lines) == len(set(lines)) >= 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def dirty_corpus_path(synth_corpus_path, tmp_path_factory):
    """The synth corpus with a duplicate near its start and bad lines at its end,
    so that both halves of a two-process validate have problems to report."""
    lines = synth_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path_factory.mktemp("dirty") / "corpus.jsonl"
    path.write_text("".join([lines[0], *lines[:3], "{not json\n", *lines[3:], lines[-1],
                             '{"id": "no-authors", "year": 2012, "authors": [], "topics": ["t"]}\n']),
                    encoding="utf-8")
    return path


def _run_in(directory, argv, capfd, monkeypatch):
    directory.mkdir()
    monkeypatch.chdir(directory)
    return main(argv), capfd.readouterr(), snapshot(directory)


def _commands(synth_corpus_path, dirty_corpus_path):
    return {
        "analyze": [["analyze", str(synth_corpus_path), "--output", "out", "--dump-metrics",
                     "metrics.csv"], 0],
        "validate": [["validate", str(dirty_corpus_path)], 1],
    }


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_fork_that_fails_computes_the_workers_share_here(
    synth_corpus_path, dirty_corpus_path, tmp_path, monkeypatch, capfd, cpus, command
):
    argv, expected_code = _commands(synth_corpus_path, dirty_corpus_path)[command]
    capfd.readouterr()
    cpus(1)
    one_cpu = _run_in(tmp_path / "one-cpu", argv, capfd, monkeypatch)
    attempts = []

    def fork():
        attempts.append("fork")
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    no_fork = _run_in(tmp_path / "no-fork", argv, capfd, monkeypatch)
    assert attempts == ["fork"]
    assert one_cpu[0] == expected_code
    assert one_cpu[1].err == ""
    assert no_fork == one_cpu


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_worker_that_dies_ends_with_one_error_line(
    synth_corpus_path, dirty_corpus_path, tmp_path, monkeypatch, capfd, cpus, command
):
    argv, _ = _commands(synth_corpus_path, dirty_corpus_path)[command]
    parent = os.getpid()

    def die_in_the_worker(real):
        def call(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        return call

    if command == "analyze":
        monkeypatch.setattr(report_module, "paper_diversity",
                            die_in_the_worker(report_module.paper_diversity))
    else:
        monkeypatch.setattr(corpus_module, "_check_record",
                            die_in_the_worker(corpus_module._check_record))
    capfd.readouterr()
    cpus(2)
    code, captured, _ = _run_in(tmp_path / "run", argv, capfd, monkeypatch)
    assert code == 2
    assert captured.err == (
        "error: the worker process was killed by SIGKILL before it sent its results; "
        "to run in one process, rerun pinned to one CPU with `taskset -c 0`\n"
    )
    assert "cannot read" not in captured.out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("value", ["2", "0", "-3"])
def test_jobs_other_than_1_is_a_usage_error(valid_corpus_path, tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(valid_corpus_path), "--jobs", value,
              "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--jobs: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_min_citations_error_says_how_to_fix_it(valid_corpus_path, tmp_path, capsys):
    code = main(["analyze", str(valid_corpus_path), "--min-citations", "3",
                 "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "range 0 starts at 2, expected 3" in err
    assert "bucket_bounds given in a --config file must start at min_citations" in err


def test_analyze_with_a_zero_median_bucket(tmp_path, capsys):
    records = []
    for i in range(4):
        a, b, c = f"x{i}", f"y{i}", f"z{i}"
        records.append(record(f"w_{a}", 2012, [a], ["ml"]))
        records.append(record(f"w_{b}", 2012, [b], ["ml"]))
        records.append(record(f"w_{c}", 2012, [c], [f"solo{i}"]))
        # bucket A holds only uncited papers, each with an exact-0 team
        records.append(record(f"zero{i}", 2013, [a, b], ["ml"], citations=0))
        records.append(record(f"same{i}", 2013, [a, b], ["ml"], citations=1 + 3 * i))
        records.append(record(f"cited{i}", 2013, [a, c], ["ml"], citations=1 + 3 * i))
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, records)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"min_citations": 0, "bucket_bounds": [[0, 1], [1, 3], [3, 6], [6, None]]}
    ))
    out_dir = tmp_path / "out"
    assert main(["analyze", str(corpus), "--config", str(config),
                 "--output", str(out_dir)]) == 0
    assert "| A | 0 <= c < 1 | 0 | 4 |" in (out_dir / "report.md").read_text()
    # fig3 plots B, C and D; its log x axis has no place for A's median of 0
    assert (out_dir / "figures" / "fig3.svg").read_text().count("<circle") == 3


def test_readme_library_example_runs(valid_corpus_path, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert '"corpus.jsonl"' in snippet and '"out/"' in snippet
    snippet = snippet.replace('"corpus.jsonl"', repr(str(valid_corpus_path)))
    snippet = snippet.replace('"out/"', repr(str(tmp_path / "out")))
    exec(snippet, {})
    assert (tmp_path / "out" / "report.md").is_file()

    import teamdiv

    assert sorted(teamdiv.__all__) == ["AnalysisConfig", "load_corpus", "render", "run_analysis"]
    for name in teamdiv.__all__:
        assert getattr(teamdiv, name) is not None


def test_top_k_sensitivity_same_sign(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["synth", "--seed", "21", "--papers", "2500", "--authors", "1200",
          "--coupling", "0.8", "--output", str(synth_dir)])
    corpus = str(synth_dir / "corpus.jsonl")

    def headline_r(out_dir, k):
        assert main(["analyze", corpus, "--top-k", str(k), "--output", str(out_dir)]) == 0
        report = (out_dir / "report.md").read_text()
        for line in report.splitlines():
            if line.startswith("- #1/#0 ratio vs citation median"):
                return float(line.split("r = ")[1].split(",")[0])
        raise AssertionError("headline correlation line missing")

    r5 = headline_r(tmp_path / "k5", 5)
    r10 = headline_r(tmp_path / "k10", 10)
    assert r5 * r10 > 0  # same sign


def test_dump_flags(valid_corpus_path, tmp_path):
    out_dir = tmp_path / "out"
    profiles = tmp_path / "profiles.jsonl"
    metrics = tmp_path / "metrics.csv"
    assert (
        main(
            [
                "analyze",
                str(valid_corpus_path),
                "--output",
                str(out_dir),
                "--dump-profiles",
                str(profiles),
                "--dump-metrics",
                str(metrics),
            ]
        )
        == 0
    )
    assert profiles.read_text().count("\n") == 12  # 12 (author, year) pairs
    assert metrics.read_text().startswith("paper_id,")


def test_dump_profiles_never_changes_the_metrics(tmp_path):
    synth_dir = tmp_path / "synth"
    main(["synth", "--seed", "11", "--papers", "200", "--authors", "150",
          "--output", str(synth_dir)])
    corpus = str(synth_dir / "corpus.jsonl")
    plain, dumped = tmp_path / "plain.csv", tmp_path / "dumped.csv"
    assert main(["analyze", corpus, "--output", str(tmp_path / "a"),
                 "--dump-metrics", str(plain)]) == 0
    assert main(["analyze", corpus, "--output", str(tmp_path / "b"),
                 "--dump-metrics", str(dumped),
                 "--dump-profiles", str(tmp_path / "profiles.jsonl")]) == 0
    assert plain.read_bytes() == dumped.read_bytes()
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    # the dump holds what scoring built: every vector the selected papers need
    loaded = load_corpus(corpus)
    config = AnalysisConfig()
    expected = tmp_path / "expected.jsonl"
    write_profiles(expected, build_profiles(loaded, config, select_analysis_set(loaded, config)))
    assert (tmp_path / "profiles.jsonl").read_bytes() == expected.read_bytes()
    # and every file it writes is the library's run_analysis, rendered and dumped
    profiles = {}
    report = run_analysis(loaded, config, profiles=profiles)
    render(report, tmp_path / "lib")
    write_metrics_csv(tmp_path / "lib.csv", report.metrics)
    write_profiles(tmp_path / "lib.jsonl", profiles)
    assert snapshot(tmp_path / "lib") == snapshot(tmp_path / "b")
    assert (tmp_path / "lib.csv").read_bytes() == dumped.read_bytes()
    assert (tmp_path / "lib.jsonl").read_bytes() == expected.read_bytes()


def test_format_selection(valid_corpus_path, tmp_path):
    out_dir = tmp_path / "out"
    assert (
        main(["analyze", str(valid_corpus_path), "--format", "csv",
              "--output", str(out_dir)]) == 0
    )
    assert (out_dir / "tables" / "table1.csv").is_file()
    assert not (out_dir / "figures").exists()
    assert not (out_dir / "report.md").exists()


@pytest.mark.parametrize("value", [",", "", " , "])
def test_format_naming_no_format_is_a_usage_error(valid_corpus_path, tmp_path, monkeypatch,
                                                   capsys, value):
    def never_called(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli, "load_corpus", never_called)
    out_dir = tmp_path / "out"
    assert main(["analyze", str(valid_corpus_path), "--format", value,
                 "--output", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --format {value!r} names no format")
    assert not out_dir.exists()


def test_tables_check_passes(capsys):
    assert main(["tables-check"]) == 0
    # every printed statistic and p-value, to the digit, so that a change to a
    # statistics kernel that moves one shows here
    assert capsys.readouterr().out == (
        "[PASS] one-zero ratios: all 10 buckets to 2 decimals\n"
        "[PASS] headline correlation: r = 0.9546 (expected 0.955 +/- 0.005), "
        "p = 1.76e-05 (expected < 1e-4)\n"
        "[PASS] J vs A high-diversity delta: 5.2040 percentage points (expected 5.21 +/- 0.02)\n"
        "[PASS] chi-square A vs B: statistic = 75.36, df = 3, p = 3.04e-16 (expected < 0.0001)\n"
        "[PASS] chi-square B vs C: statistic = 25.00, df = 3, p = 1.55e-05 (expected < 0.0001)\n"
        "[PASS] chi-square C vs D: statistic = 8.59, df = 3, p = 0.0352 (expected < 0.06)\n"
        "[PASS] chi-square A vs pooled B-J: statistic = 601.29, df = 3, "
        "p = 5.3e-130 (expected < 0.0001)\n"
        "all 7 checks passed\n"
    )
