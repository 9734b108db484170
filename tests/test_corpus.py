import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import unittest.mock
import warnings

import orjson
import pytest
from hypothesis import given, settings, strategies as st

import teamdiv.corpus as corpus_module
import teamdiv.halves as halves_module
from teamdiv.corpus import (
    AnalysisConfig,
    Corpus,
    CorpusValidationError,
    PaperRecord,
    load_corpus,
    prior_window,
    select_analysis_set,
    validate_jsonl,
    window_papers,
    write_corpus_jsonl,
)
from teamdiv.report import _papers_by_year
from tests.conftest import load_records, record


def test_parse_builds_index_over_all_authors():
    records = [
        record("p1", 2010, ["a", "b"], ["t1"]),
        record("p2", 2011, ["b", "c"], ["t2"], citations=4),
        record("p3", 2012, ["c"], ["t3"]),
    ]
    corpus = load_records(records)
    assert len(corpus) == 3
    assert set(corpus.author_index) == {"a", "b", "c"}
    assert [p.id for p in corpus.author_index["b"]] == ["p1", "p2"]
    assert corpus.papers[0].id == "p1"  # order preserved


def test_loaded_records_are_the_records_their_fields_make():
    records = [record("p1", 2010, ["a", "b"], ["y", "x", "y"], citations=3),
               record("p2", 2011, ["b"], ["z"])]
    expected = [PaperRecord("p1", 2010, ("a", "b"), ("x", "y"), 3),
                PaperRecord("p2", 2011, ("b",), ("z",))]
    corpus = load_records(records)
    assert list(corpus.papers) == expected
    for loaded, built in zip(corpus.papers, expected):
        assert type(loaded) is PaperRecord
        assert hash(loaded) == hash(built)
        assert repr(loaded) == repr(built)
        assert {built: "found"}[loaded] == "found"
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.year = 2020
        with pytest.raises(dataclasses.FrozenInstanceError):
            del loaded.citations_5y
    assert corpus.papers[0].year == 2010


def test_parse_rejects_empty_authors_with_position():
    records = [record("p1", 2010, ["a"], ["t"]), record("p2", 2011, [], ["t"])]
    with pytest.raises(CorpusValidationError, match="record 2.*empty authors"):
        load_records(records)


def test_parse_rejects_duplicate_id_by_name():
    records = [record("p1", 2010, ["a"], ["t"]), record("p1", 2011, ["b"], ["t"])]
    with pytest.raises(CorpusValidationError, match="duplicate paper id 'p1'"):
        load_records(records)


# Every JSON value that is not a nonempty string, as an author or topic id.
_BLANK_IDS = [1, 1.5, True, None, [], {}, ""]


@pytest.mark.parametrize(
    "bad, reason",
    [
        pytest.param(record("p1", "2010", ["a"], ["t"]), "non-integer year in 'p1'", id="bad0"),
        pytest.param(record("p1", 2010, ["a", "a"], ["t"]), "duplicate author within 'p1'",
                     id="bad1"),
        pytest.param(record("p1", 2010, ["a"], []), "empty topics in 'p1'", id="bad2"),
        pytest.param(record("p1", 2010, ["a"], ["t"], citations=-1),
                     "citations_5y must be a nonnegative integer in 'p1'", id="bad3"),
        # orjson 3.8.3 decodes 2**64 as a float; the standard library's int decides it
        pytest.param(record("p1", 2010, ["a"], ["t"], citations=2**64),
                     "citations_5y must be at most 2**53 in 'p1'", id="citations-2-to-the-64"),
        pytest.param({"year": 2010, "authors": ["a"], "topics": ["t"]}, "missing or empty id",
                     id="bad4"),
        *(pytest.param(record("p1", 2010, ["a", value], ["t"]), "blank author id in 'p1'",
                       id=f"author-{json.dumps(value)}") for value in _BLANK_IDS),
        *(pytest.param(record("p1", 2010, ["a"], ["t", value]), "blank topic id in 'p1'",
                       id=f"topic-{json.dumps(value)}") for value in _BLANK_IDS),
        pytest.param(record("p1", 2010, ["a", "a", ""], ["t"]), "blank author id in 'p1'",
                     id="blank-before-duplicate-author"),
    ],
)
def test_parse_rejects_malformed_records(bad, reason):
    with pytest.raises(CorpusValidationError, match=rf"^record 1: {re.escape(reason)}$"):
        load_records([bad])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(),
                          st.none(), st.just([]), st.just({})), max_size=5))
def test_nonblank_id_check_matches_the_per_element_loop(values):
    expected = all(isinstance(x, str) and x for x in values)
    assert corpus_module._all_nonblank_str(values) == expected


def test_lenient_mode_skips_and_counts():
    records = [
        record("p1", 2010, ["a"], ["t"]),
        record("p2", "bad-year", ["a"], ["t"]),
        record("p1", 2011, ["b"], ["t"]),
    ]
    corpus = load_records(records, strict=False)
    assert len(corpus) == 1
    assert corpus.skipped == 2


def test_unknown_keys_ignored():
    raw = record("p1", 2010, ["a"], ["t"])
    raw["venue"] = "Somewhere"
    corpus = load_records([raw])
    assert corpus.papers[0].id == "p1"


def test_author_index_matches_rebuild(small_corpus):
    # the inverse of the authorship relation, found by brute force over every
    # (author, record) pair, in (year, id) order
    papers = small_corpus.papers
    authors = {a for p in papers for a in p.authors}
    inverse = {
        a: tuple(sorted((p for p in papers if a in p.authors), key=lambda p: (p.year, p.id)))
        for a in authors
    }
    assert small_corpus.author_index == inverse


def test_jsonl_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(small_corpus.papers, path)
    again = load_corpus(path)
    assert again.papers == small_corpus.papers
    assert again.author_index == small_corpus.author_index


def _line(*args, **kwargs) -> bytes:
    return json.dumps(record(*args, **kwargs)).encode()


def _position(problem: CorpusValidationError) -> int:
    return int(re.match(r"record (\d+): ", str(problem))[1])


def _reason(problem: CorpusValidationError) -> str:
    return str(problem).split(": ", 1)[1]


@pytest.mark.parametrize(
    "lines, expected",
    [
        pytest.param(
            [_line("p1", 2010, ["a"], ["t"]), b"{not json", _line("p1", 2011, ["b"], ["t"]),
             _line("p3", 2011, [], ["t"])],
            {2: "invalid JSON", 3: "duplicate paper id 'p1'", 4: "empty authors"},
            id="mixed",
        ),
        pytest.param(
            [b"", _line("p1", 2010, ["a"], ["t"]), b"   ", _line("p3", 2011, [], ["t"])],
            {4: "empty authors"},
            id="blank-lines-counted",
        ),
        pytest.param(
            [_line("p1", 2010, ["a"], ["t"]), b'{"id": "p2\xff"}', _line("p3", 2011, ["b"], ["t"])],
            {2: "invalid UTF-8"},
            id="non-utf8",
        ),
        pytest.param(
            [_line("p1", 2010, [], ["t"]), _line("p2", "x", ["a"], ["t"])],
            {1: "empty authors", 2: "non-integer year"},
            id="whole-stream",
        ),
        pytest.param(
            [_line("p\ud800", 2010, ["a"], ["t"]), _line("p2", 2010, ["a\udfff"], ["t"]),
             _line("p3", 2010, ["a"], ["t", "\ud83d"]), _line("p4", 2010, ["a"], ["t"])],
            {1: "invalid UTF-8", 2: "invalid UTF-8", 3: "invalid UTF-8"},
            id="lone-surrogate",
        ),
        pytest.param(
            [_line("p1", 2010, ["a", value], ["t"]) for value in _BLANK_IDS]
            + [_line("p1", 2010, ["a", "", "a"], ["t"])],
            dict.fromkeys(range(1, len(_BLANK_IDS) + 2), "blank author id in 'p1'"),
            id="blank-author-ids",
        ),
        pytest.param(
            [_line("p1", 2010, ["a"], ["t", value]) for value in _BLANK_IDS],
            dict.fromkeys(range(1, len(_BLANK_IDS) + 1), "blank topic id in 'p1'"),
            id="blank-topic-ids",
        ),
        pytest.param(
            [_line("p\ud83d\ude00", 2010, ["a\U0001f600"], ["t"]), b'{"id": "\\\\ud800", '
             b'"year": 2010, "authors": ["a"], "topics": ["t"]}'],
            {},
            id="valid-surrogate-pair",
        ),
    ],
)
def test_validate_jsonl_reports_line_numbers(tmp_path, lines, expected):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    problems = validate_jsonl(path)
    assert [_position(p) for p in problems] == list(expected)
    for problem, reason in zip(problems, expected.values()):
        assert reason in _reason(problem)


@pytest.mark.parametrize("field", ["id", "authors", "topics"])
def test_parse_rejects_lone_surrogate(field):
    bad = record("p1", 2010, ["a"], ["t"])
    bad[field] = "p\ud800" if field == "id" else ["x\udfff"]
    with pytest.raises(CorpusValidationError, match=r"^record 1: invalid UTF-8$"):
        load_records([bad])
    corpus = load_records([bad, record("p2", 2011, ["b"], ["t\U0001f600"])], strict=False)
    assert [p.id for p in corpus.papers] == ["p2"]
    assert corpus.skipped == 1


def _loads_outcome(line):
    try:
        return repr(json.loads(line))
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON: {exc}"


def _decode_outcome(line):
    try:
        return repr(corpus_module._decode_line(1, line))  # repr: NaN != NaN
    except CorpusValidationError as exc:
        return _reason(exc)


@pytest.mark.parametrize(
    "line",
    [
        pytest.param('\ufeff{"a":1}', id="bom"),
        pytest.param('{"a":1} x', id="trailing-text"),
        pytest.param('{"a":1}{"b":2}', id="two-objects"),
        pytest.param("1 2", id="two-numbers"),
        pytest.param("NaN", id="nan"),
        pytest.param('{"a":Infinity}', id="infinity"),
        pytest.param("7" * 5000, id="int-digit-limit"),
        pytest.param("tru", id="truncated-literal"),
    ],
)
def test_decode_line_matches_json_loads(line):
    assert _decode_outcome(line) == _loads_outcome(line)


# JSON punctuation and literals often enough to reach the scanner's deeper
# states; lone surrogates are left out, since they are reported as invalid UTF-8.
_json_ish = st.text(
    st.sampled_from(list('{}[]":, 0123456789.eE+-\\truefalsnNIfiy')) |
    st.characters(exclude_categories=["Cs"]),
    max_size=40,
).map(str.strip)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_json_ish)
def test_decode_line_matches_json_loads_on_any_text(line):
    assert _decode_outcome(line) == _loads_outcome(line)


def _nested_line(depth):
    # the record object is one level; its unknown key adds depth - 1 arrays
    head = json.dumps(record("p1", 2010, ["a"], ["t"]))[:-1]
    return f'{head}, "x": {"[" * (depth - 1)}{"]" * (depth - 1)}}}'


def _validate_under(frames, path):
    return validate_jsonl(path) if frames == 0 else _validate_under(frames - 1, path)


@pytest.mark.parametrize("frames", [0, 300], ids=["top-of-stack", "300-extra-frames"])
def test_nesting_is_bounded_wherever_the_check_runs(tmp_path, frames):
    bound = corpus_module._MAX_DEPTH
    path = tmp_path / "corpus.jsonl"
    path.write_text(_nested_line(bound) + "\n" + _nested_line(bound + 1) + "\n")
    problems = _validate_under(frames, path)
    assert [str(p) for p in problems] == [
        f"record 2: invalid JSON: nested deeper than {bound} levels"
    ]


def test_deep_nesting_is_rejected_with_its_own_reason():
    # brackets inside strings do not nest, nor do those after an escaped quote
    for inside in ('["\\"' + "[" * 600 + '"]', '"' + "[" * 600 + '"'):
        assert _decode_outcome(inside) == repr(json.loads(inside))
    for line in ("[" * 200_000, "{" + '"a":{' * 600):
        assert _decode_outcome(line) == "invalid JSON: nested deeper than 500 levels"


def test_a_valid_line_never_reaches_json_loads(monkeypatch):
    def fail(line):
        raise AssertionError(f"json.loads ran on {line!r}")

    monkeypatch.setattr(corpus_module.json, "loads", fail)
    line = json.dumps(record("p1", 2010, ["a"], ["t"], citations=3))
    assert list(corpus_module._check_records([line])) == [json.JSONDecoder().decode(line)]


def test_a_year_wider_than_64_bits_and_nan_in_an_unknown_key_are_accepted():
    # orjson rejects NaN and may decode 10**20 as a float; the standard
    # library's decoder accepts both
    raw = record("p1", 10**20, ["a"], ["t"])
    raw["venue"] = float("nan")
    (paper,) = load_records([raw]).papers
    assert paper.year == 10**20 and type(paper.year) is int


# --- the orjson fast path against the standard library's decoder alone ---

# Integers at and past the 53- and 64-bit edges, and numbers orjson rejects.
_EDGE_NUMBERS = [str(n) for n in (2**63, -2**63, -2**63 - 1, 2**64, 10**20, 2**53, 2**53 + 1)]
_NUMBER = st.sampled_from([*_EDGE_NUMBERS, "NaN", "1e400", "-Infinity", "2010.0"])
# A character outside the BMP is a surrogate pair when escaped.
_NAME = st.text(st.sampled_from(["a", "b", "c", "\xe9", "\U0001f600"]), min_size=1, max_size=3)
# Escaped with ensure_ascii; written raw without it, where it stands for a
# byte that is not UTF-8.
_LONE_SURROGATE = st.sampled_from(["\ud800", "x\udfff", "\udc80"])


@st.composite
def _record_lines(draw):
    """One JSONL line, mostly a valid record, serialised with or without ensure_ascii."""
    ensure_ascii = draw(st.booleans())

    def text(value):
        return json.dumps(value, ensure_ascii=ensure_ascii)

    def name():
        return draw(_LONE_SURROGATE if draw(st.integers(0, 19)) == 0 else _NAME)

    def names():
        return "[" + ", ".join(text(name()) for _ in range(draw(st.integers(1, 3)))) + "]"

    def number():
        return draw(_NUMBER | st.integers(0, 2030).map(str))

    fields = [("id", text(name())), ("year", number()), ("authors", names()), ("topics", names())]
    if draw(st.booleans()):
        fields.append(("citations_5y", number()))
    if draw(st.booleans()):
        depth = draw(st.sampled_from([2, 500, 501]))  # the record itself is one level
        fields.append(("x", draw(_NUMBER | st.just("[" * (depth - 1) + "]" * (depth - 1)))))
    if draw(st.integers(0, 3)) == 0:
        fields.append(("id", text(name())))  # the last of repeated keys wins
    fields = draw(st.permutations(fields))
    line = "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"
    damage = draw(st.sampled_from(["none"] * 12 + ["bom", "truncated", "trailing"]))
    if damage == "bom":
        line = "\ufeff" + line
    elif damage == "truncated":
        line = line[: draw(st.integers(1, len(line) - 1))]
    elif damage == "trailing":
        line += draw(st.sampled_from([" x", "{}", ", 1"]))
    return line


def _check_outcome(lines):
    fields = ("id", "year", "authors", "topics", "citations_5y")
    return [
        str(item) if isinstance(item, CorpusValidationError)
        else [(item.get(name), type(item.get(name))) for name in fields]
        for item in corpus_module._check_records(lines)
    ]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_record_lines(), min_size=1, max_size=4))
def test_the_orjson_fast_path_decides_as_json_loads_alone(lines):
    def rejects(line):
        raise orjson.JSONDecodeError("rejected", line, 0)

    fast = _check_outcome(lines)
    with unittest.mock.patch.object(orjson, "loads", rejects):
        exact = _check_outcome(lines)
    assert fast == exact


# --- building: one object per distinct topic, topic set and year ---
# Each line goes through its own decoder call, so no two input records share a
# string or an int object before the corpus is built.


@pytest.mark.parametrize("via", ["load_corpus"])
def test_repeated_topics_topic_sets_and_years_are_one_object(via):
    records = [
        record("p1", 2010, ["a"], ["ml", "db"]),
        record("p2", 2010, ["b"], ["db", "ml"], citations=3),
        record("p3", 2011, ["c"], ["ml", "hci"]),
        record("p4", 2011, ["d"], ["hci"]),
    ]
    p1, p2, p3, p4 = load_records(records).papers

    def topic(paper, name):
        return next(t for t in paper.topics if t == name)

    assert p1.topics == p2.topics and p1.topics is p2.topics
    assert p1.topics != p3.topics and topic(p1, "ml") is topic(p3, "ml")
    assert topic(p3, "hci") is topic(p4, "hci")
    assert p1.year is p2.year and p3.year is p4.year


def test_every_spelling_of_a_topic_set_is_one_sorted_tuple():
    # the unsorted spelling with a repeat comes first, so it builds the tuple
    records = [
        record("p1", 2010, ["x"], ["b", "a", "a"]),
        record("p2", 2011, ["y"], ["a", "b"]),
        record("p3", 2012, ["z"], ["b", "a"]),
    ]
    p1, p2, p3 = load_records(records).papers
    assert p1.topics == ("a", "b")
    assert p1.topics is p2.topics is p3.topics


@pytest.mark.parametrize("via", ["load_corpus"])
def test_repeated_authors_are_one_object(via):
    # Names longer than one character: CPython caches one-character strings.
    records = [
        record("p1", 2010, ["ada", "grace"], ["ml"]),
        record("p2", 2011, ["grace", "alan"], ["db"]),
        record("p3", 2012, ["alan", "ada"], ["ml"], citations=3),
    ]
    corpus = load_records(records)
    p1, p2, p3 = corpus.papers
    assert p1.authors[0] is p3.authors[1]
    assert p1.authors[1] is p2.authors[0]
    assert p2.authors[1] is p3.authors[0]
    keys = {name: name for name in corpus.author_index}
    assert keys["ada"] is p1.authors[0]
    assert keys["grace"] is p2.authors[0]
    assert keys["alan"] is p3.authors[0]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_repeated_author_lists_are_one_tuple(strict):
    records = [
        record("p1", 2010, ["ada", "grace"], ["ml"]),
        record("p2", 2011, ["grace", "ada"], ["ml"]),
        record("p3", 2012, ["ada", "grace"], ["db"], citations=3),
        record("p4", 2013, ["grace", "ada"], ["db"]),
        # a later record's topic list written as this author list
        record("p5", 2013, ["t2", "t1"], ["db"]),
        record("p6", 2014, ["ada"], ["t2", "t1"]),
    ]
    if not strict:
        records.insert(2, record("bad", "2011", ["ada", "grace"], ["ml"]))
    corpus = load_records(records, strict=strict)
    assert corpus.skipped == (0 if strict else 1)
    p1, p2, p3, p4, p5, p6 = corpus.papers
    assert p1.authors == ("ada", "grace") and p1.authors is p3.authors
    assert p2.authors == ("grace", "ada") and p2.authors is p4.authors
    assert p1.authors is not p2.authors
    assert p1.authors[0] is p2.authors[1]
    assert p5.authors == ("t2", "t1")
    assert p6.topics == ("t1", "t2")


# --- the author index and windows over it ---

# Out of (year, id) order on purpose; "ada" has three papers in 2012.
_TIE_RECORDS = [
    record("t2", 2012, ["ada"], ["ml"]),
    record("t1", 2012, ["ada", "bob"], ["db"]),
    record("t0", 2011, ["ada"], ["ml"]),
    record("p", 2013, ["ada", "bob"], ["ml"], citations=5),
    record("q", 2012, ["ada", "bob"], ["db"], citations=5),
]


@pytest.mark.parametrize("via", ["load_corpus"])
def test_author_index_holds_the_corpus_records_by_year_then_id(via):
    corpus = load_records(_TIE_RECORDS)
    assert [p.id for p in corpus.author_index["ada"]] == ["t0", "q", "t1", "t2", "p"]
    assert [p.id for p in corpus.author_index["bob"]] == ["q", "t1", "p"]
    for papers in corpus.author_index.values():
        assert all(p is corpus.by_id[p.id] for p in papers)
        assert papers == tuple(sorted(papers, key=lambda p: (p.year, p.id)))


def test_windows_and_selection_over_a_same_year_tie():
    corpus = load_records(_TIE_RECORDS)
    assert prior_window(corpus, "ada", 2013, 5) == ["t0", "q", "t1", "t2"]
    assert prior_window(corpus, "ada", 2013, 1) == ["q", "t1", "t2"]
    assert prior_window(corpus, "ada", 2012, 5) == ["t0"]
    assert prior_window(corpus, "bob", 2012, 5) == []
    window = window_papers(corpus, "ada", 2013, 1)
    assert [p.id for p in window] == ["q", "t1", "t2"]
    assert all(p is corpus.by_id[p.id] for p in window)
    # q (2012) has no window paper of bob's: his papers all fall in 2012 or later
    assert select_analysis_set(corpus, AnalysisConfig()) == {"p"}
    assert select_analysis_set(corpus, AnalysisConfig(window_years=1)) == {"p"}


def test_validate_builds_no_records(tmp_path, monkeypatch, cpus):
    cpus(1)  # the spy records only the records built in this process
    built = []
    # load_corpus fills every record it builds through these setters, the id's first
    set_id, *others = corpus_module._RECORD_SETTERS

    def spy(paper, paper_id):
        built.append(paper_id)
        set_id(paper, paper_id)

    monkeypatch.setattr(corpus_module, "_RECORD_SETTERS", (spy, *others))
    path = tmp_path / "corpus.jsonl"
    lines = [_line("p1", 2010, ["a"], ["t"]), _line("p2", 2010, [], ["t"]),
             _line("p3", 2011, ["b"], ["t"])]
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert [_position(p) for p in validate_jsonl(path)] == [2]
    assert built == []
    load_corpus(path, strict=False)  # the spy does see the records a load builds
    assert built == ["p1", "p3"]


# --- validate in two processes: a forked worker checks the lines after the split ---


def _mixed_corpus() -> bytes:
    """Lines with every kind of line end and of problem, and ids repeated
    near the start, near the end, and from one end to the other."""
    good = lambda pid: _line(pid, 2010, ["a"], ["t"])  # noqa: E731
    lines = [
        b"\xef\xbb\xbf" + good("bom") + b"\n",
        good("p1") + b"\r\n",
        good("p1") + b"\n",  # a repeat near the start
        b"\n",
        good("p2") + b"\r",
        b"   \r\n",
        b'{"id": "p3\xff", "year": 2010}\n',
        good("p4") + b"\r",
        b'{"id": "p\\ud800", "year": 2010, "authors": ["a"], "topics": ["t"]}\n',
        _nested_line(501).encode() + b"\n",
        good("p5") + b"\r\n",
        b"{not json\n",
        _line("p6", 2010, [], ["t"]) + b"\n",
        good("p7") + b"\r\n",
        good("p4") + b"\n",  # repeats p4 from the start ...
        good("p8") + b"\r",
        good("p8") + b"\n",  # a repeat near the end
        b"\r\n",
        good("p4") + b"\r\n",  # ... and again near the end
        good("p2") + b"\n",
        good("p9") + b"\r",
        good("p9"),
    ]
    return b"".join(lines)


def test_two_processes_report_what_one_reports_at_every_split(tmp_path, monkeypatch, cpus, forks):
    path = tmp_path / "corpus.jsonl"
    data = _mixed_corpus()
    path.write_bytes(data)
    cpus(1)
    one_process = validate_jsonl(path)
    assert forks == []
    assert [_position(p) for p in one_process] == [1, 3, 7, 9, 10, 12, 13, 15, 17, 19, 20, 22]
    assert [_reason(p) for p in one_process if "duplicate" in str(p)] == [
        f"duplicate paper id {pid!r}" for pid in ("p1", "p4", "p8", "p4", "p2", "p9")
    ]
    expected = list(map(str, one_process))
    splits = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    real_split_offset = halves_module.split_offset
    cpus(2)
    for split in splits:
        monkeypatch.setattr(halves_module, "split_offset", lambda fd, split=split: split)
        assert [str(p) for p in validate_jsonl(path)] == expected, split
    assert forks == ["fork"] * len(splits)
    monkeypatch.setattr(halves_module, "split_offset", real_split_offset)
    middle = data.index(b"\n", len(data) // 2) + 1
    assert [str(p) for p in validate_jsonl(path)] == expected
    assert forks == ["fork"] * (len(splits) + 1)
    with open(path, "rb") as handle:
        assert halves_module.split_offset(handle.fileno()) == middle
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_error_in_either_half_reaches_the_caller_and_leaves_no_process(
    tmp_path, monkeypatch, cpus, forks, error
):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"".join(_line(f"p{i}", 2010, ["a"], ["t"]) + b"\n" for i in range(10)))
    real_check_record = corpus_module._check_record
    cpus(2)
    # p1 is checked by this process and p8 by the worker
    for failing_id in ("p8", "p1"):

        def failing(position, raw, failing_id=failing_id):
            if raw["id"] == failing_id:
                raise error(f"cannot check {failing_id}")
            return real_check_record(position, raw)

        monkeypatch.setattr(corpus_module, "_check_record", failing)
        with pytest.raises(error, match=f"cannot check {failing_id}"):
            validate_jsonl(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert forks == ["fork"] * 2


def _problems(path) -> list[str]:
    return [str(p) for p in validate_jsonl(path)]


_EXPECTED = ["record 2: empty authors in 'p2'", "record 4: duplicate paper id 'p1'"]


def _small_corpus() -> bytes:
    return b"".join(
        _line(pid, 2010, authors, ["t"]) + b"\n"
        for pid, authors in [("p1", ["a"]), ("p2", []), ("p3", ["b"]), ("p1", ["c"])]
    )


def test_one_cpu_checks_in_this_process(tmp_path, cpus, forks):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_small_corpus())
    cpus(1)
    assert _problems(path) == _EXPECTED
    assert forks == []
    cpus(2)
    assert _problems(path) == _EXPECTED
    assert forks == ["fork"]


def test_a_second_thread_keeps_validate_in_this_process(tmp_path, cpus, forks):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_small_corpus())
    cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        # Python 3.12+ warns (DeprecationWarning) on a fork with threads alive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems = _problems(path)
    finally:
        release.set()
        thread.join()
    assert problems == _EXPECTED
    assert forks == []


def test_a_fifo_is_checked_in_this_process(tmp_path, cpus, forks):
    source = tmp_path / "corpus.jsonl"
    source.write_bytes(_small_corpus())
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    cpus(2)
    feeder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())",
         str(source), str(fifo)]
    )
    try:
        problems = _problems(fifo)
    finally:
        assert feeder.wait(timeout=60) == 0
    assert problems == _EXPECTED
    assert forks == []


def test_a_file_with_no_newline_past_its_middle_is_checked_in_this_process(
    tmp_path, cpus, forks
):
    path = tmp_path / "corpus.jsonl"
    data = _small_corpus() + _line("p5", 2010, ["d" * 500], ["t"])  # no line end
    assert data.rindex(b"\n") < len(data) // 2
    path.write_bytes(data)
    cpus(2)
    assert _problems(path) == _EXPECTED
    path.write_bytes(data + b"\n")  # a newline only as the last byte leaves nothing to split off
    assert _problems(path) == _EXPECTED
    assert forks == []


_names = st.one_of(st.sampled_from(["ml", "db", "hci", "nlp"]),
                   st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3))
_records = st.lists(
    st.fixed_dictionaries(
        {
            "year": st.integers(1990, 2030) | st.integers(-(10**30), 10**30),
            "authors": st.lists(_names, min_size=1, max_size=4, unique=True),
            "topics": st.lists(_names, min_size=1, max_size=5),
            "citations_5y": st.none() | st.integers(0, 10**6),
        }
    ),
    max_size=25,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_records)
def test_parse_builds_what_the_records_say(records):
    records = [{"id": f"p{i}", **r} for i, r in enumerate(records)]
    papers = load_records(records).papers
    assert [p.topics for p in papers] == [tuple(sorted(set(r["topics"]))) for r in records]
    assert list(papers) == [
        PaperRecord(r["id"], r["year"], tuple(r["authors"]), tuple(sorted(set(r["topics"]))),
                    r["citations_5y"])
        for r in records
    ]
    # equal values are one object
    assert len({id(p.topics) for p in papers}) == len({p.topics for p in papers})
    assert len({id(p.year) for p in papers}) == len({p.year for p in papers})
    topics = [t for p in papers for t in p.topics]
    assert len({id(t) for t in topics}) == len(set(topics))


# --- prior_window ---


def test_prior_window_excludes_query_year():
    records = [
        record("q1", 2008, ["a"], ["t"]),
        record("q2", 2010, ["a"], ["t"]),
        record("q3", 2013, ["a"], ["t"]),
    ]
    corpus = load_records(records)
    assert prior_window(corpus, "a", 2013, 5) == ["q1", "q2"]


def test_prior_window_unknown_author_is_empty(small_corpus):
    assert prior_window(small_corpus, "nobody", 2013, 5) == []


def test_prior_window_endpoints():
    # window 5 at query year 2015 covers 2010..2014 inclusive
    records = [record(f"y{y}", y, ["a"], ["t"]) for y in range(2008, 2016)]
    corpus = load_records(records)
    ids = prior_window(corpus, "a", 2015, 5)
    assert ids == [f"y{y}" for y in range(2010, 2015)]


def test_prior_window_sorted_by_year():
    records = [
        record("late", 2014, ["a"], ["t"]),
        record("early", 2011, ["a"], ["t"]),
    ]
    corpus = load_records(records)
    assert prior_window(corpus, "a", 2015, 5) == ["early", "late"]


# --- select_analysis_set ---


def test_select_includes_qualifying_paper(small_corpus):
    selected = select_analysis_set(small_corpus, AnalysisConfig())
    assert "p1" in selected  # 2013, 3 citations, 2 authors with priors


def test_select_excludes_single_author(small_corpus):
    assert "p4" not in select_analysis_set(small_corpus, AnalysisConfig())


def test_select_excludes_missing_citations(small_corpus):
    assert "p5" not in select_analysis_set(small_corpus, AnalysisConfig())


def test_select_excludes_author_without_priors():
    records = [
        record("w1", 2012, ["a"], ["t"]),
        record("p1", 2013, ["a", "newcomer"], ["t"], citations=5),
    ]
    corpus = load_records(records)
    assert select_analysis_set(corpus, AnalysisConfig()) == set()


@pytest.mark.parametrize(
    "window, prior_year, included",
    [(5, 2008, True), (5, 2007, False), (5, 2013, False),
     (1, 2012, True), (1, 2011, False), (1, 2013, False)],
)
def test_select_window_boundaries(window, prior_year, included):
    # the window of a 2013 paper is [2013 - window, 2012]
    records = [
        record("wa", 2012, ["a"], ["t"]),
        record("wb", prior_year, ["b"], ["t"]),
        record("p1", 2013, ["a", "b"], ["t"], citations=5),
    ]
    corpus = load_records(records)
    selected = select_analysis_set(corpus, AnalysisConfig(window_years=window))
    assert selected == ({"p1"} if included else set())


def _selected_by_year(corpus, config):
    """The selection by its definition: each constraint tested on its own, and
    (iv) by a scan of each author's indexed records; then grouped by year in
    corpus order."""
    start, end = config.year_range

    def has_window(author, year):
        entries = corpus.author_index.get(author, ())
        return any(year - config.window_years <= p.year < year for p in entries)

    by_year = {}
    for paper in corpus.papers:
        if (start <= paper.year <= end
                and paper.citations_5y is not None
                and paper.citations_5y >= config.min_citations
                and len(paper.authors) >= config.min_authors
                and all(has_window(author, paper.year) for author in paper.authors)):
            by_year.setdefault(paper.year, []).append(paper)
    return by_year


@st.composite
def _selection_worlds(draw):
    """Small corpora with years around the range's and the windows' edges,
    records without citations, and an index that may lack some authors."""
    names = ["a", "b", "c", "d", "e", "f"]
    records = [
        record(f"p{i}", draw(st.integers(2005, 2016)),
               draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)),
               ["t"], draw(st.none() | st.integers(0, 6)))
        for i in range(draw(st.integers(1, 25)))
    ]
    start = draw(st.integers(2006, 2014))
    min_citations = draw(st.integers(0, 3))
    config = AnalysisConfig(
        window_years=draw(st.integers(1, 4)),
        year_range=(start, draw(st.integers(start, 2015))),
        min_citations=min_citations,
        min_authors=draw(st.integers(1, 3)),
        bucket_bounds=((min_citations, None),),
    )
    return records, config, draw(st.sets(st.sampled_from(names), max_size=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_selection_worlds())
def test_one_selection_walk_returns_the_selected_year_groups(world):
    records, config, unindexed = world
    loaded = load_records(records)
    index = {a: e for a, e in loaded.author_index.items() if a not in unindexed}
    corpus = Corpus(loaded.papers, index)
    walked = corpus_module._analysis_papers_by_year(corpus, config)
    expected = _selected_by_year(corpus, config)
    assert list(walked.items()) == list(expected.items())
    grouped = _papers_by_year(corpus, select_analysis_set(corpus, config))
    assert list(walked.items()) == list(grouped.items())
    assert all(paper is corpus.papers[int(paper.id[1:])]
               for papers in walked.values() for paper in papers)


def test_select_year_and_citation_bounds(small_corpus):
    config = AnalysisConfig()
    selected = select_analysis_set(small_corpus, config)
    assert selected == {"p1", "p2", "p3"}
    # out-of-range year excluded
    narrow = AnalysisConfig(year_range=(2014, 2015))
    assert select_analysis_set(small_corpus, narrow) == {"p2", "p3"}


def test_select_monotone_in_constraints(small_corpus):
    base = select_analysis_set(small_corpus, AnalysisConfig())
    relaxed_years = select_analysis_set(
        small_corpus, AnalysisConfig(year_range=(2000, 2020))
    )
    relaxed_citations = select_analysis_set(
        small_corpus,
        AnalysisConfig(min_citations=0, bucket_bounds=((0, 5), (5, None))),
    )
    assert base <= relaxed_years
    assert base <= relaxed_citations


# --- buckets ---


def _bucket_labels(citations):
    return [b.label for b in AnalysisConfig().buckets if b.contains(citations)]


def test_assign_bucket_reference_points():
    assert _bucket_labels(3) == ["A"]
    assert _bucket_labels(5) == ["B"]  # half-open boundary
    assert _bucket_labels(150) == ["J"]
    assert _bucket_labels(10**9) == ["J"]


def test_assign_bucket_below_minimum():
    assert _bucket_labels(1) == []  # below min_citations


def test_bucket_partition_is_exhaustive():
    config = AnalysisConfig()
    for c in range(2, 1001):
        matches = [b for b in config.buckets if b.contains(c)]
        assert len(matches) == 1, c


def test_custom_bucket_labels_extend_past_z():
    bounds = tuple((i, i + 1) for i in range(30)) + ((30, None),)
    config = AnalysisConfig(min_citations=0, bucket_bounds=bounds)
    labels = [b.label for b in config.buckets]
    assert labels[:3] == ["A", "B", "C"]
    assert labels[26] == "AA"


_BAD_CONFIGS = [
    ({"bucket_bounds": ((2, 5), (6, None))},  # gap
     "bucket_bounds must be contiguous from min_citations: range 1 starts at 6, expected 5"),
    ({"bucket_bounds": ((2, 5), (5, 10))}, "last bucket must be unbounded above"),
    ({"bucket_bounds": ((3, None),)},  # does not start at min_citations
     "bucket_bounds must be contiguous from min_citations: range 0 starts at 3, expected 2"),
    ({"edge_threshold": 1.5}, "edge_threshold must lie in [0, 1]"),
    ({"top_k": 0}, "top_k must be >= 1"),
    ({"window_years": 0}, "window_years must be >= 1"),
    ({"year_range": (2015, 2010)}, "year_range start exceeds end"),
]


@pytest.mark.parametrize(
    "kwargs, message", _BAD_CONFIGS, ids=[f"kwargs{i}" for i in range(len(_BAD_CONFIGS))]
)
def test_config_invariants_rejected(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AnalysisConfig(**kwargs)


def test_config_dict_round_trip():
    config = AnalysisConfig(top_k=5, edge_threshold=0.25)
    assert AnalysisConfig.from_dict(config.to_dict()) == config
