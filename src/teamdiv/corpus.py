"""Publication records: parsing, validation, indexing, selection, buckets.

The on-disk format is JSONL, one record per line:

    {"id": str, "year": int, "authors": [str, ...], "topics": [str, ...],
     "citations_5y": int}

``citations_5y`` may be omitted (records that only feed expertise windows).
Unknown keys are ignored. Blank lines are skipped. Problems are named by
physical line number, blank lines included; a line holding bytes that are
not UTF-8, or an id, author or topic whose JSON escapes decode to a lone
surrogate, is reported as ``invalid UTF-8``; one nested more than 500 levels
deep is ``invalid JSON`` wherever the load is called from.

Every record enters through one path: a generator decodes and checks each
JSONL line and yields the decoded object or the error rejecting it. A line
is decoded by ``orjson``; only a line that ``orjson`` or the schema check
rejects is decided again by ``json.loads``, so the records accepted and the
reasons given are those of the standard library's decoder.
``validate_jsonl`` keeps only the errors and builds nothing; ``load_corpus``
builds a ``PaperRecord`` from each kept object, sharing one object per
distinct author, author list, topic, topic set and year within the load, and
is the only code that builds a ``Corpus``. It fills each record through the
slot setters, not through the frozen class's ``__init__``, which sets each
field through ``object.__setattr__``. A topic set is held as a tuple of
its distinct topics in ascending order: nothing tests topic membership, and
a tuple of a few strings takes a fraction of a frozenset's memory.

The author index maps each author to a tuple of their own ``PaperRecord``
objects, sorted by (year, id); a window of years is a slice of that tuple
found by bisection. The analysis set is selected and grouped by year in one
walk over the records, with one bisection per author.

``validate_jsonl`` checks a large file in two processes through ``halves``,
which it imports only when it may fork.
"""
from __future__ import annotations

import json
import logging
import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import accumulate, count
from operator import attrgetter
from pathlib import Path

log = logging.getLogger(__name__)

DEFAULT_BUCKET_BOUNDS: tuple[tuple[int, int | None], ...] = (
    (2, 5),
    (5, 10),
    (10, 15),
    (15, 20),
    (20, 30),
    (30, 40),
    (40, 50),
    (50, 100),
    (100, 150),
    (150, None),
)

# Bucket medians and correlations turn citation counts into floats, which
# hold every integer exactly only up to 2**53.
_MAX_CITATIONS = 2**53


class CorpusValidationError(ValueError):
    """A record in the input stream violates the corpus schema."""

    def __init__(self, position: int, message: str):
        super().__init__(f"record {position}: {message}")
        self.position = position
        self.reason = message


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One publication; ``topics`` holds its distinct topics in ascending order."""

    id: str
    year: int
    authors: tuple[str, ...]
    topics: tuple[str, ...]
    citations_5y: int | None = None


# The slot setters of PaperRecord's fields, in field order. ``load_corpus``
# fills each record it builds through them: the frozen class's ``__init__``
# sets every field through ``object.__setattr__``, which costs about as much
# again. Assignment to a record still raises FrozenInstanceError.
_RECORD_SETTERS = tuple(getattr(PaperRecord, f.name).__set__ for f in fields(PaperRecord))


@dataclass(frozen=True, slots=True)
class CitationBucket:
    """One half-open citation range [lo, hi); hi None means unbounded."""

    label: str
    lo: int
    hi: int | None

    def contains(self, citations: int) -> bool:
        if citations < self.lo:
            return False
        return self.hi is None or citations < self.hi

    def range_text(self) -> str:
        if self.hi is None:
            return f"c >= {self.lo}"
        return f"{self.lo} <= c < {self.hi}"


def _bucket_label(index: int) -> str:
    # Spreadsheet-style labels: A..Z, AA, AB, ...
    label = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value: object) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2


@dataclass(frozen=True)
class AnalysisConfig:
    window_years: int = 5
    top_k: int = 10
    edge_threshold: float = 0.3
    year_range: tuple[int, int] = (2010, 2015)
    min_citations: int = 2
    min_authors: int = 2
    bucket_bounds: tuple[tuple[int, int | None], ...] = DEFAULT_BUCKET_BOUNDS
    inclusive_threshold: bool = False

    def __post_init__(self):
        for name in ("window_years", "top_k", "min_citations", "min_authors"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.edge_threshold):
            raise ValueError(f"edge_threshold must be a number, got {self.edge_threshold!r}")
        if not isinstance(self.inclusive_threshold, bool):
            raise ValueError(
                f"inclusive_threshold must be true or false, got {self.inclusive_threshold!r}"
            )
        if not _is_pair(self.year_range) or not all(map(_is_int, self.year_range)):
            raise ValueError(f"year_range must be two integers, got {self.year_range!r}")
        if not isinstance(self.bucket_bounds, (list, tuple)) or not all(
            _is_pair(b) and _is_int(b[0]) and (b[1] is None or _is_int(b[1]))
            for b in self.bucket_bounds
        ):
            raise ValueError(
                "bucket_bounds must be a list of [int, int or null] pairs, "
                f"got {self.bucket_bounds!r}"
            )
        if self.window_years < 1:
            raise ValueError("window_years must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.edge_threshold <= 1.0:
            raise ValueError("edge_threshold must lie in [0, 1]")
        if self.year_range[0] > self.year_range[1]:
            raise ValueError("year_range start exceeds end")
        if self.min_authors < 1:
            raise ValueError("min_authors must be >= 1")
        if not self.bucket_bounds:
            raise ValueError("bucket_bounds must be nonempty")
        expected_lo = self.min_citations
        for i, (lo, hi) in enumerate(self.bucket_bounds):
            last = i == len(self.bucket_bounds) - 1
            if lo != expected_lo:
                hint = (
                    "; bucket_bounds given in a --config file must start at min_citations"
                    if i == 0
                    else ""
                )
                raise ValueError(
                    f"bucket_bounds must be contiguous from min_citations: "
                    f"range {i} starts at {lo}, expected {expected_lo}{hint}"
                )
            if last:
                if hi is not None:
                    raise ValueError("last bucket must be unbounded above")
            else:
                if hi is None or hi <= lo:
                    raise ValueError(f"bucket range {i} is empty or unordered")
                expected_lo = hi

    @property
    def buckets(self) -> tuple[CitationBucket, ...]:
        return tuple(
            CitationBucket(label=_bucket_label(i), lo=lo, hi=hi)
            for i, (lo, hi) in enumerate(self.bucket_bounds)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "AnalysisConfig":
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        # JSON arrays become tuples; anything else reaches __post_init__ as is
        if isinstance(kwargs.get("year_range"), (list, tuple)):
            kwargs["year_range"] = tuple(kwargs["year_range"])
        if isinstance(kwargs.get("bucket_bounds"), (list, tuple)):
            kwargs["bucket_bounds"] = tuple(
                tuple(b) if isinstance(b, (list, tuple)) else b for b in kwargs["bucket_bounds"]
            )
        return cls(**kwargs)


@dataclass
class Corpus:
    """Immutable snapshot of parsed publication records.

    Records share their objects: the records of one load that name the same
    author, the same author list in the same order, the same topic, the same
    topic set or the same year hold one object for it.

    ``author_index`` maps each author to a tuple of the records naming them,
    the same objects as in ``papers``, sorted by (year, id); it is exactly the
    inverse of the authorship relation.

    ``by_id`` maps each id to its record, the same object as in ``papers``.
    It is built on first read, and the analysis pipeline never reads it: a
    map over every record would cost memory in every run for the few ids a
    caller looks up.
    """

    papers: tuple[PaperRecord, ...]
    author_index: dict[str, tuple[PaperRecord, ...]] = field(repr=False)
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.papers)

    @cached_property
    def by_id(self) -> dict[str, PaperRecord]:
        return {p.id: p for p in self.papers}


_year = attrgetter("year")
_year_and_id = attrgetter("year", "id")


def _all_nonblank_str(values: list) -> bool:
    # join raises TypeError unless every element is a str; both tests run in C.
    try:
        "".join(values)
    except TypeError:
        return False
    return "" not in values


def _check_record(position: int, raw: object) -> str:
    """Check one decoded record against the schema and return its id.

    A JSON decoder builds only exact dicts, lists, strs and ints, and a bool
    is a type of its own, so one identity test decides each field's type.
    """
    if type(raw) is not dict:
        raise CorpusValidationError(position, "record is not an object")
    paper_id = raw.get("id")
    if type(paper_id) is not str or not paper_id:
        raise CorpusValidationError(position, "missing or empty id")
    year = raw.get("year")
    if type(year) is not int:
        raise CorpusValidationError(position, f"non-integer year in {paper_id!r}")
    authors = raw.get("authors")
    if type(authors) is not list or not authors:
        raise CorpusValidationError(position, f"empty authors in {paper_id!r}")
    if not _all_nonblank_str(authors):
        raise CorpusValidationError(position, f"blank author id in {paper_id!r}")
    if len(set(authors)) != len(authors):
        raise CorpusValidationError(position, f"duplicate author within {paper_id!r}")
    topics = raw.get("topics")
    if type(topics) is not list or not topics:
        raise CorpusValidationError(position, f"empty topics in {paper_id!r}")
    if not _all_nonblank_str(topics):
        raise CorpusValidationError(position, f"blank topic id in {paper_id!r}")
    citations = raw.get("citations_5y")
    if citations is not None:
        if type(citations) is not int or citations < 0:
            raise CorpusValidationError(
                position, f"citations_5y must be a nonnegative integer in {paper_id!r}"
            )
        if citations > _MAX_CITATIONS:
            raise CorpusValidationError(
                position, f"citations_5y must be at most 2**53 in {paper_id!r}"
            )
    return paper_id


# The JSON scanner recurses once per array or object level, so without a
# bound of its own a line's validity would depend on how much of Python's
# recursion limit the caller's stack has left. A record nests two levels.
_MAX_DEPTH = 500
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _nested_too_deep(line: str) -> bool:
    """Whether the brackets outside strings nest deeper than ``_MAX_DEPTH``."""
    if line.count("[") + line.count("{") <= _MAX_DEPTH:
        return False
    steps = (_NESTING.get(char, 0) for char in _STRING.sub("", line))
    return max(accumulate(steps), default=0) > _MAX_DEPTH


def _decode_line(lineno: int, line: str) -> object:
    # The exact path, for the lines orjson or the schema check rejected.
    # Lines are read with errors="surrogateescape", so an undecodable byte
    # is a lone surrogate that cannot re-encode. isascii() is O(1).
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusValidationError(lineno, "invalid UTF-8") from None
    # A line no longer than the bound cannot nest deeper than it.
    if len(line) > _MAX_DEPTH and _nested_too_deep(line):
        raise CorpusValidationError(lineno, f"invalid JSON: nested deeper than {_MAX_DEPTH} levels")
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # also the int-digit limit
        raise CorpusValidationError(lineno, f"invalid JSON: {exc}") from None


def _check_escapes(position: int, raw: dict) -> None:
    # A JSON \u escape can decode to a lone surrogate, which no UTF-8
    # output accepts; a valid surrogate pair decodes to one character.
    try:
        for text in (raw["id"], *raw["authors"], *raw["topics"]):
            text.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusValidationError(position, "invalid UTF-8") from None


def _duplicate_id(paper_id: str) -> str:
    return f"duplicate paper id {paper_id!r}"


def _check_records(
    lines: Iterable[str], numbers: Iterator[int] | None = None, seen: set[str] | None = None
) -> Iterator[dict | CorpusValidationError]:
    """Yield each JSONL record in order, as its checked object or as the error rejecting it.

    Records are numbered by physical line; blank lines are skipped but
    counted. Each stripped line no deeper than ``_MAX_DEPTH`` is decoded by
    ``orjson.loads`` and checked against the schema. A line that is too
    deep, or that ``orjson`` or the schema check rejects, is decided again
    by ``_decode_line`` (``json.loads``) and the schema check: ``orjson``
    rejects ``NaN``, ``Infinity``, numbers beyond a double, lone-surrogate
    escapes and surrogate-escaped bytes, which ``json.loads`` accepts, and
    turns some integers wider than 64 bits into floats, which the schema
    rejects as a year or citation count. So every accepted record and every
    reason is the one the standard library's decoder gives. Only a line
    holding a ``\\u`` escape can decode to a lone surrogate, so only those
    lines are searched for one.

    Each line read takes its number from ``numbers`` (1, 2, ... by default),
    and each accepted id is added to ``seen`` (a new set by default); a caller
    that passes its own learns from them how many lines were read and which
    ids were accepted.
    """
    # imported here, so commands that never read a corpus never load it
    import orjson

    loads = orjson.loads
    if seen is None:
        seen = set()
    for line, position in zip(lines, count(1) if numbers is None else numbers):
        if not (line := line.strip()):
            continue
        try:
            try:
                # orjson accepts up to 1,024 levels, so a line deeper than
                # the bound goes to _decode_line, which words its reason
                if len(line) > _MAX_DEPTH and _nested_too_deep(line):
                    raise ValueError
                raw = loads(line)
                paper_id = _check_record(position, raw)
            except ValueError:  # orjson.JSONDecodeError or CorpusValidationError
                raw = _decode_line(position, line)
                paper_id = _check_record(position, raw)
            if "\\u" in line:
                _check_escapes(position, raw)
            # one hash per id: an id already seen leaves the set's size as it was
            accepted = len(seen)
            seen.add(paper_id)
            if len(seen) == accepted:
                raise CorpusValidationError(position, _duplicate_id(paper_id))
        except CorpusValidationError as exc:
            yield exc
            continue
        yield raw


def load_corpus(path: str | Path, strict: bool = True) -> Corpus:
    """Check every record of a JSONL file and build an indexed corpus.

    In strict mode the first invalid record aborts the load; in lenient
    mode invalid records are skipped with a logged warning and counted in
    ``Corpus.skipped``. Record order is preserved.

    Records that repeat an author, a topic, a topic set, a year or an author
    list as written share one object for it. The tables that find those
    objects are dropped before the author index is built.

    Each record is made by ``object.__new__`` and filled through the slot
    setters in ``_RECORD_SETTERS``, bound once per load; it is equal to, and
    hashes like, the ``PaperRecord`` built from the same fields.
    """
    new = object.__new__
    set_id, set_year, set_authors, set_topics, set_citations = _RECORD_SETTERS
    papers: list[PaperRecord] = []
    skipped = 0
    # One object per distinct author, topic, topic set and year, shared by
    # every record that repeats it: a corpus repeats a few hundred topics and
    # years across all its records, and most authors across several records.
    # Each topic set is keyed only by its sorted tuple of distinct topics. A
    # list written that way finds its tuple in one lookup; any other spelling
    # misses, is sorted and de-duplicated, and finds or adds that tuple.
    shared: dict = {}
    share = shared.setdefault
    # One tuple per distinct author list, in the order written, built from the
    # shared names: a team that publishes again repeats its list. Kept apart
    # from ``shared``, where a topic list written in that order would find the
    # unsorted author tuple.
    teams: dict = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for item in _check_records(handle):
            if isinstance(item, CorpusValidationError):
                if strict:
                    raise item
                skipped += 1
                log.warning("skipping invalid record: %s", item)
                continue
            topics = tuple(item["topics"])
            if (kept := shared.get(topics)) is None:
                kept = tuple(sorted(set(map(share, topics, topics))))
                kept = share(kept, kept)
            year = item["year"]
            authors = item["authors"]
            team = tuple(map(share, authors, authors))
            team = teams.setdefault(team, team)
            paper = new(PaperRecord)
            set_id(paper, item["id"])
            set_year(paper, share(year, year))
            set_authors(paper, team)
            set_topics(paper, kept)
            set_citations(paper, item.get("citations_5y"))
            papers.append(paper)
    del shared, share, teams
    # One lookup per authorship: an author's first paper stores an empty list,
    # which grows to four slots on its first append (a one-item list would
    # grow to eight), and every later paper finds that list.
    author_index: dict = {}
    find = author_index.get
    for paper in papers:
        for author in paper.authors:
            if (entries := find(author)) is None:
                entries = author_index[author] = []
            entries.append(paper)
    # Each list is replaced by its tuple as soon as it is sorted, so the lists
    # and the tuples of the whole index never coexist.
    for author, entries in author_index.items():
        entries.sort(key=_year_and_id)
        author_index[author] = tuple(entries)
    return Corpus(tuple(papers), author_index, skipped)


def validate_jsonl(path: str | Path) -> list[CorpusValidationError]:
    """Report every violation in a JSONL file, keyed by line number; builds no records.

    A regular file with a newline at or past the middle of its bytes, and
    before its last byte, is split just after that newline when
    ``fork.can_fork()`` holds. A forked worker then checks the lines after the
    split while this process checks those before it, each with its own
    duplicate-id check, and this process flags each id the worker accepted
    that it accepted too. The errors, their order and their line numbers are
    those of one process. Any other file is checked here, line by line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        from .fork import can_fork

        if can_fork():
            # compiled only here, so analyze and one-process validate never load it
            from . import halves

            split = halves.split_offset(handle.fileno())
            if split is not None:
                return halves.validate_in_two_processes(handle, split)
        return [e for e in _check_records(handle) if isinstance(e, CorpusValidationError)]


def write_corpus_jsonl(papers: Iterable[PaperRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for paper in papers:
            data = {"id": paper.id, "year": paper.year, "authors": list(paper.authors),
                    "topics": list(paper.topics)}
            if paper.citations_5y is not None:
                data["citations_5y"] = paper.citations_5y
            handle.write(json.dumps(data, sort_keys=True) + "\n")


def _window_bounds(
    entries: Sequence[PaperRecord], year: int, window_years: int
) -> tuple[int, int]:
    """Slice bounds of the year-sorted records in [year - window_years, year - 1]."""
    lo = bisect_left(entries, year - window_years, key=_year)
    return lo, bisect_left(entries, year, lo, key=_year)


def window_papers(
    corpus: Corpus, author: str, year: int, window_years: int
) -> tuple[PaperRecord, ...]:
    """Records the author published in [year - window_years, year - 1].

    Unknown authors yield an empty tuple. Results are sorted by (year, id).
    """
    entries = corpus.author_index.get(author, ())
    lo, hi = _window_bounds(entries, year, window_years)
    return entries[lo:hi]


def prior_window(corpus: Corpus, author: str, year: int, window_years: int) -> list[str]:
    """Ids of ``window_papers``, in the same order."""
    return [paper.id for paper in window_papers(corpus, author, year, window_years)]


def select_analysis_set(corpus: Corpus, config: AnalysisConfig) -> set[str]:
    """Ids of papers satisfying all four selection constraints.

    (i) year inside the configured range; (ii) at least min_citations
    5-year citations (records without a count are excluded); (iii) at
    least min_authors authors; (iv) every author has at least one paper
    in the window_years years before publication.

    These are the papers of ``_analysis_papers_by_year``, the one selection walk.
    """
    return {paper.id for papers in _analysis_papers_by_year(corpus, config).values()
            for paper in papers}


def _analysis_papers_by_year(
    corpus: Corpus, config: AnalysisConfig
) -> dict[int, list[PaperRecord]]:
    """The records satisfying the selection constraints of ``select_analysis_set``,
    grouped by year from one walk over the corpus: the years in the order
    their first selected record comes, and each year's records in corpus order.

    Constraint (iv) costs one bisection per author: the first of the author's
    year-sorted records at or after ``year - window_years`` must come before ``year``.
    """
    start, end = config.year_range
    min_citations = config.min_citations
    min_authors = config.min_authors
    window_years = config.window_years
    find = corpus.author_index.get
    papers_by_year: dict[int, list[PaperRecord]] = {}
    for paper in corpus.papers:
        year = paper.year
        if not start <= year <= end:
            continue
        citations = paper.citations_5y
        if citations is None or citations < min_citations:
            continue
        authors = paper.authors
        if len(authors) < min_authors:
            continue
        first = year - window_years
        for author in authors:
            entries = find(author, ())
            lo = bisect_left(entries, first, key=_year)
            if lo == len(entries) or entries[lo].year >= year:
                break
        else:
            papers_by_year.setdefault(year, []).append(paper)
    return papers_by_year
