import json
import os
import tempfile
from pathlib import Path

import pytest

from teamdiv.corpus import load_corpus, write_corpus_jsonl
from teamdiv.diversity import paper_diversity


def record(pid, year, authors, topics, citations=None):
    data = {"id": pid, "year": year, "authors": list(authors), "topics": list(topics)}
    if citations is not None:
        data["citations_5y"] = citations
    return data


def load_records(records, strict=True):
    """Write records as JSONL to a temporary file and load it as the CLI does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return load_corpus(path, strict=strict)


def load_papers(papers):
    """Write PaperRecords as the synth command does and load them as the CLI does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_corpus_jsonl(papers, path)
        return load_corpus(path)


def pair_distance(u, v):
    """Cosine distance of two expertise vectors: a two-member team's max distance."""
    return paper_diversity("p", [u, v], 0.3).max_distance


@pytest.fixture
def small_corpus():
    """Three analysis candidates on top of per-author backfill papers."""
    records = [
        # backfill: every analysis author has window coverage
        record("w1", 2011, ["alice"], ["ml"]),
        record("w2", 2012, ["bob"], ["ml", "nlp"]),
        record("w3", 2010, ["carol"], ["hci"]),
        record("w4", 2012, ["dave"], ["db"]),
        # analysis candidates
        record("p1", 2013, ["alice", "bob"], ["ml"], citations=3),
        record("p2", 2014, ["alice", "carol"], ["ml", "hci"], citations=12),
        record("p3", 2015, ["bob", "dave"], ["nlp", "db"], citations=160),
        # excluded: single author
        record("p4", 2013, ["alice"], ["ml"], citations=50),
        # excluded: no citation count
        record("p5", 2013, ["alice", "bob"], ["ml"]),
    ]
    return load_records(records)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes this process see n CPUs it may run on. With one,
    ``compute_paper_metrics`` scores every year in this process, where a spy
    patched in by the test sees each call; with two it forks a worker, unless
    the caller passes a ``profiles`` dict."""

    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return see


@pytest.fixture
def forks(monkeypatch):
    """The list of forks made while the test runs, one entry each, seen by the parent."""
    made = []
    real_fork = os.fork

    def fork():
        made.append("fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made
