"""The two-process path of ``report.compute_paper_metrics``.

The analysis years are split into two sets of near-equal authorships. One
forked worker scores one set while the calling process scores the other,
and the worker sends its results back through a pipe; the fork, the pipe
and the error forwarding are ``fork.in_two_processes``, which
``halves.validate_in_two_processes`` calls too. A vector keyed (author, Y) is read only
by papers of year Y, so neither process needs a vector the other builds.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter

from .corpus import PaperRecord
from .diversity import PaperDiversity, categorize
from .expertise import ExpertiseVector
from .fork import in_two_processes


def authorships(
    papers_by_year: dict[int, list[PaperRecord]], years: Iterable[int]
) -> Iterator[tuple[str, int]]:
    """The (author, year) key of each authorship of the given years, in scoring order."""
    for year in years:
        for paper in papers_by_year[year]:
            for author in paper.authors:
                yield author, year


def _split_years(papers_by_year: dict[int, list[PaperRecord]]) -> tuple[list[int], list[int]]:
    """Two sets of years with near-equal authorships: the heaviest year first,
    each year into the set that is lighter so far."""
    weight = {
        year: sum(len(paper.authors) for paper in papers)
        for year, papers in papers_by_year.items()
    }
    sets: tuple[list[int], list[int]] = ([], [])
    totals = [0, 0]
    for year in sorted(weight, key=weight.__getitem__, reverse=True):
        lighter = int(totals[1] < totals[0])
        sets[lighter].append(year)
        totals[lighter] += weight[year]
    return sets


# the fields of PaperDiversity a worker sends, in order: all but the id, which
# the parent takes from its own record, and the category, which follows from n_components
_SENT_FIELDS = ("n_authors", "pair_count", "max_distance", "n_components", "excluded_authors")
# vectors per frame a worker sends, so the parent never holds them all as bytes
_VECTORS_PER_FRAME = 4096


def score_in_two_processes(
    score: Callable[[Iterable[int]], list[PaperDiversity]],
    papers_by_year: dict[int, list[PaperRecord]],
    profiles: dict[tuple[str, int], ExpertiseVector] | None,
) -> list[PaperDiversity]:
    """``score`` over every year, with one forked worker scoring a set of years.

    The worker sends its metrics through a pipe as one column of ints, floats
    and None per sent field, in its scoring order, and this process rebuilds
    the rows from its own records. When the caller passed ``profiles``, the
    worker also sends the entries of the vectors it built, in the order it built
    them, and this process stores them under the keys of those years it still
    lacks, taken in the same order. Errors and the worker's end are handled
    as ``fork.in_two_processes`` says.
    """
    theirs, mine = _split_years(papers_by_year)
    metrics, received = in_two_processes(
        lambda: _worker_results(score, theirs, papers_by_year, profiles), lambda: score(mine)
    )
    columns, *vector_frames = received
    papers = [paper for year in theirs for paper in papers_by_year[year]]
    for paper, n_authors, pairs, largest, components, excluded in zip(papers, *columns, strict=True):
        metrics.append(
            PaperDiversity(
                paper.id, n_authors, pairs, largest, components, categorize(components), excluded
            )
        )
    if profiles is not None:
        entries = (entries for frame in vector_frames for entries in frame)
        for key in authorships(papers_by_year, theirs):
            if key not in profiles:
                profiles[key] = ExpertiseVector(next(entries))
    return metrics


def _worker_results(
    score: Callable[[Iterable[int]], list[PaperDiversity]],
    years: list[int],
    papers_by_year: dict[int, list[PaperRecord]],
    profiles: dict[tuple[str, int], ExpertiseVector] | None,
) -> Iterator[list]:
    """What the worker sends: its metrics as columns, then the entries of the
    vectors it built, ``_VECTORS_PER_FRAME`` at a time."""
    # the keys scoring adds to the caller's dict, in the order it adds them
    built = [] if profiles is None else list(dict.fromkeys(
        key for key in authorships(papers_by_year, years) if key not in profiles
    ))
    rows = score(years)
    yield [list(map(attrgetter(name), rows)) for name in _SENT_FIELDS]
    for i in range(0, len(built), _VECTORS_PER_FRAME):
        yield [profiles[key].entries for key in built[i : i + _VECTORS_PER_FRAME]]

