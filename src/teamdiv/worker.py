"""The two-process path of ``report.compute_paper_metrics``.

The analysis years are split into two sets of near-equal authorships. One
forked worker scores one set while the calling process scores the other,
and the worker sends its metrics back through a pipe; the fork, the pipe
and the error forwarding are ``fork.in_two_processes``, which
``halves.validate_in_two_processes`` calls too. A vector keyed (author, Y) is read only
by papers of year Y, so neither process needs a vector the other builds, and
the worker sends none: a caller that keeps every vector scores in one process.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter

from .corpus import PaperRecord
from .diversity import PaperDiversity, categorize
from .fork import in_two_processes


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


def score_in_two_processes(
    score: Callable[[Iterable[int]], list[PaperDiversity]],
    papers_by_year: dict[int, list[PaperRecord]],
) -> list[PaperDiversity]:
    """``score`` over every year, with one forked worker scoring a set of years.

    The worker sends its metrics through a pipe as one frame: one column of
    ints, floats and None per sent field, in its scoring order. This process
    rebuilds the rows from its own records. Errors and the worker's end are
    handled as ``fork.in_two_processes`` says.
    """
    theirs, mine = _split_years(papers_by_year)
    metrics, (columns,) = in_two_processes(
        lambda: _worker_results(score, theirs), lambda: score(mine)
    )
    papers = [paper for year in theirs for paper in papers_by_year[year]]
    for paper, n_authors, pairs, largest, components, excluded in zip(papers, *columns, strict=True):
        metrics.append(
            PaperDiversity(
                paper.id, n_authors, pairs, largest, components, categorize(components), excluded
            )
        )
    return metrics


def _worker_results(
    score: Callable[[Iterable[int]], list[PaperDiversity]], years: list[int]
) -> Iterator[list]:
    """What the worker sends: its metrics as columns, in one frame."""
    rows = score(years)
    yield [list(map(attrgetter(name), rows)) for name in _SENT_FIELDS]
