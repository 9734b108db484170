"""The two-process path of ``corpus.validate_jsonl``.

A regular file is split just after the first newline at or past its middle
byte. One forked worker checks the lines after the split while the calling
process checks those before it, and the fork, the pipe and the error
forwarding are ``fork.in_two_processes``. ``validate_jsonl`` imports this
module only when ``fork.can_fork()`` holds, so ``analyze`` and a
one-process ``validate`` never compile it.
"""
from __future__ import annotations

import codecs
import io
import os
import stat
from array import array
from collections.abc import Iterator
from itertools import chain, count
from typing import TextIO

from .corpus import CorpusValidationError, _check_records, _duplicate_id
from .fork import in_two_processes

_CHUNK_BYTES = 1 << 16


def split_offset(fd: int) -> int | None:
    """The offset just past the first newline at or after the middle of a
    regular file, or None when the file is not regular or no such newline
    comes before its last byte.

    A newline byte ends a line in universal-newline mode, and no UTF-8
    sequence holds one, so the split falls on a line boundary.
    """
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    offset = info.st_size // 2
    while chunk := os.pread(fd, _CHUNK_BYTES, offset):
        if (found := chunk.find(b"\n")) >= 0:
            split = offset + found + 1
            return split if split < info.st_size else None
        offset += len(chunk)
    return None


def _head_lines(fd: int, end: int) -> Iterator[list[str]]:
    """The lines of an open file before byte ``end``, which follows a newline,
    a chunk's worth at a time and without their line ends, as a text file in
    universal-newline mode reads them. Reads with ``os.pread``, which leaves
    the file offset a forked worker shares untouched."""
    decoder = io.IncrementalNewlineDecoder(_utf8_decoder("surrogateescape"), translate=True)
    partial = ""
    offset = 0
    while offset < end and (chunk := os.pread(fd, min(_CHUNK_BYTES, end - offset), offset)):
        offset += len(chunk)
        lines = (partial + decoder.decode(chunk)).split("\n")
        partial = lines.pop()
        yield lines


_utf8_decoder = codecs.getincrementaldecoder("utf-8")


def validate_in_two_processes(handle: TextIO, split: int) -> list[CorpusValidationError]:
    """``validate_jsonl`` with the lines after byte ``split`` checked by a forked worker."""
    numbers = count(1)
    seen: set[str] = set()

    def check_head() -> list[CorpusValidationError]:
        checked = _check_records(chain.from_iterable(_head_lines(handle.fileno(), split)),
                                 numbers, seen)
        return [e for e in checked if isinstance(e, CorpusValidationError)]

    errors, ((positions, reasons), id_positions, *id_frames) = in_two_processes(
        lambda: _check_tail(handle, split), check_head
    )
    lines_before = next(numbers) - 1
    tail = list(zip(positions, reasons))
    if not all(map(seen.isdisjoint, id_frames)):
        # an id accepted in both halves is a duplicate at its line after the split
        ids = chain.from_iterable(id_frames)
        tail.extend(
            (position, _duplicate_id(paper_id))
            for paper_id, position in zip(ids, memoryview(id_positions).cast("q"))
            if paper_id in seen
        )
        tail.sort()
    errors.extend(CorpusValidationError(lines_before + p, reason) for p, reason in tail)
    return errors


# ids per frame the worker sends, so this process never holds them all as bytes
_IDS_PER_FRAME = 1 << 14


def _check_tail(handle: TextIO, split: int) -> Iterator[object]:
    """In the worker: check the lines after byte ``split``, counting the first
    as line 1. Yields the positions and reasons of their errors, then the
    positions of the records accepted there as 64-bit ints, then those
    records' ids, ``_IDS_PER_FRAME`` at a time."""
    handle.seek(split)
    line = [0]  # the number of the line read last, so of the record yielded last

    def numbers() -> Iterator[int]:
        for line[0] in count(1):
            yield line[0]

    positions: list[int] = []
    reasons: list[str] = []
    ids: list[str] = []
    id_positions = array("q")
    for item in _check_records(handle, numbers()):
        if isinstance(item, CorpusValidationError):
            positions.append(item.position)
            reasons.append(item.reason)
        else:
            ids.append(item["id"])
            id_positions.append(line[0])
    yield positions, reasons
    yield id_positions.tobytes()
    for i in range(0, len(ids), _IDS_PER_FRAME):
        yield ids[i : i + _IDS_PER_FRAME]
