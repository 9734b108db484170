"""Running work in two processes: one forked worker and the calling process.

``can_fork`` is the one gate, and ``in_two_processes`` the one fork: scoring
(``worker.score_in_two_processes``) and validation
(``halves.validate_in_two_processes``) both call them. This module imports
nothing from the package, so ``corpus`` can import it to ask ``can_fork``
before it imports ``halves``.
"""
from __future__ import annotations

import gc
import marshal
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from typing import BinaryIO, NoReturn, TypeVar

T = TypeVar("T")


def can_fork() -> bool:
    """Whether a caller may fork a worker: two CPUs this process may run on
    (``os.sched_getaffinity``), ``os.fork``, and no thread but this one, which
    is the only one a forked child would keep. ``taskset -c 0`` makes it false."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        hasattr(os, "fork")
        and affinity is not None
        and len(affinity(0)) >= 2
        and threading.active_count() == 1
    )


def in_two_processes(
    theirs: Callable[[], Iterable[object]], mine: Callable[[], T]
) -> tuple[T, list]:
    """``mine()`` in this process while a forked worker computes ``theirs()``.

    Returns what ``mine`` returned and the list of the worker's results, each
    a value ``marshal`` writes. The worker computes all its results before it
    writes any, so it never blocks on a full pipe while this process is still
    working. An exception in the worker is raised here with its own type, after
    ``mine`` has returned; one that does not pickle, or a worker that dies,
    is raised as ``ChildProcessError``, whose message names the signal or the
    exit status and says how to run in one process. On any error or interrupt
    here the worker is killed; it is always reaped before this returns.

    When ``os.fork`` raises ``OSError`` (``BlockingIOError`` at a process
    limit, say), nothing has run yet, so this process computes ``mine()`` and
    then ``theirs()`` itself.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        result = mine()
        return result, list(theirs())
    if pid == 0:
        os.close(read_end)
        _run_worker(write_end, theirs)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            result = mine()
            failed = pipe.read(1) == b"\1"
            received = [frame if failed else marshal.loads(frame) for frame in _frames(pipe)]
            _, status = os.waitpid(pid, 0)
            pid = 0
        finally:
            if pid:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed:
        import pickle

        raise pickle.loads(received[0])
    if os.waitstatus_to_exitcode(status) != 0 or not received:
        raise ChildProcessError(_no_result(status))
    return result, received


def _no_result(status: int) -> str:
    """Why a worker whose wait status is ``status`` sent no result, and what to do."""
    if os.WIFSIGNALED(status):
        import signal

        number = os.WTERMSIG(status)
        try:
            how = f"was killed by {signal.Signals(number).name}"
        except ValueError:
            how = f"was killed by signal {number}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return (
        f"the worker process {how} before it sent its results; "
        "to run in one process, rerun pinned to one CPU with `taskset -c 0`"
    )


def _run_worker(write_end: int, results: Callable[[], Iterable[object]]) -> NoReturn:
    """In the forked worker: write a 0 byte and each result as a frame, or a 1
    byte and the pickled exception that computing them raised, and leave
    through ``os._exit`` with that byte as the exit status. So the worker never
    returns into its caller and never flushes inherited stdio.

    A frame is a result's ``marshal`` bytes, itself marshalled: reading it back
    costs ``_frames`` one read, where ``marshal.load`` of the result would read
    once per value.
    """
    code = 1
    try:
        gc.disable()
        try:
            frames, status = [marshal.dumps(result) for result in results()], 0
        except BaseException as exc:
            import pickle

            # an exception that does not pickle leaves the pipe empty
            frames, status = [pickle.dumps(exc)], 1
        with open(write_end, "wb") as pipe:
            pipe.write(bytes([status]))
            for frame in frames:
                marshal.dump(frame, pipe)
        code = status
    finally:
        os._exit(code)


def _frames(pipe: BinaryIO) -> Iterator[bytes]:
    """The frames ``_run_worker`` wrote, up to the end of the pipe."""
    while True:
        try:
            yield marshal.load(pipe)
        except EOFError:
            return
