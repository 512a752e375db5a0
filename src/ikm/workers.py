"""The rows of ``ikm sweep`` on every usable CPU, in forked worker processes.

:func:`map_rows` is ``[fn(item) for item in items]`` dealt over one process
per usable CPU.  A fork copies the caller's objects as they are, operator
and instance included, so a worker needs no pickled arguments and no fresh
import, and each row is the same run on the same objects as in one
process: the results do not depend on the number of processes.  Only the
results, or the exception that stopped a worker, are pickled back.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, List, Optional

# prctl(2) option: the signal a process gets when its parent dies
PR_SET_PDEATHSIG = 1


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a sweep worker,
    attached as the cause of the exception the parent re-raises."""

    def __str__(self) -> str:
        return self.args[0]


def _run_rows(fn, items, first: int, width: int, parent: Optional[int] = None) -> List[tuple]:
    """``(i, True, fn(items[i]))`` for ``i = first, first + width, ...``, up to
    and including the first ``(i, False, exception)``.  In a worker,
    ``parent`` is the pid of the process that forked it: at each row
    boundary a worker whose parent has died stops."""
    done = []
    for i in range(first, len(items), width):
        if parent is not None and os.getppid() != parent:
            break
        try:
            done.append((i, True, fn(items[i])))
        except Exception as exc:
            done.append((i, False, exc))
            break
    return done


def _worker(fn, items, first: int, width: int, parent: int, wfd: int) -> None:
    """The body of a forked worker: its rows, pickled into the pipe ``wfd``,
    a failed row's exception with its formatted traceback, which pickling
    drops.  It never returns; ``os._exit`` skips the stdio flushes, atexit
    handlers and test-runner teardown that belong to the parent."""
    try:
        try:
            import ctypes
            # Linux: the kernel kills this process when the parent dies
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            libc.prctl.restype = ctypes.c_int
            libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        except (OSError, AttributeError):
            pass  # no prctl: the row-boundary check alone
        done = _run_rows(fn, items, first, width, parent)
        if done and not done[-1][1]:
            import traceback
            i, _, exc = done[-1]
            done[-1] = (i, False, (exc, "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))))
        # pickled whole before the write, so that a row that does not pickle
        # sends nothing rather than part of the rows
        data = pickle.dumps(done)
        with open(wfd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def map_rows(fn: Callable, items: List) -> List:
    """``[fn(item) for item in items]`` on ``W`` processes.

    ``W`` is the number of usable CPUs (``os.sched_getaffinity``), at most
    ``len(items)``, and 1 where the platform cannot fork or report its CPUs
    or where the process runs other threads, which a fork would not copy.
    The caller forks ``W - 1`` workers: worker ``w`` runs items ``w, w + W,
    ...`` and sends their results back through a pipe, and the caller runs
    items ``0, W, ...`` itself, item 0 first.  Each call acts on the objects
    as they were before the first fork, so every result is what the
    sequential loop gives.  When items raise, the lowest-index one's
    exception is raised, as the sequential loop would raise it, with a
    worker's formatted traceback as its cause.  Every worker is reaped, or
    killed and reaped, before this returns or raises, and a worker dies
    with its parent.
    """
    width = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        width = max(1, min(len(os.sched_getaffinity(0)), len(items)))
    parent = os.getpid()
    workers = {}  # pid -> the read end of its pipe
    try:
        for first in range(1, width):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                _worker(fn, items, first, width, parent, wfd)
            os.close(wfd)
            workers[pid] = open(rfd, "rb")
        done = _run_rows(fn, items, 0, width)
        for pid, fh in list(workers.items()):
            data = fh.read()
            fh.close()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if not data:
                raise RuntimeError(f"sweep worker {pid} ended (wait status {status}) "
                                   "before it sent its rows")
            for i, ok, value in pickle.loads(data):
                if not ok:
                    value, text = value
                    value.__cause__ = _WorkerTraceback(text)
                done.append((i, ok, value))
    finally:
        for pid, fh in workers.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(i, value) for i, ok, value in done if not ok]
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    results = [None] * len(items)
    for i, _, value in done:
        results[i] = value
    return results
