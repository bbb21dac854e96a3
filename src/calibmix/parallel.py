"""Fixed blocks of work on every CPU the process may use.

The Monte Carlo engine (row blocks of its uniform matrix) and the mixture
laws (point blocks of their abscissae) split their work into blocks fixed
by the input alone, never by the machine, so their results are the same
bits on any number of CPUs.  ``thread_map`` runs those blocks on up to
``cpu_count()`` threads, the calling thread among them: numpy's ufuncs and
BLAS and scipy.special's kernels release the GIL, so the threads overlap
in the arithmetic.  A map of one block starts no thread.  Each block runs
in a copy of the caller's context, so it sees the caller's ``np.errstate``
(numpy 2 keeps it in a context variable, which a new thread would not
inherit).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import Future, ThreadPoolExecutor


def cpu_count() -> int:
    """CPUs this process may run on: the most block workers worth starting."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity API on this platform
        return os.cpu_count() or 1


def _run_here(fn, item):
    """fn(item) in the calling thread, as a finished Future."""
    done = Future()
    try:
        done.set_result(fn(item))
    except Exception as exc:
        done.set_exception(exc)
    return done


def thread_map(fn, items, most=None):
    """fn(item) for each item, yielded in order, on up to cpu_count()
    workers and at most ``most`` (a cap set by the blocks' memory).

    The calling thread is one of the workers: while the result it is to
    yield next is still running, it takes the first block no other worker
    has started.  So a map on w workers starts w - 1 threads, and no more
    than w blocks run at once.  An exception in a block is
    raised when its result is reached, and the blocks not yet started are
    dropped."""
    items = list(items)
    workers = min(len(items), most or len(items))
    if workers > 1:
        workers = min(workers, cpu_count())
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        try:
            steal = 0
            for i in range(len(items)):
                steal = max(steal, i)
                while not futures[i].done() and steal < len(items):
                    if futures[steal].cancel():      # not started: run it here
                        futures[steal] = _run_here(fn, items[steal])
                    steal += 1
                yield futures[i].result()
        finally:
            for future in futures:
                future.cancel()
