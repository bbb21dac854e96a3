"""Fixed blocks of work on every CPU the process may use.

The Monte Carlo engine (row blocks of its uniform matrix) and the mixture
laws (point blocks of their abscissae) split their work into blocks fixed
by the input alone, never by the machine, so their results are the same
bits on any number of CPUs.  numpy's ufuncs and BLAS and scipy.special's
kernels release the GIL, so threads overlap in the arithmetic.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor


def cpu_count() -> int:
    """CPUs this process may run on: the most block workers worth starting."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity API on this platform
        return os.cpu_count() or 1


def thread_map(fn, items, most=None):
    """fn(item) for each item, yielded in order, on a pool of up to
    cpu_count() threads and at most ``most`` (a cap set by the blocks'
    memory), while the caller waits; one block, or one worker, runs in the
    caller's thread.  Each block runs in a copy of the caller's context, so
    it sees the caller's ``np.errstate`` (numpy 2 keeps it in a context
    variable, which a pool thread would not inherit).  An exception in a
    block is raised when its result is reached, and the blocks not yet
    started are cancelled."""
    items = list(items)
    workers = min(len(items), most or len(items), cpu_count())
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item)
                   for item in items]
        try:
            yield from (future.result() for future in futures)
        finally:
            for future in futures:
                future.cancel()
