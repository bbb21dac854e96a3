"""Fixed blocks of work on every CPU the process may use.

The Monte Carlo engine (row blocks of its uniform matrix) and the mixture
laws (point blocks of their abscissae) split their work into blocks fixed
by the input alone, never by the machine, so their results are the same
bits on any number of CPUs.  numpy's ufuncs and BLAS and scipy.special's
kernels release the GIL, so threads overlap in the arithmetic.

A call's blocks are pulled, one index at a time, from a shared counter by
the calling thread and by up to cpu_count() - 1 helper threads of one
``ThreadPoolExecutor`` per process.  The pool is made on first need with
cpu_count() - 1 threads (at least the helpers that first call asks for)
and keeps that size for the process's life (a process whose CPU set grows
later runs on the threads it has); a forked child, whose copy of it has no
threads, makes its own.  A block costs a lock and a counter step, not a
``Future`` and a wake-up of the caller, and the caller waits only for a
block that a helper is still running once no block is left to start.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# the process's helper pool, made on first need
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """In a forked child: the parent's pool threads do not exist here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def cpu_count() -> int:
    """CPUs this process may run on: the most block workers worth starting."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity API on this platform
        return os.cpu_count() or 1


def _start_helpers(work, n):
    """``work`` submitted n times to the process's pool, made by the first
    call with cpu_count() - 1 threads (n at least, should the CPU set have
    shrunk since that call counted it) and never resized: helpers past its
    threads wait behind busy ones, to find no block left or be cancelled.
    A submission the pool refuses (the interpreter exiting) is left out:
    the caller runs the blocks."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(n, cpu_count() - 1),
                                       thread_name_prefix="calibmix-block")
        pool = _pool
    futures = []
    for _ in range(n):
        try:
            futures.append(pool.submit(work))
        except RuntimeError:
            break
    return futures


class _Blocks:
    """The blocks of one ``thread_map`` call: the next index to start, how
    many run, each done block's (value, error), and whether to start no
    more (a block failed, or the consumer left)."""

    def __init__(self, fn, items):
        self._fn, self._items = fn, items
        self._context = contextvars.copy_context()
        self._cond = threading.Condition()
        self._next = self._running = 0
        self._stopped = False
        self._out = [None] * len(items)

    def _take(self):
        """The next block's index, counted as running, or None."""
        with self._cond:
            i = self._next
            if self._stopped or i == len(self._items):
                return None
            self._next, self._running = i + 1, self._running + 1
            return i

    def _run(self, i):
        try:
            done = (self._context.copy().run(self._fn, self._items[i]), None)
        except BaseException as exc:
            done = (None, exc)
        with self._cond:
            self._out[i] = done
            self._running -= 1
            self._stopped |= done[1] is not None
            self._cond.notify()

    def work(self):
        """A helper's share: blocks until none is left to start."""
        while (i := self._take()) is not None:
            self._run(i)

    def result(self, i):
        """Block i's value, or its error raised: the calling thread runs the
        blocks left to start until block i is done, then waits for it."""
        while self._out[i] is None:
            j = self._take()
            if j is None:
                with self._cond:
                    self._cond.wait_for(lambda: self._out[i] is not None)
            else:
                self._run(j)
        value, error = self._out[i]
        self._out[i] = (None, None)         # the consumer holds the value now
        if error is not None:
            raise error
        return value

    def stop(self):
        """Start no further block, and wait until none runs."""
        with self._cond:
            self._stopped = True
            self._cond.wait_for(lambda: self._running == 0)


def thread_map(fn, items, most=None):
    """fn(item) for each item, yielded in order, on the calling thread and up
    to cpu_count() - 1 helper threads, with at most ``most`` blocks (a cap
    set by the blocks' memory) running at once; a single block, or a single
    worker, runs in the caller's thread alone.  Each result is yielded once
    its block and every earlier one are done.  Each block runs in a copy of
    the caller's context, so it sees the caller's ``np.errstate`` (numpy 2
    keeps it in a context variable, which a pool thread would not inherit).
    An exception in a block is raised when its result is reached, and no
    block starts after it fails.  When the consumer stops early or the
    error is raised, the blocks still running finish before control
    returns, and so do the helpers that started: none is left working on
    the call."""
    items = list(items)
    workers = min(len(items), most or len(items), cpu_count())
    if workers <= 1:
        yield from map(fn, items)
        return
    blocks = _Blocks(fn, items)
    helpers = _start_helpers(blocks.work, workers - 1)
    try:
        for i in range(len(items)):
            yield blocks.result(i)
    finally:
        blocks.stop()
        for helper in helpers:          # one still queued never starts
            if not helper.cancel():
                helper.result()
