import os
import signal
import sys
import threading
import time

import pytest

from calibmix import parallel


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
    return request.param


def test_results_come_in_order(workers):
    # later blocks finish first, and the map still yields in block order
    def block(i):
        time.sleep(0.002 * (5 - i % 5))
        return i * i
    assert list(parallel.thread_map(block, range(12))) == [i * i for i in range(12)]


def test_one_block_runs_in_the_calling_thread(workers):
    threads = list(parallel.thread_map(lambda _: threading.current_thread(), [0]))
    assert threads == [threading.current_thread()]


def test_a_failing_block_raises_when_reached(workers):
    def block(i):
        if i == 3:
            raise ValueError("block 3")
        return i
    got = []
    with pytest.raises(ValueError, match="block 3"):
        for v in parallel.thread_map(block, range(8)):
            got.append(v)
    assert got == [0, 1, 2]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity API on this platform")
def test_cpu_count_is_the_affinity_set():
    assert 1 <= parallel.cpu_count() == len(os.sched_getaffinity(0))


def sleepy_square(i):
    time.sleep(0.001)
    return i * i


def test_the_calling_thread_runs_blocks(workers):
    # with helpers too, the caller pulls blocks rather than waits
    def block(i):
        time.sleep(0.002)
        return threading.current_thread()
    threads = set(parallel.thread_map(block, range(16)))
    assert threading.current_thread() in threads
    assert len(threads) <= workers


def test_calls_start_no_threads(workers, monkeypatch):
    # the helpers come from one pool, made by the first call; a fresh one
    # here, whose threads that call all starts
    monkeypatch.setattr(parallel, "_pool", None)
    assert list(parallel.thread_map(sleepy_square, range(8))) == [
        i * i for i in range(8)]
    count, threads = threading.active_count(), set(threading.enumerate())
    for _ in range(50):
        list(parallel.thread_map(sleepy_square, range(8)))
    assert threading.active_count() <= count
    assert set(threading.enumerate()) <= threads


def test_a_pool_smaller_than_the_call_keeps_its_size(monkeypatch):
    # a pool made at 2 workers has one thread; a call at 3 workers queues
    # its second helper behind the first, and the pool is not replaced
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    assert list(parallel.thread_map(sleepy_square, range(4))) == [0, 1, 4, 9]
    pool = parallel._pool
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    lock, running, runs = threading.Lock(), [0], []

    def block(i):
        with lock:
            running[0] += 1
            runs.append(i)
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return i * i
    try:
        got = list(parallel.thread_map(block, range(40)))
        assert running[0] == 0
        time.sleep(0.02)
        assert got == [i * i for i in range(40)]
        assert sorted(runs) == list(range(40))
        assert parallel._pool is pool
    finally:
        pool.shutdown()


def test_a_cpu_set_shrunk_before_the_pool_is_made(monkeypatch):
    # the call counts 2 CPUs, the pool's maker 1: the pool still gets the
    # one thread the call asks for
    counts = iter([2])
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "cpu_count", lambda: next(counts, 1))
    try:
        assert list(parallel.thread_map(sleepy_square, range(4))) == [0, 1, 4, 9]
        assert parallel._pool._max_workers == 1
    finally:
        parallel._pool.shutdown()


def run_within(seconds, fn):
    """fn() on a daemon thread, which must finish within ``seconds``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the call did not finish"
    return out[0]


def test_a_call_inside_a_block_finishes(workers):
    # the inner call's helpers may wait in the pool's queue behind the
    # outer blocks; its caller runs its blocks meanwhile
    def outer(i):
        return sum(parallel.thread_map(sleepy_square, range(i, i + 6)))
    got = run_within(30.0, lambda: list(parallel.thread_map(outer, range(5))))
    assert got == [sum(j * j for j in range(i, i + 6)) for i in range(5)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_blocks_on_a_pool_of_its_own(workers):
    # the parent's pool threads do not exist in the child, which makes its
    # own pool: its blocks run on more than one thread where workers do
    assert list(parallel.thread_map(sleepy_square, range(8))) == [
        i * i for i in range(8)]

    def block(i):
        time.sleep(0.002)
        return threading.get_ident()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            threads = set(parallel.thread_map(block, range(16)))
            code = 0 if len(threads) >= min(workers, 2) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done, "the child did not finish"
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("stop", ["consumer", "error"])
def test_no_block_runs_once_the_call_ends(workers, stop):
    # a consumer that leaves, or a failing block, ends the call: the blocks
    # running finish before control returns, and no block starts after
    lock, running, started = threading.Lock(), [0], [0]

    def block(i):
        with lock:
            running[0] += 1
            started[0] += 1
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        if i == 5 and stop == "error":
            raise ValueError("block 5")
        return i
    blocks = parallel.thread_map(block, range(40))
    if stop == "consumer":
        assert [next(blocks), next(blocks)] == [0, 1]
        blocks.close()
    else:
        with pytest.raises(ValueError, match="block 5"):
            list(blocks)
    assert running[0] == 0
    seen = started[0]
    time.sleep(0.02)
    assert started[0] == seen < 40


def test_every_block_runs_once_under_rapid_switching(workers):
    # the shared counter hands out each index once, however often the
    # interpreter switches threads between its steps
    runs = []

    def block(i):
        runs.append(i)
        return i
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_within(60.0, lambda: [
            list(parallel.thread_map(block, range(500))) for _ in range(10)])
    finally:
        sys.setswitchinterval(interval)
    assert got == [list(range(500))] * 10
    assert sorted(runs) == sorted(list(range(500)) * 10)
