import os
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


def test_most_caps_the_blocks_in_flight(workers):
    lock, running, peak = threading.Lock(), [0], [0]

    def block(i):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.005)
        with lock:
            running[0] -= 1
        return i
    assert list(parallel.thread_map(block, range(8), most=2)) == list(range(8))
    assert peak[0] <= min(2, workers)


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
