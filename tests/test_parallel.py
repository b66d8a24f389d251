import pytest

from mbpre import _parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.started = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    return RecordingPool.started


@pytest.mark.parametrize(
    "workers, n_items, expected",
    [(64, 10, 4), (3, 10, 3), (8, 2, 2), (10**6, 100, 4)],
)
def test_worker_count_clamped(pool, workers, n_items, expected):
    assert _parallel.parallel_map(abs, range(-n_items, 0), workers) == list(
        range(n_items, 0, -1)
    )
    assert pool == [expected]


@pytest.mark.parametrize("workers, n_items", [(1, 10), (0, 10), (8, 1)])
def test_serial_when_one_worker_suffices(pool, workers, n_items):
    assert _parallel.parallel_map(abs, [-1] * n_items, workers) == [1] * n_items
    assert pool == []
