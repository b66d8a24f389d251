"""Deterministic serial/process-pool mapping for independent work items."""

import os
from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, workers):
    """Map ``fn`` over ``items`` preserving order; fork workers when ``workers > 1``.

    At most ``min(workers, os.cpu_count(), len(items))`` processes start.
    Results depend only on the items, never on scheduling.
    """
    items = list(items)
    workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
