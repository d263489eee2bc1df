"""Optional utterance-level worker pool.

The PADAUG_THREADS environment variable caps the number of worker threads;
unset or 1 means serial execution, and anything but an integer >= 1 is an
InvalidConfigError. The pool never has more threads than CPUs or items.
Work items must be independent (each carries its own derived seed), so
parallel and serial runs produce identical results and output order always
matches input order.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidConfigError


def worker_count() -> int:
    raw = os.environ.get("PADAUG_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise InvalidConfigError(f"PADAUG_THREADS must be an integer >= 1, got {raw!r}")
    return n


def worker_map(fn, items):
    """Map fn over items, preserving order; threaded when configured."""
    items = list(items)
    n = min(worker_count(), os.cpu_count() or 1, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
