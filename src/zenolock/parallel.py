"""Deterministic, bounded thread parallelism.

ZENOLOCK_THREADS caps the worker count for every parallel sweep in the
package.  Work items are always mapped to results in submission order, so the
numerical output is bit-identical no matter how many threads run, and every
item runs under the caller's numpy floating-point error settings.

The one caller, the survival-curve sweep of zeno2 and zeno4, runs on a
pool only when it has two or more cycle times and a pair basis of at least
``cli._POOL_MIN_DIMENSION`` states, which only a zeno4 sweep from
photon_number = 40 reaches; any other map is a plain loop on the calling
thread, and ``concurrent.futures`` is imported only when a pool is built.
"""

import os

import numpy as np

_ENV_VAR = "ZENOLOCK_THREADS"


def thread_limit() -> int:
    raw = os.environ.get(_ENV_VAR, "")
    try:
        value = int(raw)
    except ValueError:
        return os.cpu_count() or 1
    return max(1, value)


def parallel_map(fn, items, max_workers: int | None = None) -> list:
    """Map preserving item order; falls back to a plain loop for one worker."""
    items = list(items)
    workers = min(max_workers or thread_limit(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    settings = np.geterr()

    def task(item):
        # a pool thread starts with numpy's default error settings
        with np.errstate(**settings):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))
