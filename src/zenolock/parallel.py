"""The map of a survival-curve sweep, kept only for the benchmark's tracer.

Every sweep runs its cycle times in order on the calling thread.  Both
names stay only because perfbench's tracer wraps ``parallel_map`` (sized by
``thread_limit``) to time the sweep; the module goes once the tracer no
longer requires it.
"""


def thread_limit() -> int:
    """One worker: the tracer sizes its map span by this."""
    return 1


def parallel_map(fn, items, max_workers: int | None = None) -> list:
    """``[fn(item) for item in items]``; ``max_workers`` is the tracer's signature, unused."""
    return [fn(item) for item in items]
