"""Worker-local stage cache: init-once-per-worker WITHOUT actor pools.

Ray reuses worker processes across tasks, so a module-level cache gives a
plain ``map_batches(fn)`` TASK stage the same init-once guarantee as an
actor pool — minus the pool's spawn+import latency (~10s for a 32-pool on
this box, BASELINE.md). Use for CHEAP state (compiled regexes, stopword
sets, the span extractor). An actor pool is the shape for genuinely
expensive state (models, external processes), which no stage here holds.
This is the package's one worker-state cache: extraction, curation,
dedup, ANN and the media stages all use it.
"""

from __future__ import annotations

_CACHE: dict = {}
# bounded: distinct kwargs (e.g. a fresh ray.put ObjectRef per IVF query)
# would otherwise accumulate instances — and pin their plasma objects —
# for the worker's lifetime
_MAX_ENTRIES = 8


def worker_cached(cls, /, **kwargs):
    """→ a batch fn holding a worker-local ``cls(**kwargs)`` instance.
    ``kwargs`` must be hashable (they key the cache)."""
    key = (cls.__module__, cls.__qualname__, tuple(sorted(kwargs.items())))

    def fn(batch):
        # resolve the cache through the module at CALL time: cloudpickle
        # pickles closures by value and would otherwise snapshot the
        # driver's _CACHE contents into every serialized task fn
        from paper2table_ray.stages import workercache as _wc

        cache = _wc._CACHE
        inst = cache.get(key)
        if inst is None:
            while len(cache) >= _MAX_ENTRIES:
                cache.pop(next(iter(cache)))  # evict oldest (dicts are ordered)
            inst = cache[key] = cls(**kwargs)
        return inst(batch)

    return fn
