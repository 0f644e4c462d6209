"""A small thread-safe LRU cache for forecast results.

Forecasts are pure functions of ``(state version, horizon)``, so between
two observations every repeated request can be answered without touching
the model. Deliberately tiny: an ``OrderedDict`` under a lock. The
engine counts hits itself (``serve/cache_hits``), which is what
``/metrics`` exposes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default=None):
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
