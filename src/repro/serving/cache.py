"""The retired LRU prediction-score cache, kept only for the benchmark.

It memoised ranked :class:`~repro.scheduler.heats.NodeScore` lists under
keys that bucketed work and energy weight, so a hit could return a
ranking made for a different request, and on large clusters it was
slower than scoring.  HEATS scoring is now exact and nothing in the
serving stack attaches this class.  The module exists only for the
serving benchmark's ``cache`` layer (``perfbench/layers.py``), which
wraps :meth:`PredictionScoreCache.key_for`, ``get`` and ``put`` by name,
so those remain plain methods; the traced ``cache.*`` metrics read 0.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from repro.scheduler.workload import TaskRequest

CacheKey = Tuple[Hashable, ...]


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PredictionScoreCache:
    """Bounded LRU map from (task kind, shape, load) keys to ranked scores."""

    def __init__(
        self,
        capacity: int = 4096,
        gops_bucket_ratio: float = 1.25,
        weight_buckets: int = 20,
    ) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if gops_bucket_ratio <= 1.0:
            raise ValueError("gops bucket ratio must exceed 1")
        if weight_buckets <= 0:
            raise ValueError("weight buckets must be positive")
        self.capacity = capacity
        self._log_ratio = math.log(gops_bucket_ratio)
        self.weight_buckets = weight_buckets
        self._entries: "OrderedDict[CacheKey, Tuple[object, ...]]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def gops_bucket(self, gops: float) -> int:
        """Geometric bucket index: requests within ~one ratio share a bucket."""
        # floor, not int(): truncation toward zero would make the buckets
        # around gops=1 double-width and break the one-ratio error bound.
        return math.floor(math.log(max(gops, 1e-9)) / self._log_ratio)

    def key_for(
        self,
        request: TaskRequest,
        candidate_names: Sequence[str],
        energy_weight: float,
    ) -> CacheKey:
        return (
            request.workload,
            request.cores,
            self.gops_bucket(request.gops),
            int(energy_weight * self.weight_buckets),
            tuple(candidate_names),
        )

    # ------------------------------------------------------------------ #
    # LRU mechanics
    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> Optional[Tuple[object, ...]]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: CacheKey, scores: Sequence[object]) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = tuple(scores)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries
