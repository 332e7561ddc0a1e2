"""Retired prediction-score cache: LRU mechanics, and that nothing uses it."""

from __future__ import annotations

import pytest

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.scheduler.workload import TaskRequest
from repro.serving.cache import PredictionScoreCache


def make_request(task_id="t0", gops=100.0, cores=2, weight=0.5) -> TaskRequest:
    return TaskRequest(
        task_id=task_id,
        arrival_s=0.0,
        workload=WorkloadKind.DNN_INFERENCE,
        gops=gops,
        cores=cores,
        memory_gib=1.0,
        energy_weight=weight,
    )


class TestLruMechanics:
    def test_hit_miss_stats(self):
        cache = PredictionScoreCache(capacity=4)
        key = cache.key_for(make_request(), ["a", "b"], 0.5)
        assert cache.get(key) is None
        cache.put(key, ("score",))
        assert cache.get(key) == ("score",)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_capacity_evicts_least_recently_used(self):
        cache = PredictionScoreCache(capacity=2)
        k1 = cache.key_for(make_request(gops=10.0), ["a"], 0.5)
        k2 = cache.key_for(make_request(gops=1000.0), ["a"], 0.5)
        k3 = cache.key_for(make_request(gops=100000.0), ["a"], 0.5)
        cache.put(k1, (1,))
        cache.put(k2, (2,))
        cache.get(k1)  # refresh k1 so k2 is LRU
        cache.put(k3, (3,))
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats.evictions == 1

    def test_clear(self):
        cache = PredictionScoreCache(capacity=2)
        cache.put(cache.key_for(make_request(), ["a"], 0.5), (1,))
        cache.clear()
        assert len(cache) == 0


class TestKeying:
    def test_nearby_gops_share_a_bucket(self):
        cache = PredictionScoreCache(gops_bucket_ratio=1.25)
        base = cache.key_for(make_request(gops=100.0), ["a", "b"], 0.5)
        near = cache.key_for(make_request(gops=102.0), ["a", "b"], 0.5)
        far = cache.key_for(make_request(gops=200.0), ["a", "b"], 0.5)
        assert base == near
        assert base != far

    def test_key_distinguishes_shape_weight_and_candidates(self):
        cache = PredictionScoreCache()
        base = cache.key_for(make_request(), ["a", "b"], 0.5)
        assert base != cache.key_for(make_request(cores=4), ["a", "b"], 0.5)
        assert base != cache.key_for(make_request(), ["a", "b"], 0.9)
        assert base != cache.key_for(make_request(), ["a"], 0.5)

    def test_buckets_are_uniformly_geometric_below_one(self):
        cache = PredictionScoreCache(gops_bucket_ratio=1.25)
        # 0.81 and 1.24 are ~1.53x apart: more than one ratio, so they must
        # not share a bucket (int() truncation used to merge them).
        assert cache.gops_bucket(0.81) != cache.gops_bucket(1.24)
        assert cache.gops_bucket(1.0) == cache.gops_bucket(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionScoreCache(capacity=0)
        with pytest.raises(ValueError):
            PredictionScoreCache(gops_bucket_ratio=1.0)


class TestDetached:
    """The cache is retired: importable, callable, attached to nothing."""

    def test_traced_methods_stay_plain_methods(self):
        # The serving benchmark's tracer wraps these class attributes by
        # name; they must exist and be plain functions.
        for attribute in ("key_for", "get", "put"):
            assert callable(PredictionScoreCache.__dict__[attribute])

    def test_scheduler_takes_no_cache(self, heterogeneous_cluster):
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        with pytest.raises(TypeError):
            HeatsScheduler(models, score_cache=PredictionScoreCache())

    def test_with_learned_models_takes_no_cache(self, heterogeneous_cluster):
        with pytest.raises(TypeError):
            HeatsScheduler.with_learned_models(
                heterogeneous_cluster, seed=3, score_cache=PredictionScoreCache()
            )

    def test_only_the_cache_module_exports_it(self):
        import repro.serving
        import repro.serving.cache

        for name in ("CacheStats", "PredictionScoreCache"):
            assert hasattr(repro.serving.cache, name)
            assert not hasattr(repro.serving, name)
            assert name not in repro.serving.__all__
