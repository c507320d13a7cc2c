"""Tests for batching and weight-program caching (repro.runtime.scheduler).

Requests reach the scheduler through its owning session, so the
batching tests drive a hand-flushed :class:`PhotonicSession` and read
the scheduler's ledger (``session.scheduler.stats()``).
"""

import numpy as np
import pytest

from repro.api import FlushPolicy, PhotonicSession
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError
from repro.runtime.scheduler import BatchScheduler, WeightProgramCache


@pytest.fixture()
def scheduler(tech):
    return BatchScheduler(rows=4, columns=6, technology=tech,
                          cache_capacity=2, max_batch=8)


@pytest.fixture()
def session(tech):
    return PhotonicSession(grid=(4, 6), technology=tech, cache_capacity=2,
                           max_batch=8, flush_policy=FlushPolicy.explicit())


def _weights(seed):
    return np.random.default_rng(seed).integers(0, 8, (4, 6))


def test_lru_eviction_order():
    cache = WeightProgramCache(capacity=2)
    cache.put(b"a", "A")
    cache.put(b"b", "B")
    assert cache.get(b"a") == "A"          # refresh a: order is now [b, a]
    evicted = cache.put(b"c", "C")
    assert evicted == "B"
    assert cache.keys() == [b"a", b"c"]
    assert cache.get(b"b") is None
    assert cache.evictions == 1
    assert cache.hits == 1 and cache.misses == 1


def test_requests_coalesce_into_batches(session):
    rng = np.random.default_rng(0)
    w1, w2 = _weights(1), _weights(2)
    for _ in range(5):
        session.submit(w1, rng.uniform(0.0, 1.0, 6))
    for _ in range(3):
        session.submit(w2, rng.uniform(0.0, 1.0, 6))
    assert session.pending == 8
    assert session.flush() == 8
    stats = session.scheduler.stats()
    # One batch per weight program, not one evaluation per request.
    assert stats.batches == 2
    assert stats.cache_misses == 2 and stats.cache_hits == 0
    assert session.pending == 0


def test_max_batch_chunks_large_groups(session):
    rng = np.random.default_rng(4)
    w = _weights(3)
    for _ in range(20):
        session.submit(w, rng.uniform(0.0, 1.0, 6))
    session.flush()
    stats = session.scheduler.stats()
    assert stats.batches == 3  # 8 + 8 + 4
    assert stats.samples == 20
    assert 0.0 < stats.batch_fill <= 1.0


def test_results_match_direct_device_evaluation(session, tech):
    rng = np.random.default_rng(6)
    w = _weights(5)
    inputs = [rng.uniform(0.0, 1.0, 6) for _ in range(4)]
    futures = [session.submit(w, x, gain=1.5) for x in inputs]
    assert not any(future.done for future in futures)
    session.flush()
    reference = PhotonicTensorCore(rows=4, columns=6, technology=tech)
    reference.load_weight_matrix(w)
    for future, x in zip(futures, inputs):
        assert future.done
        expected = reference.matvec(x, gain=1.5)
        assert np.array_equal(future.codes, expected.codes)
        assert np.allclose(future.value, expected.estimates)


def test_cache_hits_skip_weight_restreaming(session):
    rng = np.random.default_rng(8)
    w = _weights(7)
    session.submit(w, rng.uniform(0.0, 1.0, 6))
    session.flush()
    first = session.scheduler.stats()
    assert first.weight_energy_spent > 0.0
    assert first.weight_energy_saved == 0.0

    session.submit(w, rng.uniform(0.0, 1.0, 6))
    session.flush()
    second = session.scheduler.stats()
    assert second.cache_hits == 1
    # The hit spends nothing new and is credited with the avoided load.
    assert second.weight_energy_spent == first.weight_energy_spent
    assert second.weight_energy_saved == pytest.approx(first.weight_energy_spent)
    assert second.weight_time_saved > 0.0


def test_distinct_gains_do_not_share_batches(session):
    rng = np.random.default_rng(9)
    w = _weights(11)
    x = rng.uniform(0.0, 1.0, 6)
    low = session.submit(w, x, gain=1.0)
    high = session.submit(w, x, gain=2.0)
    session.flush()
    stats = session.scheduler.stats()
    assert stats.batches == 2
    # Same program though: one miss, one hit.
    assert stats.cache_misses == 1 and stats.cache_hits == 1
    assert np.all(high.codes >= low.codes)


def test_eviction_makes_program_recompile(session):
    rng = np.random.default_rng(10)
    programs = [_weights(seed) for seed in (21, 22, 23)]
    for w in programs:  # capacity is 2: the first program gets evicted
        session.submit(w, rng.uniform(0.0, 1.0, 6))
        session.flush()
    assert session.scheduler.stats().cache_evictions == 1
    session.submit(programs[0], rng.uniform(0.0, 1.0, 6))
    session.flush()
    stats = session.scheduler.stats()
    assert stats.cache_misses == 4 and stats.cache_hits == 0


def test_cache_hit_rate_math():
    cache = WeightProgramCache(capacity=1)
    assert cache.hit_rate == 0.0
    cache.put(b"a", "A")
    assert cache.get(b"a") == "A"
    assert cache.get(b"b") is None
    assert cache.get(b"a") == "A"
    assert cache.hit_rate == pytest.approx(2 / 3)
    assert cache.hits == 2 and cache.misses == 1


def test_evicted_program_recompiles_and_respends_energy(session):
    """Evict -> resubmit must pay the pSRAM streaming again: the energy
    ledger only credits true cache hits, and the hit-rate math counts
    the post-eviction recompile as a miss."""
    rng = np.random.default_rng(41)
    a, b, c = (_weights(seed) for seed in (41, 42, 43))

    session.submit(a, rng.uniform(0.0, 1.0, 6))
    session.flush()
    first_load = session.scheduler.stats().weight_energy_spent
    assert first_load > 0.0

    session.submit(a, rng.uniform(0.0, 1.0, 6))
    session.flush()
    hit = session.scheduler.stats()
    assert hit.cache_hits == 1
    assert hit.weight_energy_spent == first_load            # hit spends nothing
    assert hit.weight_energy_saved == pytest.approx(first_load)

    # Capacity is 2: loading b then c evicts a (LRU).
    for w in (b, c):
        session.submit(w, rng.uniform(0.0, 1.0, 6))
        session.flush()
    assert session.scheduler.stats().cache_evictions == 1
    spent_before_resubmit = session.scheduler.stats().weight_energy_spent

    session.submit(a, rng.uniform(0.0, 1.0, 6))             # recompile a
    session.flush()
    stats = session.scheduler.stats()
    assert stats.cache_misses == 4 and stats.cache_hits == 1
    assert stats.cache_evictions == 2                       # re-adding a evicts again
    # The energy is spent *again* — eviction really costs a reload.
    assert stats.weight_energy_spent > spent_before_resubmit
    # Saved energy is untouched by the recompile (no new hit).
    assert stats.weight_energy_saved == pytest.approx(first_load)
    # Hit-rate math: 1 hit over 5 lookups, on both ledgers.
    assert stats.cache_hit_rate == pytest.approx(1 / 5)
    assert session.scheduler.cache.hit_rate == pytest.approx(1 / 5)


def test_analog_accounting_uses_performance_model(session):
    rng = np.random.default_rng(12)
    w = _weights(13)
    for _ in range(3):
        session.submit(w, rng.uniform(0.0, 1.0, 6))
    session.flush()
    stats = session.scheduler.stats()
    period = 1.0 / session.performance.sample_rate
    assert stats.analog_time == pytest.approx(3 * period)
    assert stats.analog_energy == pytest.approx(
        3 * period * session.performance.total_power
    )
    assert stats.total_latency > stats.analog_time  # includes weight streaming
    assert stats.total_energy > stats.analog_energy


def test_submit_validation(session):
    good = _weights(14)
    with pytest.raises(ConfigurationError, match=r"\(2, 2, 2\)"):
        session.submit(np.zeros((2, 2, 2), dtype=int), np.ones(6) * 0.5)
    with pytest.raises(ConfigurationError, match=r"\[0, 7\]"):
        session.submit(np.full((4, 6), 9), np.ones(6) * 0.5)
    with pytest.raises(ConfigurationError, match=r"\(3,\)"):
        session.submit(good, np.ones(3) * 0.5)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        session.submit(good, np.ones(6) * 1.5)
    # NaN fails every comparison: the range check must still reject it.
    nan_x = np.ones(6) * 0.5
    nan_x[3] = np.nan
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        session.submit(good, nan_x)
    # Non-integral weights are rejected, not truncated.
    with pytest.raises(ConfigurationError, match="integers"):
        session.submit(np.minimum(good, 6) + 0.7, np.ones(6) * 0.5)
    with pytest.raises(ConfigurationError, match="gain"):
        session.submit(good, np.ones(6) * 0.5, gain=-1.0)
    assert session.pending == 0
    assert session.scheduler.stats().requests == 0


def test_submitted_arrays_are_snapshotted(session, tech):
    """Mutating the caller's arrays between submit and flush must not
    poison the program cache or the queued inputs."""
    weights = np.ones((4, 6), dtype=int)
    x = np.full(6, 0.5)
    future = session.submit(weights, x)
    weights[:] = 7  # caller reuses its buffers
    x[:] = 0.0
    session.flush()
    reference = PhotonicTensorCore(rows=4, columns=6, technology=tech)
    reference.load_weight_matrix(np.ones((4, 6), dtype=int))
    expected = reference.matvec(np.full(6, 0.5))
    assert np.array_equal(future.codes, expected.codes)
    # A later all-ones submit must hit a program compiled from ones.
    clean = session.submit(np.ones((4, 6), dtype=int), np.full(6, 0.5))
    session.flush()
    assert np.array_equal(clean.codes, expected.codes)
    assert session.scheduler.stats().cache_hits == 1


def test_stats_snapshot_is_detached(scheduler):
    snapshot = scheduler.stats()
    snapshot.requests = 999
    assert scheduler.stats().requests == 0


def test_cache_capacity_validation():
    with pytest.raises(ConfigurationError):
        WeightProgramCache(capacity=0)
    with pytest.raises(ConfigurationError):
        BatchScheduler(rows=2, columns=2, max_batch=0)
