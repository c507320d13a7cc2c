"""Tests for the elastic fleet subsystem (repro.elastic): the
content-addressed ProgramStore and its warm-start round trips, the
incremental consistent-hash ring, the Autoscaler policy, and the
cluster integration (scale up/down, heterogeneous capability routing,
fleet telemetry, traffic-engine membership refresh)."""

import gc
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from repro.api import (
    FlushPolicy,
    HashRing,
    PhotonicCluster,
    PhotonicSession,
    RoutingPolicy,
)
from repro.elastic import (
    Autoscaler,
    CoreSpec,
    FleetSnapshot,
    ProgramStore,
    core_fingerprint,
)
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import (
    ConfigurationError,
    CorruptProgramError,
    StaleProgramError,
)
from repro.health import DriftState, LaserPowerDecay, TiaGainDrift
from repro.telemetry import MetricsRegistry, ModelClock, TraceRecorder
from repro.runtime.tiling import TiledMatmul
from repro.traffic import Poisson, TrafficEngine, WorkloadMix

GRID = (4, 6)


def fresh_session(tech, store, **kwargs):
    return PhotonicSession(grid=GRID, technology=tech, program_store=store,
                           **kwargs)


def session_fingerprint(session):
    return core_fingerprint(
        session.technology,
        session.rows,
        session.columns,
        session.core.weight_bits,
        session.core.row_adcs[0].bits,
    )


@pytest.fixture()
def store(tmp_path):
    return ProgramStore(tmp_path / "programs")


def sealed(header, payload, store_format=3):
    """``header`` (a dict, or raw bytes) and ``payload`` as one entry
    file with a valid checksum: the documented first line, the blake2b
    of every byte after it, then the header line and the payload."""
    if isinstance(header, dict):
        header = json.dumps(header).encode()
    body = header + b"\n" + payload
    checksum = hashlib.blake2b(body, digest_size=16).hexdigest()
    return f"repro-program-store {store_format} {checksum}\n".encode() + body


class TestProgramStoreRoundTrip:
    def test_dense_round_trip_bit_for_bit(self, tech, store):
        rng = np.random.default_rng(7)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        cold = fresh_session(tech, store)
        expected = cold.submit(weights, x).result()
        assert store.saves == 1 and store.restores == 0

        warm = fresh_session(tech, store)
        restored = warm.submit(weights, x).result()
        assert np.array_equal(expected, restored)
        assert store.restores == 1
        # Re-serving the restored program skips the (same-epoch) save.
        assert store.save_skips >= 1 or store.saves == 1

    def test_conv_round_trip_bit_for_bit(self, tech, store):
        rng = np.random.default_rng(11)
        kernels = rng.random((2, 3, 3))
        image = rng.random((6, 6))
        cold = fresh_session(tech, store)
        expected = cold.submit_conv(kernels, image).result()
        assert store.saves >= 1

        warm = fresh_session(tech, store)
        restored = warm.submit_conv(kernels, image).result()
        assert np.array_equal(expected, restored)
        assert store.restores >= 1

    def test_drift_compensated_round_trip(self, tech, store):
        rng = np.random.default_rng(3)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        models = lambda: (LaserPowerDecay(rate_per_s=1e-2),
                          TiaGainDrift(drift_per_s=-8e-4))
        drift_a = DriftState(models())
        aged = fresh_session(tech, store, drift=drift_a)
        aged.age(30.0)
        aged.recalibrate()
        assert drift_a.epoch == 1
        store.save_calibration("slot", drift_a)
        expected = aged.submit(weights, x).result()

        # A replacement core adopts the persisted calibration record,
        # then restores the epoch-1 program bit-for-bit.
        drift_b = DriftState(models())
        assert store.apply_calibration("slot", drift_b)
        assert drift_b.epoch == drift_a.epoch
        assert drift_b.elapsed_s == pytest.approx(30.0)
        assert drift_b.compensation.current_scale == pytest.approx(
            drift_a.compensation.current_scale
        )
        replacement = fresh_session(tech, store, drift=drift_b)
        restored = replacement.submit(weights, x).result()
        assert np.array_equal(expected, restored)
        assert store.restores >= 1 and store.stale_rejects == 0

    def test_store_backed_session_is_freed_without_the_cycle_collector(
        self, tech, store
    ):
        """Regression: the caches' epoch/drift sources closed over the
        session, so every store-backed session was a reference cycle
        that lived until the next full garbage collection."""
        session = fresh_session(tech, store)
        session.submit(np.ones(GRID, dtype=int), np.full(GRID[1], 0.5)).result()
        alive = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert alive() is None
        finally:
            gc.enable()

    def test_calibration_record_absent_and_corrupt(self, tech, store):
        assert store.load_calibration("ghost") is None
        assert not store.apply_calibration("ghost", DriftState())
        store.save_calibration("slot", DriftState())
        store._calibration_path("slot").write_text("not json")
        with pytest.raises(CorruptProgramError, match="unreadable"):
            store.load_calibration("slot")
        assert store.corrupt_rejects == 1

    def test_calibration_record_keeps_its_format(self, store):
        """Records carry their own format number: a program-entry format
        change must not reject a record saved in the unchanged layout."""
        store._calibration_path("slot").write_text(json.dumps({
            "format": 2, "label": "slot", "epoch": 3, "elapsed_s": 30.0,
            "inferences": 12, "compensation": [0.5, 1.25, 0.002],
        }, indent=2) + "\n")
        state = DriftState()
        assert store.apply_calibration("slot", state)
        assert (state.epoch, state.elapsed_s, state.inferences) == (3, 30.0, 12)
        compensation = state.compensation
        assert (compensation.current_scale, compensation.gain_scale,
                compensation.voltage_offset) == (0.5, 1.25, 0.002)
        store.save_calibration("slot", state)
        assert json.loads(store._calibration_path("slot").read_text())["format"] == 2
        assert store.corrupt_rejects == 0


class TestProgramStoreRejections:
    def populate(self, tech, store):
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        session = fresh_session(tech, store)
        session.submit(weights, rng.random(GRID[1])).result()
        key = session.scheduler.cache.keys()[0]
        return session, key, session_fingerprint(session)

    def test_stale_epoch_is_typed(self, tech, store):
        session, key, fingerprint = self.populate(tech, store)
        assert store.load(key, fingerprint=fingerprint, epoch=0,
                          technology=tech) is not None
        with pytest.raises(StaleProgramError, match="epoch"):
            store.load(key, fingerprint=fingerprint, epoch=2, technology=tech)
        assert store.stale_rejects == 1

    def entry(self, store, key, fingerprint):
        """The path of one program's entry file, its header and its
        payload."""
        path = store.root / f"{store.digest(key, fingerprint)}.bin"
        _, header, payload = path.read_bytes().split(b"\n", 2)
        return path, json.loads(header), payload

    def test_corrupt_manifest_is_typed(self, tech, store):
        session, key, fingerprint = self.populate(tech, store)
        path, _, payload = self.entry(store, key, fingerprint)
        first_line = path.read_bytes().split(b"\n", 1)[0]
        # The checksum fails before the damaged header is parsed.
        path.write_bytes(first_line + b"\n{ not json\n" + payload)
        with pytest.raises(CorruptProgramError, match="unreadable"):
            store.load(key, fingerprint=fingerprint, epoch=0, technology=tech)
        assert store.corrupt_rejects == 1
        # With a valid checksum the header still does not parse.
        path.write_bytes(sealed(b"{ not json", payload))
        with pytest.raises(CorruptProgramError, match="unreadable header"):
            store.load(key, fingerprint=fingerprint, epoch=0, technology=tech)
        assert store.corrupt_rejects == 2

    def test_missing_arrays_are_corrupt(self, tech, store):
        session, key, fingerprint = self.populate(tech, store)
        path, header, _ = self.entry(store, key, fingerprint)
        path.write_bytes(sealed(header, b""))
        with pytest.raises(CorruptProgramError, match="payload"):
            store.load(key, fingerprint=fingerprint, epoch=0, technology=tech)
        assert store.corrupt_rejects == 1

    def test_serving_falls_back_to_recompile(self, tech, store):
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        session, key, fingerprint = self.populate(tech, store)
        expected = session.submit(weights, x).result()
        path, _, _ = self.entry(store, key, fingerprint)
        path.write_text("junk")

        fallback = fresh_session(tech, store)
        assert np.array_equal(expected, fallback.submit(weights, x).result())
        assert store.corrupt_rejects >= 1
        # The recompiled program overwrote the damaged entry.
        assert store.load(key, fingerprint=fingerprint, epoch=0,
                          technology=tech) is not None

    @pytest.mark.parametrize("damage", [
        "payload", "dense kind", "truncated payload", "flipped byte",
        "object dtype", "shape overrun", "format 1", "header scalar",
        "format 2",
    ])
    def test_entry_that_fails_to_load_is_overwritten(self, tech, store, damage):
        """Regression: a save skipped any entry whose manifest parsed at
        the same epoch, so one that still failed to load (a damaged
        payload, or a retired ``"dense"`` kind) was rejected by every
        fresh session and never rewritten.  A truncated ``.npz`` payload
        escaped as an untyped ``zipfile.BadZipFile``, so serving never
        fell back to a compile at all.  The format-2 manifest was not
        checksummed, so a changed header scalar (the TIA gain) restored
        silently and served other codes.  Damage to the raw bytes must
        fail the checksum; header damage under a valid checksum (a
        foreign writer) must fail the header and layout checks."""
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        session, key, fingerprint = self.populate(tech, store)
        expected = session.submit(weights, x).result()
        path, header, payload = self.entry(store, key, fingerprint)
        raw = path.read_bytes()
        if damage == "payload":
            path.write_bytes(raw[: len(raw) - len(payload)] + b"garbage")
        elif damage == "truncated payload":
            path.write_bytes(raw[: len(raw) - len(payload) // 2])
        elif damage == "flipped byte":
            data = bytearray(raw)
            data[len(data) - len(payload) // 2] ^= 1
            path.write_bytes(bytes(data))
        elif damage == "header scalar":
            header["meta"]["tile"]["tia_gain"] *= 1.37
            path.write_bytes(
                raw.split(b"\n", 1)[0] + b"\n" + json.dumps(header).encode()
                + b"\n" + payload
            )
        elif damage == "format 2":
            # Two files: a bare payload and a JSON manifest beside it.
            path.write_bytes(payload)
            path.with_suffix(".json").write_text(json.dumps({
                "format": 2, **header, "payload_bytes": len(payload),
                "payload_blake2b": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            }))
        else:
            if damage == "dense kind":
                header["kind"] = "dense"
            elif damage == "object dtype":
                header["arrays"][0][1] = "|O"
            elif damage == "shape overrun":
                header["arrays"][0][2][0] += 1
            path.write_bytes(
                # The .npz layout of store format 1 named arrays only.
                sealed({**header, "arrays": [row[0] for row in header["arrays"]]},
                       payload, store_format=1)
                if damage == "format 1" else sealed(header, payload)
            )
        saves = store.saves

        first = fresh_session(tech, store)
        assert np.array_equal(expected, first.submit(weights, x).result())
        assert store.corrupt_rejects == 1
        assert store.saves == saves + 1
        second = fresh_session(tech, store)
        assert np.array_equal(expected, second.submit(weights, x).result())
        assert store.corrupt_rejects == 1
        assert store.restores == 1

    def test_entry_that_cannot_be_opened_falls_back_to_compile(self, tech, store):
        """Regression: only a missing entry read as a miss, so an entry
        the store cannot open (a directory in its place) raised
        ``IsADirectoryError`` from every flush that needed the program,
        and the compile's write-through then failed on it as well.  A
        directory, not file modes: a superuser reads a mode-000 file."""
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        session, key, fingerprint = self.populate(tech, store)
        expected = session.submit(weights, x).result()
        path, _, _ = self.entry(store, key, fingerprint)
        path.unlink()
        path.mkdir()
        for loads in (1, 2):
            fresh = fresh_session(tech, store)
            assert np.array_equal(expected, fresh.submit(weights, x).result())
            assert store.corrupt_rejects == loads
            assert store.write_failures == loads
            # The compiled program stays in the LRU, so a repeat hits it.
            assert np.array_equal(expected, fresh.submit(weights, x).result())
            assert fresh.scheduler.cache.hits == 1
        assert path.is_dir()
        assert [entry.name for entry in store.root.iterdir()] == [path.name]

    def test_directory_in_an_entrys_place_is_not_an_entry(self, tech, store):
        """Regression: ``len`` counted every ``*.bin`` name, so a
        directory in an entry's place counted as an entry, and
        ``describe()`` printed neither misses nor write failures: a
        store that served nothing and wrote nothing described itself
        as one healthy entry."""
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        session, key, fingerprint = self.populate(tech, store)
        expected = session.submit(weights, x).result()
        path, _, _ = self.entry(store, key, fingerprint)
        assert len(store) == 1
        path.unlink()
        path.mkdir()
        fresh = fresh_session(tech, store)
        assert np.array_equal(expected, fresh.submit(weights, x).result())
        assert len(store) == 0
        assert (store.corrupt_rejects, store.write_failures) == (1, 1)
        assert store.describe() == (
            f"ProgramStore({store.root}, entries=0, saves={store.saves}, "
            f"restores=0, misses={store.misses}, stale=0, corrupt=1, "
            f"write_failures=1)"
        )

    def test_restored_program_is_not_written_back(self, tech, store):
        """Regression: every restore passed the program back to
        ``save``, which rebuilt its state and re-read the manifest only
        to skip the write."""
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, GRID)
        x = rng.random(GRID[1])
        session, _, _ = self.populate(tech, store)
        expected = session.submit(weights, x).result()
        saves, skips = store.saves, store.save_skips

        warm = fresh_session(tech, store)
        assert np.array_equal(expected, warm.submit(weights, x).result())
        assert store.restores == 1
        assert (store.saves, store.save_skips) == (saves, skips)

    def test_concurrent_writers_of_one_entry_do_not_collide(
        self, tech, tmp_path, monkeypatch
    ):
        """Regression: saves wrote through fixed temp names
        (``<digest>.npz.tmp``), so a second writer of the same entry
        renamed the first writer's temp file away and the first rename
        raised FileNotFoundError."""
        rng = np.random.default_rng(5)
        program = TiledMatmul(
            rng.integers(0, 8, GRID),
            PhotonicTensorCore(rows=GRID[0], columns=GRID[1], technology=tech),
        )
        first, second = ProgramStore(tmp_path), ProgramStore(tmp_path)
        rename = os.replace

        def interleaved_rename(source, target):
            # The second writer saves between the first writer's temp
            # write and its rename.
            monkeypatch.setattr(os, "replace", rename)
            second.save(b"key", program, fingerprint="abc")
            rename(source, target)

        monkeypatch.setattr(os, "replace", interleaved_rename)
        first.save(b"key", program, fingerprint="abc")
        assert first.saves == second.saves == 1
        digest = first.digest(b"key", "abc")
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{digest}.bin"]
        restored = ProgramStore(tmp_path).load(
            b"key", fingerprint="abc", epoch=0, technology=tech
        )
        batch = rng.random((GRID[1], 3))
        assert np.array_equal(restored.matmul(batch), program.matmul(batch))

    def test_unknown_program_type_rejected(self, store):
        with pytest.raises(ConfigurationError, match="persist"):
            store.save(b"key", object(), fingerprint="abc")

    def test_miss_is_none_not_error(self, tech, store):
        assert store.load(b"never-saved", fingerprint="abc", epoch=0,
                          technology=tech) is None
        assert store.misses == 1


class TestHashRing:
    KEYS = [f"program-{i}".encode() for i in range(400)]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="replica"):
            HashRing(replicas=0)
        with pytest.raises(ConfigurationError, match="no members"):
            HashRing().lookup(b"key")

    def test_lookup_is_deterministic_and_spreads(self):
        ring = HashRing(range(8))
        first = [ring.lookup(key) for key in self.KEYS]
        assert first == [ring.lookup(key) for key in self.KEYS]
        assert len(set(first)) == 8  # every member takes a share

    def test_incremental_add_matches_rebuild(self):
        grown = HashRing(range(5))
        grown.add(5)
        rebuilt = HashRing(range(6))
        assert grown.members == rebuilt.members == tuple(range(6))
        assert [grown.lookup(k) for k in self.KEYS] == \
               [rebuilt.lookup(k) for k in self.KEYS]
        grown.add(5)  # idempotent
        assert len(grown) == 6

    def test_incremental_remove_matches_rebuild(self):
        shrunk = HashRing(range(6))
        shrunk.remove(3)
        rebuilt = HashRing([0, 1, 2, 4, 5])
        assert shrunk.members == rebuilt.members
        assert [shrunk.lookup(k) for k in self.KEYS] == \
               [rebuilt.lookup(k) for k in self.KEYS]

    def test_allowed_filters_members(self):
        ring = HashRing(range(6))
        assert all(ring.lookup(k, allowed={2}) == 2 for k in self.KEYS[:20])
        with pytest.raises(ConfigurationError, match="no allowed member"):
            ring.lookup(b"key", allowed={99})

    def test_scale_up_keeps_at_least_90_percent(self):
        """The affinity regression: adding one member to a 16-core ring
        re-homes at most ~1/17 of keys (consistent hashing), far from
        the ~16/17 a modulo router would re-home."""
        ring = HashRing(range(16))
        before = {key: ring.lookup(key) for key in self.KEYS}
        ring.add(16)
        kept = sum(ring.lookup(key) == home for key, home in before.items())
        assert kept / len(self.KEYS) >= 0.90


class TestCoreSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="rows"):
            CoreSpec(rows=0)
        with pytest.raises(ConfigurationError, match="adc_bits"):
            CoreSpec(adc_bits=-1)

    def test_describe(self):
        assert CoreSpec().describe() == "default"
        assert CoreSpec(rows=16, columns=16, adc_bits=5).describe() == "16x16/a5"
        assert CoreSpec(adc_bits=7, weight_bits=4).describe() == "a7/w4"


class TestAutoscalerPolicy:
    def snapshot(self, **kwargs):
        base = dict(active_cores=2, pending=0, shed_delta=0, miss_delta=0,
                    now=10.0, last_scale_at=None)
        base.update(kwargs)
        return FleetSnapshot(**base)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="min_cores"):
            Autoscaler(min_cores=0)
        with pytest.raises(ConfigurationError, match="max_cores"):
            Autoscaler(min_cores=3, max_cores=2)
        with pytest.raises(ConfigurationError, match="watch_every"):
            Autoscaler(watch_every=0)
        with pytest.raises(ConfigurationError, match="hysteresis"):
            Autoscaler(scale_up_pending=1.0, scale_down_pending=1.0)
        with pytest.raises(ConfigurationError, match="tolerances"):
            Autoscaler(shed_tolerance=-1)
        with pytest.raises(ConfigurationError, match="cooldown"):
            Autoscaler(cooldown_s=-0.1)

    def test_overload_grows_until_max(self):
        policy = Autoscaler(min_cores=1, max_cores=3, scale_up_pending=8.0)
        assert policy.decide(self.snapshot(pending=16)) == 1
        assert policy.decide(self.snapshot(active_cores=3, pending=99)) == 0

    def test_shed_and_miss_deltas_force_growth(self):
        policy = Autoscaler(min_cores=1, max_cores=4)
        assert policy.decide(self.snapshot(shed_delta=1)) == 1
        assert policy.decide(self.snapshot(miss_delta=1)) == 1

    def test_quiet_shrinks_until_min(self):
        policy = Autoscaler(min_cores=1, max_cores=4, scale_down_pending=1.0)
        assert policy.decide(self.snapshot(pending=0)) == -1
        assert policy.decide(self.snapshot(active_cores=1, pending=0)) == 0

    def test_hysteresis_band_holds(self):
        policy = Autoscaler(scale_up_pending=8.0, scale_down_pending=1.0)
        assert policy.decide(self.snapshot(pending=8)) == 0  # 4/core

    def test_sheds_block_shrink(self):
        policy = Autoscaler(min_cores=1, max_cores=4, shed_tolerance=2)
        assert policy.decide(self.snapshot(pending=0, shed_delta=1)) == 0

    def test_cooldown_holds_but_floor_overrides(self):
        policy = Autoscaler(min_cores=2, max_cores=4, cooldown_s=5.0)
        cooling = self.snapshot(pending=99, now=12.0, last_scale_at=10.0)
        assert policy.decide(cooling) == 0
        assert policy.decide(self.snapshot(active_cores=1, now=12.0,
                                           last_scale_at=10.0)) == 1
        settled = self.snapshot(pending=99, now=16.0, last_scale_at=10.0)
        assert policy.decide(settled) == 1

    def test_describe(self):
        text = Autoscaler(min_cores=1, max_cores=4,
                          spec=CoreSpec(adc_bits=7)).describe()
        assert "autoscale[1..4]" in text and "a7" in text


class TestElasticCluster:
    def backlog(self, cluster, count, rng):
        weights = rng.integers(0, 8, GRID)
        for _ in range(count):
            cluster.submit(weights, rng.random(GRID[1]))

    def test_construction_validation(self, tech):
        with pytest.raises(ConfigurationError, match="autoscaler"):
            PhotonicCluster(cores=1, technology=tech, grid=GRID,
                            autoscaler="grow")
        with pytest.raises(ConfigurationError, match="program_store"):
            PhotonicCluster(cores=1, technology=tech, grid=GRID,
                            program_store="/tmp/store")
        with pytest.raises(ConfigurationError, match="core_specs"):
            PhotonicCluster(cores=2, technology=tech, grid=GRID,
                            core_specs=[CoreSpec()])

    def test_manual_scale_cycle_parks_and_unparks(self, tech):
        cluster = PhotonicCluster(cores=1, technology=tech, grid=GRID,
                                  flush_policy=FlushPolicy.explicit())
        # No recorder/registry attached: every scale event below must
        # run without touching telemetry (zero-overhead contract).
        assert cluster.telemetry is None
        grown = cluster.scale_up()
        assert grown == 1 and cluster.active_cores == (0, 1)
        assert cluster.membership_version == 1

        parked = cluster.scale_down()
        assert parked in (0, 1)
        assert cluster.parked == (parked,)
        assert len(cluster.active_cores) == 1
        # Parked slots are parked, not deleted: indices stay stable.
        assert cluster.cores == 2

        # Growth prefers unparking (warmest start) over adding a slot.
        assert cluster.scale_up() == parked
        assert cluster.parked == () and cluster.cores == 2
        report = cluster.report()
        assert report.scale_ups == 2 and report.scale_downs == 1

    def test_scale_down_refuses_last_active_core(self, tech):
        cluster = PhotonicCluster(cores=1, technology=tech, grid=GRID)
        assert cluster.scale_down() is None

    def test_autoscaler_grows_under_backlog_then_parks(self, tech):
        rng = np.random.default_rng(9)
        clock = ModelClock()
        cluster = PhotonicCluster(
            cores=1, technology=tech, grid=GRID,
            flush_policy=FlushPolicy.explicit(), clock=clock,
            autoscaler=Autoscaler(min_cores=1, max_cores=3, watch_every=2,
                                  scale_up_pending=4.0,
                                  scale_down_pending=1.0),
        )
        self.backlog(cluster, 12, rng)
        assert len(cluster.active_cores) == 3  # grew to max under backlog
        cluster.flush()
        clock.advance(1.0)

        # Light traffic with empty queues reads as quiet: park back down.
        for _ in range(8):
            self.backlog(cluster, 1, rng)
            cluster.flush()
        assert len(cluster.active_cores) == 1
        assert len(cluster.parked) == 2

        report = cluster.report()
        assert report.scale_ups >= 2 and report.scale_downs >= 2
        assert report.core_seconds > 0.0
        assert len(report.pending) == cluster.cores
        assert len(report.deadline_shed) == cluster.cores
        assert any("autoscaling" in line for line in report.lines())

    def test_scale_up_warm_starts_from_store(self, tech, tmp_path):
        rng = np.random.default_rng(13)
        store = ProgramStore(tmp_path / "fleet")
        cluster = PhotonicCluster(cores=1, technology=tech, grid=GRID,
                                  flush_policy=FlushPolicy.explicit(),
                                  program_store=store)
        weights = rng.integers(0, 8, GRID)
        expected = cluster.submit(weights, rng.random(GRID[1])).result()
        assert store.saves >= 1

        cluster.scale_up()
        # The grown core serves the hot program from the store instead
        # of recompiling (round-robin lands half the replays on it).
        x = rng.random(GRID[1])
        futures = [cluster.submit(weights, x) for _ in range(4)]
        cluster.flush()
        assert store.restores >= 1
        assert all(np.array_equal(futures[0].result(), f.result())
                   for f in futures[1:])
        assert expected.shape == futures[0].result().shape

    def test_core_spec_overrides_one_dimension(self, tech):
        """A slot naming only rows or columns keeps the cluster's other
        dimension: its grid=, or the technology's default tile."""
        specs = [None, CoreSpec(rows=8), CoreSpec(columns=9)]
        default = (tech.tensor.rows, tech.tensor.columns)
        for grid, expected in (
            (GRID, [GRID, (8, GRID[1]), (GRID[0], 9)]),
            (None, [default, (8, default[1]), (default[0], 9)]),
        ):
            cluster = PhotonicCluster(cores=3, technology=tech, grid=grid,
                                      core_specs=specs)
            cluster.add_core(CoreSpec(rows=2))
            expected.append((2, expected[0][1]))
            assert [(s.rows, s.columns) for s in cluster.sessions] == expected

    def test_heterogeneous_capability_routing(self, tech):
        rng = np.random.default_rng(17)
        cluster = PhotonicCluster(
            cores=2, technology=tech, grid=GRID,
            flush_policy=FlushPolicy.explicit(),
            core_specs=[None, CoreSpec(rows=8, columns=8, adc_bits=7)],
        )
        assert cluster.core_specs[0] is None
        assert cluster.core_specs[1].adc_bits == 7

        # Small programs go to the cheaper small core...
        cluster.submit(rng.integers(0, 8, GRID), rng.random(GRID[1]))
        assert cluster.sessions[0].pending == 1
        # ...big programs to the only core that fits them in one pass...
        cluster.submit(rng.integers(0, 8, (8, 8)), rng.random(8))
        assert cluster.sessions[1].pending == 1
        # ...and precision-pinned programs to a capable ADC.
        cluster.submit(rng.integers(0, 8, GRID), rng.random(GRID[1]),
                       min_adc_bits=7)
        assert cluster.sessions[1].pending == 2
        # An unsatisfiable floor degrades to the highest-precision core.
        cluster.submit(rng.integers(0, 8, GRID), rng.random(GRID[1]),
                       min_adc_bits=12)
        assert cluster.sessions[1].pending == 3
        cluster.flush()

    def test_affinity_placements_survive_scale_up(self, tech):
        rng = np.random.default_rng(21)
        cluster = PhotonicCluster(cores=4, technology=tech, grid=GRID,
                                  flush_policy=FlushPolicy.explicit(),
                                  routing=RoutingPolicy.cache_affinity())
        programs = [rng.integers(0, 8, GRID) for _ in range(12)]
        for weights in programs:
            cluster.submit(weights, rng.random(GRID[1]))
        cluster.flush()
        cached = sum(len(s.scheduler.cache) for s in cluster.sessions)
        assert cached == len(programs)

        cluster.add_core()
        for weights in programs:
            cluster.submit(weights, rng.random(GRID[1]))
        cluster.flush()
        # Consistent hashing re-homes ~1/5 of programs; most hit the
        # warm cache on their old core instead of recompiling.
        recompiled = sum(len(s.scheduler.cache)
                         for s in cluster.sessions) - cached
        assert recompiled <= len(programs) // 2

    def test_fleet_telemetry_spans_scale_events(self, tech):
        trace = TraceRecorder("elastic")
        cluster = PhotonicCluster(cores=1, technology=tech, grid=GRID,
                                  trace=trace, metrics=MetricsRegistry())
        cluster.scale_up()
        cluster.scale_down()
        names = [event.name for event in trace.events_in("fleet")]
        assert any(name.startswith("scale up core") for name in names)
        assert any(name.startswith("scale down core") for name in names)
        assert cluster.telemetry.metrics.counter("scale_ups").value == 1
        assert cluster.telemetry.metrics.counter("scale_downs").value == 1

    def test_traffic_engine_follows_membership_changes(self, tech):
        cluster = PhotonicCluster(
            cores=1, technology=tech, grid=GRID,
            metrics=MetricsRegistry(), clock=ModelClock(),
            autoscaler=Autoscaler(min_cores=1, max_cores=3, watch_every=4,
                                  scale_up_pending=8.0,
                                  scale_down_pending=1.0),
        )
        mix = WorkloadMix.zipf(tenants=2, rows=GRID[0], columns=GRID[1])
        engine = TrafficEngine(cluster, mix, Poisson(5e4), seed=1)
        result = engine.run(400)
        assert result["resolved"] == 400
        report = cluster.report()
        assert report.scale_ups >= 1  # the tape overloads one core
        assert cluster.cores > 1
        assert report.core_seconds > 0.0
