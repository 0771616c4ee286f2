"""Calibration-cache robustness: damage degrades to recalibration.

Satellite guarantee: corrupt, version-skewed, or digest-mismatched
cache entries are ignored with a structured ``ReliabilityWarning`` and
trigger recalibration -- never a crash, never a silently wrong
calibration.
"""

import dataclasses
import json
import os
import sys
import threading

import pytest

from repro.analysis.cost import (
    COST_CACHE_ENV,
    COST_SCHEMA_VERSION,
    CostCache,
    calibrate_tile,
    cost_table_digest,
    get_tile_calibration,
)
from repro.analysis.cost.calibrate import clear_calibration_memo
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.isa import ISA_COST_TABLE
from repro.robustness.errors import ReliabilityWarning

CONFIG = MixGemmConfig(bw_a=4, bw_b=4,
                       blocking=BlockingParams(mc=16, nc=16, kc=64))


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(COST_CACHE_ENV, str(tmp_path / "unused"))
    clear_calibration_memo()
    yield
    clear_calibration_memo()


def _entry_file(cache: CostCache):
    files = list(cache.path.glob("*.json"))
    assert len(files) == 1
    return files[0]


def _warm(tmp_path) -> tuple[CostCache, "os.PathLike"]:
    cache = CostCache(tmp_path / "cost")
    calibration = calibrate_tile(CONFIG)
    cache.put(calibration)
    return cache, _entry_file(cache)


class TestRoundTrip:
    def test_put_then_get_round_trips(self, tmp_path):
        cache, _ = _warm(tmp_path)
        entry = cache.get(CONFIG)
        assert entry is not None
        assert entry.exact
        assert cache.hits == 1

    def test_publish_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache, final = _warm(tmp_path)
        assert final.suffix == ".json"
        assert not list(cache.path.glob("*.tmp"))

    def test_clear_removes_entries(self, tmp_path):
        cache, _ = _warm(tmp_path)
        assert cache.clear() == 1
        assert cache.get(CONFIG) is None

    def test_concurrent_puts_of_one_entry_all_publish(self, tmp_path):
        # Threads of one process calibrating the same tile on a cold
        # cache publish the same entry at once; none may fail.
        cache, _ = _warm(tmp_path)
        calibration = cache.get(CONFIG)
        errors = []

        def writer():
            for _ in range(50):
                try:
                    cache.put(calibration)
                except OSError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not list(cache.path.glob("*.tmp"))
        assert CostCache(cache.path).get(CONFIG) == calibration


class TestDamage:
    def test_corrupt_json_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        final.write_text("{not json at all")
        with pytest.warns(ReliabilityWarning, match="ignoring"):
            assert cache.get(CONFIG) is None

    def test_truncated_payload_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        del payload["slope"]
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_version_skew_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        payload["schema"] = COST_SCHEMA_VERSION + 1
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_digest_mismatch_warns_and_reads_as_miss(self, tmp_path):
        cache, final = _warm(tmp_path)
        payload = json.loads(final.read_text())
        payload["cost_digest"] = "0" * len(payload["cost_digest"])
        final.write_text(json.dumps(payload))
        with pytest.warns(ReliabilityWarning, match="digest"):
            assert cache.get(CONFIG) is None

    def test_signature_mismatch_warns_and_reads_as_miss(self, tmp_path):
        """An entry whose body describes a different tile is rejected
        even if it landed under this tile's file name."""
        cache, final = _warm(tmp_path)
        other = calibrate_tile(
            dataclasses.replace(CONFIG, bw_a=8, bw_b=8))
        final.write_text(json.dumps(other.as_dict()))
        with pytest.warns(ReliabilityWarning):
            assert cache.get(CONFIG) is None

    def test_damage_triggers_recalibration(self, tmp_path):
        cache, final = _warm(tmp_path)
        final.write_text("{corrupt")
        with pytest.warns(ReliabilityWarning):
            calibration = get_tile_calibration(CONFIG, cache=cache)
        assert calibration.exact
        # The recalibrated entry was re-published and now reads clean.
        fresh = CostCache(cache.path)
        assert fresh.get(CONFIG) is not None

    def test_unreadable_entry_warns_and_reads_as_miss(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root reads through permission bits")
        cache, final = _warm(tmp_path)
        final.chmod(0)
        try:
            with pytest.warns(ReliabilityWarning):
                assert cache.get(CONFIG) is None
        finally:
            final.chmod(0o644)


class TestMemo:
    def test_memo_serves_without_touching_disk(self, tmp_path):
        cache = CostCache(tmp_path / "cost")
        get_tile_calibration(CONFIG, cache=cache)
        for path in cache.path.glob("*.json"):
            path.unlink()
        # Memo hit: no disk read, no recalibration.
        assert get_tile_calibration(CONFIG, cache=cache).exact

    def test_clear_memo_forces_disk_path(self, tmp_path):
        cache = CostCache(tmp_path / "cost")
        get_tile_calibration(CONFIG, cache=cache)
        clear_calibration_memo()
        before = cache.misses
        get_tile_calibration(CONFIG, cache=cache)
        assert cache.hits >= 1
        assert cache.misses == before


class TestCostTableDigest:
    @pytest.mark.parametrize("name", sorted(ISA_COST_TABLE))
    def test_table_edit_changes_digest_and_strands_entries(
            self, tmp_path, monkeypatch, name):
        cache, _ = _warm(tmp_path)
        before = cost_table_digest()
        monkeypatch.setitem(ISA_COST_TABLE, name, ISA_COST_TABLE[name] + 1)
        assert cost_table_digest() != before
        assert cache.get(CONFIG) is None
        assert (cache.hits, cache.misses) == (0, 1)
        monkeypatch.undo()
        assert cost_table_digest() == before
        assert cache.get(CONFIG) is not None
