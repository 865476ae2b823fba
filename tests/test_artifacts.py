"""Run-artifact layer tests: single-pass collection, the on-disk cache,
and the process-parallel fan-out."""

import json
import os
import zlib

import pytest

from repro.profiling import trace_to_bytes
from repro.workloads import (
    artifacts as artifact_store,
    get_profile,
    get_run_steps,
    get_trace,
)
from repro.obs import OBS
from repro.workloads.artifacts import (
    clear_memory_cache,
    generate_artifacts,
    get_artifacts,
)

NAME = "compress"


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private, empty disk cache and a cleared in-memory memo."""
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")
    yield directory
    clear_memory_cache()
    OBS.reset(prefix="artifacts.")


class TestSinglePass:
    def test_one_interpreter_run_serves_all_three_products(self, fresh_cache):
        get_trace(NAME, 1)
        get_profile(NAME, 1)
        get_run_steps(NAME, 1)
        assert OBS.counter("artifacts.interpreter.runs") == 1
        assert OBS.counter("artifacts.cache.misses") == 1

    def test_distinct_keys_each_run_once(self, fresh_cache):
        get_trace(NAME, 1)
        get_trace(NAME, 1, seed_offset=7)
        get_trace(NAME, 2)
        assert OBS.counter("artifacts.interpreter.runs") == 3

    def test_profile_reuses_artifact_path_tables(self, fresh_cache):
        profile = get_profile(NAME, 1)
        assert profile.path_tables is not None
        assert profile.path_tables is get_artifacts(NAME, scale=1).path_tables


def _garble(path):
    path.write_bytes(b"garbage" + path.read_bytes()[:10])


def _edit_aux_counts(edit):
    """A corruption that re-encodes a valid, correctly stamped aux entry
    after applying *edit* to its first path table's counts."""

    def corrupt(path):
        payload = path.read_bytes()
        document = json.loads(zlib.decompress(payload[4:]))
        edit(document["path_tables"][0]["counts"])
        path.write_bytes(payload[:4] + zlib.compress(json.dumps(document).encode()))

    return corrupt


def _set_first_counts(value):
    return _edit_aux_counts(lambda counts: counts.update({next(iter(counts)): value}))


def _add_pattern(pattern):
    return _edit_aux_counts(lambda counts: counts.update({str(pattern): [1, 0]}))


class TestDiskCache:
    def test_warm_process_performs_zero_interpreter_runs(self, fresh_cache):
        get_trace(NAME, 1)
        cold = get_artifacts(NAME, scale=1)
        # Simulate a fresh process: drop the in-memory memo only.
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        warm = get_artifacts(NAME, scale=1)
        get_profile(NAME, 1)
        assert get_run_steps(NAME, 1) == cold.steps
        assert OBS.counter("artifacts.interpreter.runs") == 0
        assert OBS.counter("artifacts.cache.hits") == 1
        assert OBS.counter("artifacts.cache.misses") == 0
        assert list(warm.trace.events()) == list(cold.trace.events())
        assert {s: t.counts for s, t in warm.path_tables.items()} == {
            s: t.counts for s, t in cold.path_tables.items()
        }

    def test_miss_then_hit_counters(self, fresh_cache):
        get_artifacts(NAME, scale=1)
        assert OBS.counter("artifacts.cache.misses") == 1
        clear_memory_cache()
        get_artifacts(NAME, scale=1)
        assert OBS.counter("artifacts.cache.hits") == 1

    def test_entries_written_atomically_named_with_version(self, fresh_cache):
        get_artifacts(NAME, scale=1)
        entries = sorted(os.listdir(fresh_cache))
        version = artifact_store.FORMAT_VERSION
        assert entries == [
            f"{NAME}-s1-o0-h8-v{version}.aux",
            f"{NAME}-s1-o0-h8-v{version}.trace",
        ]

    def test_version_stamp_invalidates(self, fresh_cache, monkeypatch):
        get_artifacts(NAME, scale=1)
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        monkeypatch.setattr(artifact_store, "FORMAT_VERSION", 99)
        get_artifacts(NAME, scale=1)
        assert OBS.counter("artifacts.cache.hits") == 0
        assert OBS.counter("artifacts.interpreter.runs") == 1

    def test_stale_envelope_version_rejected(self, fresh_cache, monkeypatch):
        # Files written under an old FORMAT_VERSION but renamed to the
        # current stem must be rejected by the payload stamp.
        monkeypatch.setattr(artifact_store, "FORMAT_VERSION", 0)
        get_artifacts(NAME, scale=1)
        old = {name: (fresh_cache / name).read_bytes() for name in os.listdir(fresh_cache)}
        monkeypatch.setattr(artifact_store, "FORMAT_VERSION", 1)
        for name, payload in old.items():
            (fresh_cache / name.replace("-v0.", "-v1.")).write_bytes(payload)
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        get_artifacts(NAME, scale=1)
        assert OBS.counter("artifacts.interpreter.runs") == 1

    @pytest.mark.parametrize(
        "suffix, corrupt",
        [
            pytest.param(".trace", _garble, id=".trace"),
            pytest.param(".aux", _garble, id=".aux"),
            pytest.param(".aux", _set_first_counts("ab"), id="aux-counts-not-a-pair"),
            pytest.param(".aux", _add_pattern(1 << 8), id="aux-pattern-wider-than-8-bits"),
        ],
    )
    def test_corrupt_entry_falls_back_to_recompute(self, fresh_cache, suffix, corrupt):
        cold = get_artifacts(NAME, scale=1)
        for entry in os.listdir(fresh_cache):
            if entry.endswith(suffix):
                corrupt(fresh_cache / entry)
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        recomputed = get_artifacts(NAME, scale=1)
        assert OBS.counter("artifacts.interpreter.runs") == 1
        assert OBS.counter("artifacts.cache.hits") == 0
        assert list(recomputed.trace.events()) == list(cold.trace.events())
        assert recomputed.steps == cold.steps

    def test_disabled_cache_still_computes(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert artifact_store.cache_dir() is None
        trace = get_trace(NAME, 1)
        assert len(trace) > 0
        assert artifact_store.disk_cache_entries() == []

    def test_clear_disk_cache(self, fresh_cache):
        get_artifacts(NAME, scale=1)
        assert artifact_store.clear_disk_cache() == 2
        assert artifact_store.disk_cache_entries() == []


class TestParallelFanOut:
    def test_parallel_generation_matches_serial(self, fresh_cache, tmp_path, monkeypatch):
        serial_bytes = {}
        for name in (NAME, "ghostview"):
            artifacts = get_artifacts(name, scale=1)
            serial_bytes[name] = (trace_to_bytes(artifacts.trace), artifacts.steps)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel-cache"))
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        timings = generate_artifacts([(NAME, 1, 0), ("ghostview", 1, 0)], jobs=2)
        assert len(timings) == 2
        # The parent must serve everything from the worker-filled cache.
        assert OBS.counter("artifacts.interpreter.runs") == 0
        for name, (blob, steps) in serial_bytes.items():
            artifacts = get_artifacts(name, scale=1)
            assert trace_to_bytes(artifacts.trace) == blob
            assert artifacts.steps == steps

    def test_generate_skips_cached_specs(self, fresh_cache):
        get_artifacts(NAME, scale=1)
        assert generate_artifacts([(NAME, 1, 0)], jobs=4) == []

    def test_serial_fallback_without_disk_cache(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_memory_cache()
        OBS.reset(prefix="artifacts.")
        timings = generate_artifacts([(NAME, 1, 0)], jobs=8)
        assert len(timings) == 1
        assert OBS.counter("artifacts.interpreter.runs") == 1


class TestDiskCacheRaces:
    """The maintenance scanners must tolerate a concurrent writer or
    clearer mutating the directory mid-scan — the service daemon runs
    them from request threads while other threads fill the cache."""

    def test_entries_empty_when_directory_never_existed(self, fresh_cache):
        assert artifact_store.disk_cache_entries() == []
        assert artifact_store.disk_cache_bytes() == 0
        assert artifact_store.clear_disk_cache() == 0

    def test_entries_tolerate_directory_vanishing_mid_scan(
        self, fresh_cache, monkeypatch
    ):
        import shutil

        get_artifacts(NAME)
        assert artifact_store.disk_cache_entries()
        # Simulate the directory being removed between the existence
        # check and the scan: listdir raises on a vanished directory.
        real_listdir = os.listdir

        def vanished(path):
            if str(path) == str(fresh_cache):
                raise FileNotFoundError(path)
            return real_listdir(path)

        # Only the listdir patch is scoped: undoing every patch would
        # also drop fresh_cache's REPRO_CACHE_DIR.
        with monkeypatch.context() as scoped:
            scoped.setattr(os, "listdir", vanished)
            assert artifact_store.disk_cache_entries() == []
            assert artifact_store.disk_cache_bytes() == 0
            assert artifact_store.clear_disk_cache() == 0
        shutil.rmtree(fresh_cache)
        assert artifact_store.disk_cache_entries() == []

    def test_bytes_and_clear_tolerate_entries_vanishing_mid_scan(
        self, fresh_cache, monkeypatch
    ):
        get_artifacts(NAME)
        real_entries = artifact_store.disk_cache_entries()
        assert real_entries
        # A concurrent clearer deleted the files after the scan listed
        # them: stat/unlink hit phantoms and must skip, not raise.
        phantoms = real_entries + ["phantom-v1.trace", "phantom-v1.aux"]
        monkeypatch.setattr(
            artifact_store, "disk_cache_entries", lambda: list(phantoms)
        )
        expected = sum(
            os.path.getsize(os.path.join(fresh_cache, entry))
            for entry in real_entries
        )
        assert artifact_store.disk_cache_bytes() == expected
        assert artifact_store.clear_disk_cache() == len(real_entries)
        # Second clear: everything is already gone, still no error.
        assert artifact_store.clear_disk_cache() == 0

    def test_concurrent_writers_and_clearers_never_raise(self, fresh_cache):
        """A writer hammering the cache while a clearer hammers
        clear_disk_cache/disk_cache_bytes: no exception on any side."""
        import threading

        errors = []
        stop = threading.Event()

        def clearer():
            try:
                while not stop.is_set():
                    artifact_store.disk_cache_entries()
                    artifact_store.disk_cache_bytes()
                    artifact_store.clear_disk_cache()
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=clearer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(10):
                clear_memory_cache()
                get_artifacts(NAME, seed_offset=seed % 3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
        assert not errors
