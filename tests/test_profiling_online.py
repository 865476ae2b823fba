"""One-pass profiling (``profile_program``) and profile serialisation tests."""

import json
import zlib

import pytest

from repro.interp import Machine
from repro.ir import BranchSite
from repro.profiling import (
    ProfileData,
    ProfileFormatError,
    Trace,
    instrumented_run,
    load_profile,
    profile_from_bytes,
    profile_program,
    profile_to_bytes,
    save_profile,
    trace_program,
)
from repro.profiling.profilefile import MAGIC


def profiles_equal(a: ProfileData, b: ProfileData) -> bool:
    if a.totals != b.totals or a.events != b.events:
        return False
    for site in a.totals:
        if a.local[site].counts != b.local[site].counts:
            return False
        if a.global_tables[site].counts != b.global_tables[site].counts:
            return False
    return True


class TestOnlineProfiler:
    """``profile_program``: one instrumented run folded into tables."""

    def test_matches_batch_profile(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [123])
        streamed, _ = profile_program(alternating_loop, [123])
        assert profiles_equal(ProfileData.from_trace(trace), streamed)

    def test_profile_program_one_pass(self, alternating_loop, monkeypatch):
        runs = []
        real_run = Machine.run

        def counting_run(self, *args):
            runs.append(args)
            return real_run(self, *args)

        monkeypatch.setattr(Machine, "run", counting_run)
        streamed, result = profile_program(alternating_loop, [50])
        assert runs == [(50,)]
        assert result.value == 75
        assert streamed.events == result.branches
        assert streamed.path_tables is None

    def test_custom_depths(self, alternating_loop):
        streamed, _ = profile_program(
            alternating_loop, [30], local_bits=4, global_bits=3
        )
        assert streamed.local_bits == 4
        table = streamed.local[BranchSite("main", "body")]
        assert max(table.counts) < 16

    def test_memory_stays_bounded(self):
        # A long biased stream creates exactly 1-2 live patterns.
        site = BranchSite("f", "b")
        profile = ProfileData.from_trace(Trace.from_events([(site, True)] * 100_000))
        assert len(profile.local[site].counts) <= 10  # warmup patterns only


def _document(profile: ProfileData) -> dict:
    return json.loads(zlib.decompress(profile_to_bytes(profile)[4:]))


def _encode(document) -> bytes:
    return MAGIC + zlib.compress(json.dumps(document).encode())


def _set(path, value=None):
    """A corruption that sets (or, with no value, deletes) *path*."""

    def corrupt(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return document

    return corrupt


LOCAL_COUNTS = ("sites", 0, "local", "counts")

MALFORMED_PROFILES = {
    "missing-local-bits": _set(("local_bits",)),
    "top-level-list": lambda document: [document],
    "zero-local-bits": _set(("local_bits",), 0),
    "sites-not-a-list": _set(("sites",), 5),
    "missing-global-table": _set(("sites", 0, "global")),
    "counts-not-a-pair": _set(LOCAL_COUNTS + ("0",), "ab"),
    "counts-one-element": _set(LOCAL_COUNTS + ("0",), [5]),
    "pattern-wider-than-table": _set(LOCAL_COUNTS + ("99999",), [1, 0]),
    "totals-one-element": _set(("sites", 0, "totals"), [1]),
}


class TestProfileSerialisation:
    def test_roundtrip(self, correlated_branches):
        trace, _ = trace_program(correlated_branches.copy(), [80])
        profile = ProfileData.from_trace(trace)
        loaded = profile_from_bytes(profile_to_bytes(profile))
        assert profiles_equal(profile, loaded)
        assert loaded.path_tables is None

    def test_roundtrip_with_path_tables(self, correlated_branches):
        trace, _ = trace_program(correlated_branches.copy(), [80])
        profile = ProfileData.from_trace(trace)
        _, tables, _ = instrumented_run(correlated_branches, [80], history_bits=8)
        profile.attach_path_tables(tables)
        loaded = profile_from_bytes(profile_to_bytes(profile))
        assert loaded.path_tables is not None
        for site, table in profile.path_tables.items():
            assert loaded.path_tables[site].counts == table.counts

    def test_file_roundtrip(self, tmp_path, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [40])
        profile = ProfileData.from_trace(trace)
        path = str(tmp_path / "train.profile")
        save_profile(profile, path)
        assert profiles_equal(profile, load_profile(path))

    def test_bad_magic(self):
        with pytest.raises(ProfileFormatError, match="magic"):
            profile_from_bytes(b"XXXX" + b"junk")

    @pytest.mark.parametrize(
        "corrupt", MALFORMED_PROFILES.values(), ids=list(MALFORMED_PROFILES)
    )
    def test_malformed_document_rejected(self, alternating_loop, corrupt):
        trace, _ = trace_program(alternating_loop.copy(), [10])
        document = _document(ProfileData.from_trace(trace))
        profile_from_bytes(_encode(document))  # the untouched document loads
        with pytest.raises(ProfileFormatError):
            profile_from_bytes(_encode(corrupt(document)))

    def test_corrupt_payload(self, alternating_loop):
        trace, _ = trace_program(alternating_loop.copy(), [10])
        blob = bytearray(profile_to_bytes(ProfileData.from_trace(trace)))
        blob[10] ^= 0xFF
        with pytest.raises(ProfileFormatError):
            profile_from_bytes(bytes(blob))

    def test_loaded_profile_drives_the_planner(self, alternating_loop):
        from repro.replication import ReplicationPlanner

        trace, _ = trace_program(alternating_loop.copy(), [100])
        profile = ProfileData.from_trace(trace)
        loaded = profile_from_bytes(profile_to_bytes(profile))
        planner = ReplicationPlanner(alternating_loop, loaded, max_states=4)
        assert planner.improved_branch_count() >= 1

    def test_empty_profile_roundtrip(self):
        empty = ProfileData.from_trace(Trace())
        loaded = profile_from_bytes(profile_to_bytes(empty))
        assert loaded.totals == {}
        assert loaded.events == 0
