"""Compressed trace file format tests."""

import io
import os
import struct
import subprocess
import sys
import zlib
from array import array

import pytest

from repro.ir import BranchSite
from repro.profiling import (
    Trace,
    TraceFormatError,
    load_trace,
    save_trace,
    trace_from_bytes,
    trace_to_bytes,
    trace_program,
)
from repro.profiling.tracefile import _write_varints


def test_empty_trace_roundtrip():
    trace = Trace.from_events([])
    assert list(trace_from_bytes(trace_to_bytes(trace)).events()) == []


def test_roundtrip_preserves_everything():
    trace = Trace.from_events(
        (BranchSite("f", f"b{index % 7}"), index % 3 == 0) for index in range(100)
    )
    loaded = trace_from_bytes(trace_to_bytes(trace))
    assert loaded.sites == trace.sites
    assert list(loaded.events()) == list(trace.events())


def test_file_roundtrip(tmp_path, alternating_loop):
    trace, _ = trace_program(alternating_loop, [200])
    path = str(tmp_path / "run.trace")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert list(loaded.events()) == list(trace.events())
    assert loaded.sites == trace.sites


def test_compression_is_effective(alternating_loop):
    # A regular trace must compress far below 1 byte/event raw cost
    # (the paper: 5M branches in about a MB).
    trace, _ = trace_program(alternating_loop, [5000])
    blob = trace_to_bytes(trace)
    assert len(blob) < len(trace) / 4


def test_bad_magic_rejected():
    with pytest.raises(TraceFormatError, match="magic"):
        load_trace(io.BytesIO(b"NOPE" + b"\x00" * 64))


def test_truncated_file_rejected():
    trace = Trace.from_events([(BranchSite("f", "a"), True)])
    blob = trace_to_bytes(trace)
    with pytest.raises(TraceFormatError):
        trace_from_bytes(blob[: len(blob) - 1])


def test_corrupt_site_reference_rejected():
    # Handcraft a trace, then break the site table by removing a site.
    trace = Trace.from_events([(BranchSite("f", "a"), True), (BranchSite("f", "b"), False)])
    blob = bytearray(trace_to_bytes(trace))
    # Corrupting the payload should never crash with a raw exception.
    blob[-1] ^= 0xFF
    try:
        trace_from_bytes(bytes(blob))
    except TraceFormatError:
        pass
    except Exception as error:  # noqa: BLE001 - the assertion target
        assert isinstance(error, zlib.error)


def test_duplicate_site_names_rejected():
    """A site table naming one site twice cannot number its events:
    the decoder rejects it as a length mismatch, never builds a trace."""
    trace = Trace.from_events([(BranchSite("f", "a"), True), (BranchSite("f", "b"), False)])
    blob = trace_to_bytes(trace)
    assert blob.count(b"f:a\nf:b") == 1
    with pytest.raises(TraceFormatError, match="site table length mismatch"):
        trace_from_bytes(blob.replace(b"f:a\nf:b", b"f:a\nf:a"))


def test_short_direction_stream_rejected():
    site_blob, ids, directions = b"f:a", zlib.compress(bytes(16)), zlib.compress(b"\xff")
    header = struct.pack("<QQIII", 1, 16, len(site_blob), len(ids), len(directions))
    forged = b"KBT1" + header + site_blob + ids + directions
    with pytest.raises(TraceFormatError, match="direction stream shorter than 16 events"):
        trace_from_bytes(forged)


def test_sites_with_unusual_labels_roundtrip():
    trace = Trace.from_events(
        [(BranchSite("main", "body@01.3"), True), (BranchSite("main", "join~2"), False)]
    )
    loaded = trace_from_bytes(trace_to_bytes(trace))
    assert loaded.sites == trace.sites


class TestVarintBoundaries:
    """Round trips where site ids cross varint byte boundaries."""

    def _many_site_trace(self, site_count: int) -> Trace:
        # Touch the highest ids first so late ids are exercised even if
        # an implementation truncated the site table.
        first = [(index, index % 2 == 0) for index in (site_count - 1, site_count // 2, 0)]
        rest = [(index, index % 3 == 0) for index in range(site_count)]
        return Trace.from_events(
            (BranchSite("f", f"b{index}"), taken) for index, taken in first + rest
        )

    def test_two_byte_varint_ids(self):
        # ids >= 2**7 need two varint bytes.
        trace = self._many_site_trace((1 << 7) + 5)
        loaded = trace_from_bytes(trace_to_bytes(trace))
        assert loaded.sites == trace.sites
        assert list(loaded.events()) == list(trace.events())

    def test_three_byte_varint_ids(self):
        # ids >= 2**14 need three varint bytes.
        trace = self._many_site_trace((1 << 14) + 3)
        loaded = trace_from_bytes(trace_to_bytes(trace))
        assert loaded.sites == trace.sites
        assert list(loaded.events()) == list(trace.events())

    @pytest.mark.parametrize(
        "ids",
        [[], [0], [127], [0, 127, 5], [128], [0, 127, 128], [255, 0], [1 << 21, 127, 0]],
    )
    def test_encoder_fast_path_matches_the_loop(self, ids):
        def reference(values):
            out = bytearray()
            for value in values:
                while value >= 0x80:
                    out.append(value & 0x7F | 0x80)
                    value >>= 7
                out.append(value)
            return bytes(out)

        for values in (ids, array("i", ids)):
            assert _write_varints(values) == reference(ids)

    def test_empty_trace_has_no_events_or_sites(self):
        loaded = trace_from_bytes(trace_to_bytes(Trace.from_events([])))
        assert len(loaded) == 0
        assert loaded.sites == []

    def test_truncated_varint_stream_rejected(self):
        trace = self._many_site_trace((1 << 7) + 5)
        blob = bytearray(trace_to_bytes(trace))
        # Lie about the event count so varint decoding runs dry.
        site_count, event_count, site_len, id_len, dir_len = struct.unpack(
            "<QQIII", bytes(blob[4 : 4 + struct.calcsize("<QQIII")])
        )
        blob[4 : 4 + struct.calcsize("<QQIII")] = struct.pack(
            "<QQIII", site_count, event_count + 50, site_len, id_len, dir_len
        )
        with pytest.raises(TraceFormatError):
            trace_from_bytes(bytes(blob))

    def test_garbage_compressed_payload_rejected(self):
        trace = self._many_site_trace(10)
        blob = trace_to_bytes(trace)
        header = 4 + struct.calcsize("<QQIII")
        site_count, event_count, site_len, id_len, dir_len = struct.unpack(
            "<QQIII", blob[4:header]
        )
        corrupted = (
            blob[: header + site_len]
            + b"\x00" * id_len
            + blob[header + site_len + id_len :]
        )
        with pytest.raises(TraceFormatError):
            trace_from_bytes(corrupted)


def test_corrupt_file_on_disk_is_a_format_error(tmp_path, alternating_loop):
    # A memory-mapped load must reject a corrupt file as cleanly as a
    # bytes load: closing the map must not mask the parse error.
    trace, _ = trace_program(alternating_loop, [20])
    blob = trace_to_bytes(trace)
    path = tmp_path / "corrupt.trace"
    for position in range(4, len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 0xFF
        path.write_bytes(bytes(mutated))
        try:
            loaded = load_trace(str(path))
        except TraceFormatError:
            continue
        assert len(loaded.directions) == (len(loaded.site_ids) + 7) // 8
    path.write_bytes(blob[:-1])
    with pytest.raises(TraceFormatError):
        load_trace(str(path))


def test_stream_and_bytes_loads_agree(alternating_loop):
    trace, _ = trace_program(alternating_loop, [50])
    blob = trace_to_bytes(trace)
    for loaded in (load_trace(io.BytesIO(blob)), trace_from_bytes(memoryview(blob))):
        assert list(loaded.events()) == list(trace.events())
    with pytest.raises(TraceFormatError, match="truncated trace header"):
        load_trace(io.BytesIO(blob[:10]))


_DECODE_SCRIPT = """
import sys
from repro.ir import BranchSite
from repro.profiling import Trace, trace_from_bytes, trace_to_bytes

trace = Trace.from_events(
    (BranchSite("f", f"b{index % 7}"), index % 3 == 0) for index in range(500)
)
loaded = trace_from_bytes(trace_to_bytes(trace))
assert loaded.site_ids == trace.site_ids
print("numpy" in sys.modules)
"""


def test_one_byte_site_ids_decode_without_importing_numpy():
    """Decoding a trace whose site ids each fit in one byte (the
    wholesale fast path) must not import numpy: a process that only
    loads warm cache entries would otherwise pay tens of megabytes."""
    env = dict(os.environ)
    env.pop("REPRO_NO_NUMPY", None)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _DECODE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
