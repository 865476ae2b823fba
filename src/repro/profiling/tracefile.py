"""Compressed on-disk trace format.

The paper notes that "in compressed form a trace of 5 million branches
occupies about a MB"; this module provides a comparable format:

* header: magic ``KBT1``, site count, event count;
* site table: ``function:block`` strings, newline separated, UTF-8;
* site-id stream: per-event varints, zlib-compressed;
* direction stream: one bit per event, packed LSB-first, zlib-compressed.

The format is self-contained — a trace file plus the (separately saved)
CFG description is everything the analysis tools need, mirroring the
paper's tracer which "saves the description of branches, a control flow
graph and loop information in a file".

Loading is zero-copy where the format allows: path loads are
``mmap``-ed and sliced through ``memoryview`` (no read copy of the
compressed payload), the decompressed direction stream is adopted
**bit-packed** as the trace's in-memory representation (the engine's
columnar kernels expand it with ``numpy.frombuffer``/``unpackbits`` on
demand), and single-byte site-id streams — any trace with at most 128
sites — skip the varint loop entirely.
"""

from __future__ import annotations

import contextlib
import io
import mmap
import struct
import zlib
from array import array
from typing import BinaryIO, Union

from ..ir import BranchSite
from .columns import loaded_numpy
from .trace import PackedDirections, Trace

MAGIC = b"KBT1"

_HEADER = "<QQIII"
_HEADER_SIZE = struct.calcsize(_HEADER)


class TraceFormatError(Exception):
    """Raised when a trace file is malformed."""


def _write_varints(values) -> bytes:
    out = bytearray()
    for value in values:
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _decode_site_ids(data: bytes, count: int, site_count: int) -> array:
    """The site-id column from its varint stream, validated.

    Fast path: when every site id fits in seven bits the stream is one
    byte per event, so it can be adopted wholesale (vectorized widening
    when numpy is already loaded) without the per-byte decode loop.
    """
    ids = array("i")
    if count == 0:
        return ids
    if site_count <= 0x80 and len(data) == count and max(data) < site_count:
        np = loaded_numpy()
        if np is not None:
            ids.frombytes(np.frombuffer(data, dtype=np.uint8).astype(np.intc).tobytes())
        else:
            ids.extend(data)
        return ids
    value = 0
    shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            if value >= site_count:
                raise TraceFormatError(f"event references unknown site {value}")
            ids.append(value)
            value = 0
            shift = 0
            if len(ids) == count:
                break
    if len(ids) != count:
        raise TraceFormatError(f"expected {count} events, decoded {len(ids)}")
    return ids


def save_trace(trace: Trace, destination: Union[str, BinaryIO]) -> None:
    """Write *trace* to a path or binary stream."""
    if isinstance(destination, str):
        with open(destination, "wb") as stream:
            save_trace(trace, stream)
        return
    stream = destination
    site_blob = "\n".join(f"{s.function}:{s.block}" for s in trace.sites).encode()
    id_blob = zlib.compress(_write_varints(trace.site_ids), 6)
    dir_blob = zlib.compress(trace.directions.packed(), 6)
    stream.write(MAGIC)
    stream.write(
        struct.pack(
            _HEADER,
            len(trace.sites),
            len(trace),
            len(site_blob),
            len(id_blob),
            len(dir_blob),
        )
    )
    stream.write(site_blob)
    stream.write(id_blob)
    stream.write(dir_blob)


def _build_trace(site_blob, id_blob, dir_blob, site_count: int, event_count: int) -> Trace:
    """Assemble a trace from the three (still compressed) payloads."""
    trace = Trace()
    if len(site_blob):
        try:
            lines = bytes(site_blob).decode().split("\n")
        except UnicodeDecodeError as error:
            raise TraceFormatError(f"corrupt site table: {error}") from None
        for line in lines:
            function, _, block = line.partition(":")
            trace.site_id(BranchSite(function, block))
    if len(trace.sites) != site_count:
        raise TraceFormatError("site table length mismatch")
    try:
        trace.site_ids = _decode_site_ids(
            zlib.decompress(id_blob), event_count, site_count
        )
    except zlib.error as error:
        raise TraceFormatError(f"corrupt site-id stream: {error}") from None
    try:
        packed = zlib.decompress(dir_blob)
    except zlib.error as error:
        raise TraceFormatError(f"corrupt direction stream: {error}") from None
    try:
        trace.directions = PackedDirections.from_packed(packed, event_count)
    except ValueError:
        raise TraceFormatError(
            f"direction stream shorter than {event_count} events"
        ) from None
    return trace


def _parse_view(view) -> Trace:
    """Parse one whole in-memory buffer (bytes, mmap view, ...)."""
    total = len(view)
    if total < 4 or bytes(view[:4]) != MAGIC:
        raise TraceFormatError(f"bad magic {bytes(view[:4])!r}")
    if total < 4 + _HEADER_SIZE:
        raise TraceFormatError("truncated trace header")
    site_count, event_count, site_len, id_len, dir_len = struct.unpack(
        _HEADER, view[4 : 4 + _HEADER_SIZE]
    )
    offset = 4 + _HEADER_SIZE
    if total < offset + site_len + id_len + dir_len:
        raise TraceFormatError("truncated trace file")
    site_blob = view[offset : offset + site_len]
    offset += site_len
    id_blob = view[offset : offset + id_len]
    offset += id_len
    dir_blob = view[offset : offset + dir_len]
    return _build_trace(site_blob, id_blob, dir_blob, site_count, event_count)


def load_trace(source: Union[str, BinaryIO]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Paths are memory-mapped and parsed through ``memoryview`` slices so
    the compressed payload is never copied before decompression; an
    unmappable file (empty, or a pseudo-file) falls back to a plain
    read, and so does a binary stream.
    """
    if not isinstance(source, str):
        return trace_from_bytes(source.read())
    with open(source, "rb") as stream:
        try:
            mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return trace_from_bytes(stream.read())
        try:
            return trace_from_bytes(mapped)
        finally:
            # A parse error's traceback can still hold views into the
            # map, which then unmaps when the last of them goes.
            with contextlib.suppress(BufferError):
                mapped.close()


def trace_to_bytes(trace: Trace) -> bytes:
    """Serialise *trace* into a bytes object."""
    buffer = io.BytesIO()
    save_trace(trace, buffer)
    return buffer.getvalue()


def trace_from_bytes(data) -> Trace:
    """Deserialise a trace from a bytes-like buffer, without copying the
    compressed payloads."""
    with memoryview(data) as view:
        return _parse_view(view)
