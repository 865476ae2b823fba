"""Profile serialisation.

A profile (the pattern tables) is what the compiler actually consumes;
the trace is only its raw material.  This module stores profiles as
compressed JSON so a training run's output can be archived, diffed, and
fed to ``repro optimize`` on another machine — the tool-chain shape the
paper's "production version" implies.

Format: zlib-compressed UTF-8 JSON with a version marker.  Pattern keys
are serialised as decimal strings (JSON objects key on strings).  Every
malformed document — a wrong type, a missing key, a pattern wider than
its table, counts that are not ``[not_taken, taken]`` — is rejected
with :class:`ProfileFormatError`.
"""

from __future__ import annotations

import json
import zlib
from typing import BinaryIO, Dict, Union

from ..ir import BranchSite
from .patterns import (
    PatternTable,
    ProfileData,
    counts_from_json,
    counts_to_json,
    is_count_pair,
)

MAGIC = b"KBP1"
VERSION = 1


class ProfileFormatError(Exception):
    """Raised when a profile file is malformed."""


def _table_to_json(table: PatternTable) -> Dict:
    return {"bits": table.bits, "counts": counts_to_json(table.counts)}


def _table_from_json(blob: Dict, bits: int) -> PatternTable:
    if blob["bits"] != bits:
        raise ValueError(f"table is {blob['bits']!r} bits deep, expected {bits}")
    return PatternTable(bits, counts_from_json(blob["counts"], bits))


def _int(value: object, what: str, low: int = 0, high: float = float("inf")) -> int:
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{what} {value!r:.40} is not an integer in [{low}, {high}]")
    return value


def profile_to_bytes(profile: ProfileData) -> bytes:
    """Serialise *profile* (including path tables when attached)."""
    document = {
        "version": VERSION,
        "local_bits": profile.local_bits,
        "global_bits": profile.global_bits,
        "events": profile.events,
        "sites": [
            {
                "function": site.function,
                "block": site.block,
                "totals": list(profile.totals[site]),
                "local": _table_to_json(profile.local[site]),
                "global": _table_to_json(profile.global_tables[site]),
                **(
                    {"path": _table_to_json(profile.path_tables[site])}
                    if profile.path_tables is not None
                    and site in profile.path_tables
                    else {}
                ),
            }
            for site in profile.totals
        ],
    }
    return MAGIC + zlib.compress(json.dumps(document).encode(), 6)


def profile_from_bytes(data: bytes) -> ProfileData:
    """Deserialise a profile written by :func:`profile_to_bytes`.

    Raises :class:`ProfileFormatError` for any malformed input.
    """
    if data[:4] != MAGIC:
        raise ProfileFormatError(f"bad magic {data[:4]!r}")
    try:
        document = json.loads(zlib.decompress(data[4:]).decode())
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProfileFormatError(f"corrupt profile payload: {error}") from None
    if type(document) is not dict:
        raise ProfileFormatError("profile document is not an object")
    if document.get("version") != VERSION:
        raise ProfileFormatError(f"unsupported version {document.get('version')}")
    try:
        return _profile_from_document(document)
    except (KeyError, TypeError, ValueError) as error:
        raise ProfileFormatError(f"malformed profile: {error!r}") from None


def _profile_from_document(document: Dict) -> ProfileData:
    profile = ProfileData(
        _int(document["local_bits"], "local_bits", 1, 24),
        _int(document["global_bits"], "global_bits", 1, 24),
    )
    profile.events = _int(document["events"], "events")
    path_tables: Dict[BranchSite, PatternTable] = {}
    for entry in document["sites"]:
        function, block = entry["function"], entry["block"]
        if type(function) is not str or type(block) is not str:
            raise ValueError(f"site {function!r:.40}:{block!r:.40} is not named")
        site = BranchSite(function, block)
        if not is_count_pair(entry["totals"]):
            raise ValueError(f"{site} totals {entry['totals']!r:.40} are not a pair")
        profile.totals[site] = tuple(entry["totals"])  # type: ignore[assignment]
        profile.local[site] = _table_from_json(entry["local"], profile.local_bits)
        profile.global_tables[site] = _table_from_json(
            entry["global"], profile.global_bits
        )
        if "path" in entry:
            path = entry["path"]
            bits = _int(path["bits"], "path bits", 1, 24)
            path_tables[site] = _table_from_json(path, bits)
    if path_tables:
        profile.attach_path_tables(path_tables)
    return profile


def save_profile(profile: ProfileData, destination: Union[str, BinaryIO]) -> None:
    if isinstance(destination, str):
        with open(destination, "wb") as stream:
            stream.write(profile_to_bytes(profile))
        return
    destination.write(profile_to_bytes(profile))


def load_profile(source: Union[str, BinaryIO]) -> ProfileData:
    if isinstance(source, str):
        with open(source, "rb") as stream:
            return profile_from_bytes(stream.read())
    return profile_from_bytes(source.read())
