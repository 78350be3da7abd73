"""Single-file binary container for parameters and models.

Layout: 8-byte magic, uint32 format version, uint32 header length, UTF-8
JSON header (metadata plus an array directory of name/shape/offset), then
raw little-endian float64 array payloads.  The embedded JSON header plays
the descriptor role; shapes, modes, and seeds travel with the blob.
Anything unreadable -- bad magic, truncation, a format version other
than the current one, or an array-directory entry whose keys, types,
shape, byte count or offset do not fit the payload -- raises
``VersionError``.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import VersionError

MAGIC = b"UPREBLOB"
FORMAT_VERSION = 1


def save_blob(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    directory = []
    offset = 0
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        raw = arr.tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset, "bytes": len(raw)})
        payload.extend(raw)
        offset += len(raw)
    header = dict(meta)
    header["arrays"] = directory
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(bytes(payload))


def load_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise VersionError(f"{path}: not a recognized parameter blob")
    version, header_len = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
    start = len(MAGIC) + 8
    try:
        header = json.loads(data[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VersionError(f"{path}: corrupt blob header ({exc})") from exc
    if not isinstance(header, dict):
        raise VersionError(f"{path}: corrupt blob header (not a JSON object)")
    directory = header.pop("arrays", [])
    if not isinstance(directory, list):
        raise VersionError(f"{path}: corrupt array directory (not a list)")
    body = data[start + header_len :]
    arrays: dict[str, np.ndarray] = {}
    for entry in directory:
        name, shape, offset, size = _directory_entry(path, entry)
        if offset + size > len(body):
            raise VersionError(f"{path}: truncated blob (array {name!r})")
        raw = body[offset : offset + size]
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header, arrays


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _directory_entry(path, entry) -> tuple[str, tuple[int, ...], int, int]:
    """Name, shape, offset and byte count of one array-directory entry, checked."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise VersionError(f"{path}: corrupt array directory entry {entry!r}")
    name = entry["name"]
    shape, offset, size = entry.get("shape"), entry.get("offset"), entry.get("bytes")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise VersionError(f"{path}: array {name!r} has a bad shape {shape!r}")
    if not _is_count(offset) or not _is_count(size):
        raise VersionError(f"{path}: array {name!r} has a bad offset {offset!r} or byte count {size!r}")
    if size != 8 * math.prod(shape):
        raise VersionError(f"{path}: array {name!r} of shape {shape} cannot hold {size} bytes")
    return name, tuple(shape), offset, size
