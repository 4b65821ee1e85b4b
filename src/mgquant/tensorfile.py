"""Minimal sectioned tensor container.

A file holds named n-dimensional arrays, written little-endian:

    magic   4 bytes  b"MGQT"
    version u8       currently 1
    count   u16      number of sections
    then per section:
        name length  u8, followed by that many UTF-8 bytes
        dtype        u8   0 = float32, 1 = float64, 2 = uint8
        ndim         u8
        dims         ndim x u64
        payload      prod(dims) * itemsize bytes, row-major (C order)

Section names must be unique within a file. Float payloads must be finite:
the writer refuses NaN/Inf, and the reader treats them as corruption.
Writes go to a temp file in the same directory and are renamed into place,
so readers never observe a partial file. Writing the dict returned by
:func:`read_tensor_file` back out reproduces the original bytes exactly.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "TensorFileError",
    "MAGIC",
    "VERSION",
    "read_tensor_file",
    "write_atomic",
    "write_tensor_file",
]

MAGIC = b"MGQT"
VERSION = 1

_DTYPE_TO_CODE = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}


class TensorFileError(Exception):
    """Raised for malformed or truncated tensor container files."""


def _coerce(name: str, array: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(array)
    if arr.dtype == np.float32:
        arr = arr.astype("<f4", copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype("<f8", copy=False)
    elif arr.dtype == np.uint8:
        arr = arr.astype("u1", copy=False)
    else:
        raise ValueError(
            f"section {name!r}: unsupported dtype {arr.dtype} (float32/float64/uint8)"
        )
    return arr


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor_file(path: str | Path, sections: dict[str, np.ndarray]) -> None:
    """Write named arrays to ``path`` atomically, preserving section order.

    Raises:
        ValueError: for an unsupported dtype, a bad section name or NaN/Inf
            in a float section, before anything is written.
    """
    if not sections:
        raise ValueError("refusing to write a tensor file with no sections")
    if len(sections) > 0xFFFF:
        raise ValueError("too many sections")

    blobs: list[bytes] = [MAGIC, struct.pack("<BH", VERSION, len(sections))]
    for name, array in sections.items():
        arr = _coerce(name, array)
        if arr.dtype != np.uint8 and not np.isfinite(arr).all():
            raise ValueError(f"section {name!r} contains NaN/Inf")
        encoded = name.encode("utf-8")
        if not 1 <= len(encoded) <= 255:
            raise ValueError(f"section name {name!r} must encode to 1..255 bytes")
        if arr.ndim > 255:
            raise ValueError(f"section {name!r}: too many dimensions")
        blobs.append(struct.pack("<B", len(encoded)))
        blobs.append(encoded)
        blobs.append(struct.pack("<BB", _DTYPE_TO_CODE[arr.dtype], arr.ndim))
        blobs.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        blobs.append(arr.tobytes(order="C"))

    write_atomic(path, b"".join(blobs))


class _Cursor:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TensorFileError(f"{self.path}: truncated while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def read_tensor_file(path: str | Path) -> dict[str, np.ndarray]:
    """Read all sections of a tensor file, in file order.

    Raises:
        TensorFileError: on bad magic, unknown version or dtype, duplicate
            names, truncation, trailing garbage, or non-finite float data.
    """
    path = Path(path)
    cur = _Cursor(path.read_bytes(), path)

    if cur.take(4, "magic") != MAGIC:
        raise TensorFileError(f"{path}: bad magic (not a tensor container)")
    version, count = struct.unpack("<BH", cur.take(3, "header"))
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")

    sections: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<B", cur.take(1, f"section {i} name length"))
        if name_len == 0:
            raise TensorFileError(f"{path}: section {i} has empty name")
        try:
            name = cur.take(name_len, f"section {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TensorFileError(f"{path}: section {i} name is not UTF-8") from exc
        if name in sections:
            raise TensorFileError(f"{path}: duplicate section name {name!r}")
        dtype_code, ndim = struct.unpack("<BB", cur.take(2, f"section {name!r} header"))
        if dtype_code not in _CODE_TO_DTYPE:
            raise TensorFileError(f"{path}: section {name!r} has unknown dtype {dtype_code}")
        dtype = _CODE_TO_DTYPE[dtype_code]
        dims = struct.unpack(f"<{ndim}Q", cur.take(8 * ndim, f"section {name!r} dims"))
        n_items = 1
        for d in dims:
            n_items *= d
        payload_len = n_items * dtype.itemsize
        if payload_len > len(cur.data) - cur.pos:
            raise TensorFileError(f"{path}: section {name!r} payload truncated")
        payload = cur.take(payload_len, f"section {name!r} payload")
        arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        if dtype_code in (0, 1) and arr.size and not np.isfinite(arr).all():
            raise TensorFileError(f"{path}: section {name!r} contains NaN/Inf")
        sections[name] = arr

    if cur.pos != len(cur.data):
        raise TensorFileError(f"{path}: {len(cur.data) - cur.pos} trailing bytes")
    return sections
