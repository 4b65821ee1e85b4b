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
A file holds at least one section. Writes go to a temp file in the same
directory and are renamed into place, so readers never observe a partial
file. Writing the dict returned by :func:`read_tensor_file` back out
reproduces the original bytes exactly.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .linalg import transposed_copy

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
    arr = np.asarray(array)
    if arr.ndim == 2 and not arr.flags.c_contiguous:
        arr = transposed_copy(arr.T)  # the engine's outputs are column-major
    arr = np.asarray(arr, order="C")  # keeps 0-d arrays 0-d
    stored = arr.dtype.newbyteorder("<")  # either byte order stores little-endian
    if stored not in _DTYPE_TO_CODE:
        raise ValueError(
            f"section {name!r}: unsupported dtype {arr.dtype} (float32/float64/uint8)"
        )
    return arr.astype(stored, copy=False)


def write_atomic(path: str | Path, *parts) -> None:
    """Write ``parts`` (bytes-like, in order) to a temp file beside ``path``, of
    mode 0o666 less the umask as ``open`` would make it, and rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor_file(path: str | Path, sections: dict[str, np.ndarray]) -> None:
    """Write named arrays to ``path`` atomically, preserving section order.

    Every section is validated first; then each payload goes to the file
    straight from its array, with no bytes copy. An array that is not
    C-contiguous (a transposed view, say) is made row-major on the way.

    Raises:
        ValueError: for an unsupported dtype, a bad section name or NaN/Inf
            in a float section, before anything is written.
    """
    if not sections:
        raise ValueError("refusing to write a tensor file with no sections")
    if len(sections) > 0xFFFF:
        raise ValueError("too many sections")

    parts: list = [MAGIC, struct.pack("<BH", VERSION, len(sections))]
    for name, array in sections.items():
        arr = _coerce(name, array)
        if arr.dtype != np.uint8 and not np.isfinite(arr).all():
            raise ValueError(f"section {name!r} contains NaN/Inf")
        encoded = name.encode("utf-8")
        if not 1 <= len(encoded) <= 255:
            raise ValueError(f"section name {name!r} must encode to 1..255 bytes")
        if arr.ndim > 255:
            raise ValueError(f"section {name!r}: too many dimensions")
        parts.append(
            struct.pack("<B", len(encoded)) + encoded
            + struct.pack(f"<BB{arr.ndim}Q", _DTYPE_TO_CODE[arr.dtype], arr.ndim, *arr.shape)
        )
        parts.append(arr.reshape(-1).view(np.uint8))

    write_atomic(path, *parts)


class _Reader:
    """Sequential reads from an open container, bounded by its size."""

    def __init__(self, fh, path: Path):
        self.fh = fh
        self.path = path
        self.left = os.fstat(fh.fileno()).st_size

    def take(self, n: int, what: str) -> bytes:
        data = self.fh.read(n) if n <= self.left else b""
        if len(data) != n:
            raise TensorFileError(f"{self.path}: truncated while reading {what}")
        self.left -= n
        return data

    def take_into(self, arr: np.ndarray, what: str) -> None:
        view = memoryview(arr.reshape(-1).view(np.uint8))
        if self.fh.readinto(view) != view.nbytes:
            raise TensorFileError(f"{self.path}: {what} truncated")
        self.left -= view.nbytes


def read_tensor_file(path: str | Path) -> dict[str, np.ndarray]:
    """Read all sections of a tensor file, in file order.

    Each payload is read straight into a fresh array, so the file's bytes
    are never held a second time.

    Raises:
        TensorFileError: on bad magic, unknown version or dtype, no or
            duplicate sections, an impossible shape, truncation, trailing
            garbage, or non-finite float data.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        cur = _Reader(fh, path)
        if cur.take(4, "magic") != MAGIC:
            raise TensorFileError(f"{path}: bad magic (not a tensor container)")
        version, count = struct.unpack("<BH", cur.take(3, "header"))
        if version != VERSION:
            raise TensorFileError(f"{path}: unsupported version {version}")
        if count == 0:
            raise TensorFileError(f"{path}: no sections")

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
            # Checked before allocating, so a corrupt header cannot ask for more
            # memory than the file holds.
            if n_items * dtype.itemsize > cur.left:
                raise TensorFileError(f"{path}: section {name!r} payload truncated")
            try:
                arr = np.empty(dims, dtype=dtype)
            except ValueError as exc:  # too many dims, or a dim past numpy's limit
                raise TensorFileError(f"{path}: section {name!r}: {exc}") from None
            cur.take_into(arr, f"section {name!r} payload")
            if dtype_code in (0, 1) and arr.size and not np.isfinite(arr).all():
                raise TensorFileError(f"{path}: section {name!r} contains NaN/Inf")
            sections[name] = arr

        if cur.left:
            raise TensorFileError(f"{path}: {cur.left} trailing bytes")
    return sections
