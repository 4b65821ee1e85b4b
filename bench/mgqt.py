"""Reader and writer for the `.mgqt` tensor container, kept apart from the package.

The benchmark writes its inputs and reads the program's outputs with this
code, so a change to `mgquant.tensorfile` cannot change what the benchmark
feeds in or how it checks what comes out. Layout (little-endian):

    magic "MGQT" | version u8 (=1) | section count u16
    per section: name length u8 | name | dtype u8 | ndim u8 | dims u64 x ndim | payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"MGQT"
_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}
_DTYPES = {code: dtype for dtype, code in _CODES.items()}


def write(path: Path, sections: dict[str, np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<BH", 1, len(sections)))
        for name, array in sections.items():
            arr = np.ascontiguousarray(array)
            arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            encoded = name.encode()
            fh.write(struct.pack("<B", len(encoded)) + encoded)
            fh.write(struct.pack(f"<BB{arr.ndim}Q", _CODES[arr.dtype], arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def read(path: Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<BH", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    pos = 7
    sections: dict[str, np.ndarray] = {}
    for _ in range(count):
        n = data[pos]
        name = data[pos + 1 : pos + 1 + n].decode()
        pos += 1 + n
        code, ndim = struct.unpack_from("<BB", data, pos)
        dims = struct.unpack_from(f"<{ndim}Q", data, pos + 2)
        pos += 2 + 8 * ndim
        dtype = _DTYPES[code]
        size = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        sections[name] = np.frombuffer(data, dtype, count=size // dtype.itemsize,
                                       offset=pos).reshape(dims)
        pos += size
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return sections
