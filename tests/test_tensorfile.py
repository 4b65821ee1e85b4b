import struct

import numpy as np
import pytest

from mgquant.tensorfile import (
    MAGIC,
    TensorFileError,
    read_tensor_file,
    write_tensor_file,
)


def random_sections(rng):
    sections = {}
    for i in range(int(rng.integers(1, 5))):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(d) for d in rng.integers(1, 6, size=ndim))
        dtype = [np.float32, np.float64, np.uint8][int(rng.integers(0, 3))]
        if dtype == np.uint8:
            arr = rng.integers(0, 256, size=shape).astype(np.uint8)
        else:
            arr = rng.standard_normal(shape).astype(dtype)
        sections[f"s{i}"] = arr
    return sections


def test_round_trip_values_and_bytes(tmp_path):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sections = random_sections(rng)
        p1 = tmp_path / f"a{seed}.mgqt"
        p2 = tmp_path / f"b{seed}.mgqt"
        write_tensor_file(p1, sections)
        loaded = read_tensor_file(p1)
        assert list(loaded) == list(sections)
        for name in sections:
            assert loaded[name].dtype == sections[name].dtype
            assert np.array_equal(loaded[name], sections[name])
        write_tensor_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()


def test_section_order_preserved(tmp_path):
    p = tmp_path / "o.mgqt"
    write_tensor_file(p, {"zzz": np.zeros(2, np.float32), "aaa": np.ones(3, np.float64)})
    assert list(read_tensor_file(p)) == ["zzz", "aaa"]


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.mgqt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFileError, match="magic"):
        read_tensor_file(p)


def test_unknown_version(tmp_path):
    p = tmp_path / "v.mgqt"
    p.write_bytes(MAGIC + struct.pack("<BH", 9, 0))
    with pytest.raises(TensorFileError, match="version"):
        read_tensor_file(p)


def test_unknown_dtype(tmp_path):
    p = tmp_path / "d.mgqt"
    good = tmp_path / "g.mgqt"
    write_tensor_file(good, {"x": np.zeros(3, np.float32)})
    blob = bytearray(good.read_bytes())
    # dtype byte sits right after name length (1) + name (1 byte "x")
    blob[7 + 1 + 1] = 9
    p.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="dtype"):
        read_tensor_file(p)


def test_truncation(tmp_path):
    good = tmp_path / "g.mgqt"
    write_tensor_file(good, {"x": np.arange(10, dtype=np.float64)})
    blob = good.read_bytes()
    p = tmp_path / "t.mgqt"
    p.write_bytes(blob[:-5])
    with pytest.raises(TensorFileError, match="truncat"):
        read_tensor_file(p)


def test_trailing_garbage(tmp_path):
    good = tmp_path / "g.mgqt"
    write_tensor_file(good, {"x": np.arange(4, dtype=np.float32)})
    p = tmp_path / "t.mgqt"
    p.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(TensorFileError, match="trailing"):
        read_tensor_file(p)


def test_nan_payload_rejected(tmp_path):
    good = tmp_path / "g.mgqt"
    arr = np.arange(4, dtype=np.float64)
    write_tensor_file(good, {"x": arr})
    blob = bytearray(good.read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))
    p = tmp_path / "n.mgqt"
    p.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="NaN"):
        read_tensor_file(p)


def test_duplicate_names_rejected(tmp_path):
    good = tmp_path / "g.mgqt"
    write_tensor_file(good, {"x": np.zeros(1, np.float32), "y": np.zeros(1, np.float32)})
    blob = bytearray(good.read_bytes())
    idx = blob.index(b"y")
    blob[idx:idx + 1] = b"x"
    p = tmp_path / "dup.mgqt"
    p.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="duplicate"):
        read_tensor_file(p)


def test_unsupported_dtype_on_write(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        write_tensor_file(tmp_path / "x.mgqt", {"x": np.zeros(3, np.int32)})


def test_empty_sections_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_tensor_file(tmp_path / "x.mgqt", {})


def test_write_is_atomic_no_temp_left(tmp_path):
    p = tmp_path / "a.mgqt"
    write_tensor_file(p, {"x": np.zeros(2, np.float32)})
    leftovers = [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]
    assert leftovers == []


def test_nonfinite_write_rejected_before_touching_disk(tmp_path):
    out = tmp_path / "sub" / "x.mgqt"
    for dtype in (np.float32, np.float64):
        for bad in (np.nan, np.inf, -np.inf):
            arr = np.array([1.0, bad], dtype=dtype)
            with pytest.raises(ValueError, match="NaN/Inf"):
                write_tensor_file(out, {"ok": np.zeros(2), "bad": arr})
    assert list(tmp_path.iterdir()) == []
