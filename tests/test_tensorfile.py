import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgquant.tensorfile import (
    MAGIC,
    TensorFileError,
    read_tensor_file,
    read_tensor_headers,
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


def test_headers_walk_the_file_without_its_payloads(tmp_path):
    path = tmp_path / "h.mgqt"
    write_tensor_file(path, {"a": np.zeros((3, 2), dtype=np.float32),
                             "b": np.arange(4, dtype=np.uint8)})
    assert read_tensor_headers(path) == {"a": (np.dtype("<f4"), (3, 2)),
                                         "b": (np.dtype("u1"), (4,))}
    blob = path.read_bytes()
    for cut, match in ((blob[:-1], "truncat"), (blob + b"x", "trailing"),
                       (b"XXXX" + blob[4:], "magic")):
        path.write_bytes(cut)
        with pytest.raises(TensorFileError, match=match):
            read_tensor_headers(path)


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


@pytest.mark.parametrize("dtype", ["i4", ">i4", "f2", "?", ">c8"])
def test_other_dtypes_rejected_in_either_byte_order(tmp_path, dtype):
    arr = np.zeros(3, dtype)
    with pytest.raises(ValueError, match=rf"section 'x': unsupported dtype {arr.dtype} \("):
        write_tensor_file(tmp_path / "x.mgqt", {"x": arr})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dtype", [">f4", ">f8"])
def test_big_endian_floats_write_the_bytes_of_their_little_endian_copy(tmp_path, dtype):
    x = np.random.default_rng(4).standard_normal((3, 5)).astype(dtype)
    write_tensor_file(tmp_path / "a.mgqt", {"x": x, "z": np.zeros(3, dtype)})
    write_tensor_file(tmp_path / "b.mgqt", {"x": x.astype(x.dtype.newbyteorder("<")),
                                            "z": np.zeros(3, dtype[1:])})
    assert (tmp_path / "a.mgqt").read_bytes() == (tmp_path / "b.mgqt").read_bytes()
    back = read_tensor_file(tmp_path / "a.mgqt")["x"]
    assert back.dtype == np.dtype("<" + dtype[1:]) and np.array_equal(back, x)


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


def test_any_layout_writes_the_bytes_of_its_row_major_copy(tmp_path):
    # payloads go to the file straight from the arrays; a transposed or
    # strided array is written as its C copy
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7))
    sections = {"t": x.T, "s": x[::2, 1::3], "f": np.asfortranarray(x.astype(np.float32)),
                "u": rng.integers(0, 256, (7, 5)).astype(np.uint8).T}
    copies = {k: np.ascontiguousarray(v) for k, v in sections.items()}
    write_tensor_file(tmp_path / "a.mgqt", sections)
    write_tensor_file(tmp_path / "b.mgqt", copies)
    assert (tmp_path / "a.mgqt").read_bytes() == (tmp_path / "b.mgqt").read_bytes()
    back = read_tensor_file(tmp_path / "a.mgqt")
    assert all(np.array_equal(back[k], v) for k, v in sections.items())


def test_no_sections_rejected(tmp_path):
    # the writer refuses an empty file, so the reader treats one as corrupt
    p = tmp_path / "e.mgqt"
    p.write_bytes(MAGIC + struct.pack("<BH", 1, 0))
    with pytest.raises(TensorFileError, match="no sections"):
        read_tensor_file(p)


def test_zero_dim_section_round_trips(tmp_path):
    p = tmp_path / "z.mgqt"
    write_tensor_file(p, {"s": np.array(2.5)})
    back = read_tensor_file(p)["s"]
    assert back.shape == () and back == 2.5
    q = tmp_path / "z2.mgqt"
    write_tensor_file(q, {"s": back})
    assert q.read_bytes() == p.read_bytes()


@st.composite
def container_bytes(draw):
    """A valid container, then maybe cut, overwritten, spliced or extended."""
    sections = {}
    for i in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from(["<f4", "<f8", "u1"]))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        raw = draw(st.binary(min_size=8 * int(np.prod(shape)), max_size=8 * int(np.prod(shape))))
        arr = np.frombuffer(raw, dtype=np.uint8)[: int(np.prod(shape)) * np.dtype(dtype).itemsize]
        arr = arr.view(dtype).reshape(shape)
        if arr.dtype.kind == "f":
            arr = np.where(np.isfinite(arr), arr, 0).astype(dtype)
        sections[draw(st.text(min_size=1, max_size=4)) + str(i)] = arr
    blob = [MAGIC, struct.pack("<BH", 1, len(sections))]
    for name, arr in sections.items():
        encoded = name.encode("utf-8")
        code = {"<f4": 0, "<f8": 1, "|u1": 2}[arr.dtype.str]
        blob += [struct.pack("<B", len(encoded)), encoded, struct.pack("<BB", code, arr.ndim),
                 struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
    data = bytearray(b"".join(blob))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["cut", "set", "splice", "append"]))
        pos = draw(st.integers(0, len(data)))
        if op == "cut":
            del data[pos:]
        elif op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "splice":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=9))
        else:
            data += draw(st.binary(min_size=1, max_size=9))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(blob=st.one_of(st.binary(max_size=64), container_bytes()))
def test_fuzzed_bytes_fail_cleanly_or_round_trip(tmp_path_factory, blob):
    # any byte string either raises TensorFileError or reads into arrays
    # that write back to the very same bytes
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz.mgqt"
    path.write_bytes(blob)
    try:
        headers = read_tensor_headers(path)
    except TensorFileError:
        headers = None
    try:
        sections = read_tensor_file(path)
    except TensorFileError:
        return
    assert headers == {name: (arr.dtype, arr.shape) for name, arr in sections.items()}
    for arr in sections.values():
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
    again = root / "fuzz_again.mgqt"
    write_tensor_file(again, sections)
    assert again.read_bytes() == blob
