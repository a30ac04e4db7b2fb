import builtins
import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from robust_recon import artifacts
from robust_recon.artifacts import (
    KIND_IMAGE,
    KIND_MATRIX,
    KIND_SPECTRUM_SET,
    KIND_VECTOR,
    MAGIC,
    MANIFEST_NAME,
    IntegrityError,
    NumericalError,
    atomic_write_bytes,
    atomic_write_text,
    load_manifest,
    read_artifact,
    read_verified,
    sha256_file,
    verify_manifest,
    write_artifact,
    write_artifact_blocks,
    write_manifest,
)


def test_golden_header_layout(tmp_path):
    # oracle: assemble the expected bytes by hand from the format definition
    path = tmp_path / "v.rrc"
    values = np.array([1.5, -2.0])
    write_artifact(path, KIND_VECTOR, values)
    expected = (
        MAGIC
        + struct.pack("<B", KIND_VECTOR)
        + struct.pack("<Q", 1)
        + struct.pack("<Q", 2)
        + struct.pack("<2d", 1.5, -2.0)
    )
    assert path.read_bytes() == expected


def test_golden_complex_payload_interleaved(tmp_path):
    path = tmp_path / "s.rrc"
    spectra = np.array([[[1.0 + 2.0j]]])
    write_artifact(path, KIND_SPECTRUM_SET, spectra)
    expected = (
        MAGIC
        + struct.pack("<B", KIND_SPECTRUM_SET)
        + struct.pack("<Q", 3)
        + struct.pack("<3Q", 1, 1, 1)
        + struct.pack("<2d", 1.0, 2.0)
    )
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "kind,shape,complex_data",
    [
        (KIND_MATRIX, (7, 3), False),
        (KIND_VECTOR, (11,), False),
        (KIND_SPECTRUM_SET, (4, 2, 9), True),
        (KIND_IMAGE, (5, 4, 3), False),
    ],
)
def test_round_trip_identity(tmp_path, kind, shape, complex_data):
    rng = np.random.default_rng(kind)
    data = rng.standard_normal(shape)
    if complex_data:
        data = data + 1j * rng.standard_normal(shape)
    path = tmp_path / f"k{kind}.rrc"
    write_artifact(path, kind, data)
    back_kind, back = read_artifact(path)
    assert back_kind == kind
    assert back.dtype == (np.complex128 if complex_data else np.float64)
    assert np.array_equal(back, data)


def test_write_rejects_bad_rank_and_dtype(tmp_path):
    with pytest.raises(ValueError):
        write_artifact(tmp_path / "a.rrc", KIND_MATRIX, np.zeros(3))
    with pytest.raises(ValueError):
        write_artifact(tmp_path / "b.rrc", KIND_VECTOR, np.zeros(3, dtype=np.complex128))
    with pytest.raises(ValueError):
        write_artifact(tmp_path / "c.rrc", 9, np.zeros((2, 2)))
    assert list(tmp_path.iterdir()) == []


def test_read_integrity_errors(tmp_path):
    path = tmp_path / "m.rrc"
    write_artifact(path, KIND_MATRIX, np.ones((2, 2)))
    raw = path.read_bytes()

    short = tmp_path / "short.rrc"
    short.write_bytes(raw[:3])
    with pytest.raises(IntegrityError):
        read_artifact(short)

    bad_magic = tmp_path / "magic.rrc"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(IntegrityError):
        read_artifact(bad_magic)

    bad_kind = tmp_path / "kind.rrc"
    bad_kind.write_bytes(raw[:4] + struct.pack("<B", 9) + raw[5:])
    with pytest.raises(IntegrityError):
        read_artifact(bad_kind)

    bad_ndim = tmp_path / "ndim.rrc"
    bad_ndim.write_bytes(raw[:5] + struct.pack("<Q", 3) + raw[13:])
    with pytest.raises(IntegrityError):
        read_artifact(bad_ndim)

    truncated = tmp_path / "trunc.rrc"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(IntegrityError):
        read_artifact(truncated)

    padded = tmp_path / "padded.rrc"
    padded.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(IntegrityError):
        read_artifact(padded)


def test_manifest_round_trip_and_hash_oracle(tmp_path):
    write_artifact(tmp_path / "a.rrc", KIND_VECTOR, np.arange(3.0))
    write_artifact(tmp_path / "b.rrc", KIND_VECTOR, np.arange(4.0))
    entries = {name: sha256_file(tmp_path / name) for name in ("a.rrc", "b.rrc")}
    write_manifest(tmp_path, entries)

    # independent hash recomputation
    for name in entries:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert entries[name] == digest

    assert load_manifest(tmp_path) == entries
    assert verify_manifest(tmp_path) == entries


def test_manifest_text_is_sorted_and_stable(tmp_path):
    (tmp_path / "z.bin").write_bytes(b"z")
    (tmp_path / "a.bin").write_bytes(b"a")
    write_manifest(tmp_path, {
        "z.bin": sha256_file(tmp_path / "z.bin"),
        "a.bin": sha256_file(tmp_path / "a.bin"),
    })
    text = (tmp_path / MANIFEST_NAME).read_text()
    assert text.index("a.bin") < text.index("z.bin")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {"files"}


def test_verify_detects_modification_and_missing_record(tmp_path):
    path = tmp_path / "a.rrc"
    write_artifact(path, KIND_VECTOR, np.arange(3.0))
    write_manifest(tmp_path, {"a.rrc": sha256_file(path)})

    assert verify_manifest(tmp_path) == {"a.rrc": sha256_file(path)}
    with pytest.raises(IntegrityError, match="not recorded"):
        read_verified(tmp_path, "other.rrc", KIND_VECTOR)

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="a.rrc: sha256 mismatch"):
        verify_manifest(tmp_path)


def test_read_verified_hashes_and_parses_one_read(tmp_path, monkeypatch):
    array = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "a.rrc"
    write_manifest(tmp_path, {"a.rrc": write_artifact(path, KIND_MATRIX, array)})
    reads = []
    read_bytes = Path.read_bytes
    builtin_open = builtins.open

    def counting_read_bytes(self):
        reads.append(self.name)
        return read_bytes(self)

    def counting_open(file, *args, **kwargs):
        reads.append(Path(file).name)
        return builtin_open(file, *args, **kwargs)

    def no_second_hash(path):
        raise AssertionError("the artifact was hashed from disk a second time")

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(artifacts, "sha256_file", no_second_hash)
    got = read_verified(tmp_path, "a.rrc", KIND_MATRIX)
    assert reads == ["a.rrc"]
    assert got.dtype == np.float64 and np.array_equal(got, array)
    monkeypatch.undo()
    assert np.array_equal(got, read_artifact(path)[1])


def test_read_verified_errors(tmp_path):
    path = tmp_path / "a.rrc"
    write_manifest(tmp_path, {"a.rrc": write_artifact(path, KIND_VECTOR, np.arange(3.0))})
    with pytest.raises(IntegrityError, match="expected artifact kind 1, found 2"):
        read_verified(tmp_path, "a.rrc", KIND_MATRIX)
    with pytest.raises(IntegrityError, match="not recorded in manifest"):
        read_verified(tmp_path, "other.rrc", KIND_VECTOR)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="sha256 mismatch"):
        read_verified(tmp_path, "a.rrc", KIND_VECTOR)
    # a recorded file that is gone is an I/O failure, as is a missing manifest
    path.unlink()
    with pytest.raises(OSError):
        read_verified(tmp_path, "a.rrc", KIND_VECTOR)
    with pytest.raises(OSError):
        read_verified(tmp_path / "absent", "a.rrc", KIND_VECTOR)


@pytest.mark.parametrize("kind, shape, message", [
    (KIND_VECTOR, None, "expected artifact kind 2, found 1"),
    (KIND_MATRIX, (3, 5), r"shape \(3, 4\) does not match the config's \(3, 5\)"),
    (KIND_MATRIX, (4,), r"shape \(3, 4\) does not match the config's \(4,\)"),
])
def test_read_verified_checks_kind_and_shape_before_the_payload(tmp_path, kind, shape,
                                                                message):
    # the payload is modified and unread: the header's error comes first
    path = tmp_path / "a.rrc"
    write_manifest(tmp_path, {"a.rrc": write_artifact(path, KIND_MATRIX, np.ones((3, 4)))})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match=f"^a.rrc: {message}$"):
        read_verified(tmp_path, "a.rrc", kind, shape)
    with pytest.raises(IntegrityError, match="^a.rrc: sha256 mismatch"):
        read_verified(tmp_path, "a.rrc", KIND_MATRIX, (3, 4))


def spectrum_run(tmp_path, scans, bins=40):
    """A run directory holding one spectrum set of random complex values."""
    rng = np.random.default_rng(scans)
    spectra = rng.standard_normal((scans, 2, bins)) + 1j * rng.standard_normal((scans, 2, bins))
    path = tmp_path / "s.rrc"
    write_manifest(tmp_path, {"s.rrc": write_artifact(path, KIND_SPECTRUM_SET, spectra)})
    return path, spectra


@pytest.mark.parametrize("scans", [1, 64, 130])  # 130 leaves a last chunk of 2
@pytest.mark.parametrize("bins", [slice(5, 23), np.arange(5, 23), np.arange(40),
                                  np.arange(0), [39, 0, 7]])
def test_read_verified_bins_is_the_full_read_indexed(tmp_path, scans, bins):
    path, spectra = spectrum_run(tmp_path, scans)
    # the band comes transposed, (coils, bins, scans)
    got = read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=bins)
    want = read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET)[..., bins].transpose(1, 2, 0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() == spectra[..., bins].transpose(1, 2, 0).tobytes()
    assert got.flags.writeable and got.flags.c_contiguous
    kind, whole = read_artifact(path)
    assert kind == KIND_SPECTRUM_SET and whole.tobytes() == spectra.tobytes()


def test_read_verified_bins_never_holds_the_payload(tmp_path):
    spectrum_run(tmp_path, 2000)  # a 2.56 MB payload, 82 kB chunks
    tracemalloc.start()
    try:
        got = read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=slice(0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 256_000 and peak < 2 * got.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("scan, bin_", [(0, 10), (129, 39), (70, 0)])
def test_read_verified_bins_checks_every_bin(tmp_path, bad, scan, bin_):
    # in the bins or out of them: the file's other bins are seen only here
    path, spectra = spectrum_run(tmp_path, 130)
    spectra[scan, 1, bin_] = bad
    write_manifest(tmp_path, {"s.rrc": write_artifact(path, KIND_SPECTRUM_SET, spectra)})
    for bins in (slice(20, 30), None):
        with pytest.raises(NumericalError, match="^s.rrc: spectra hold non-finite values$"):
            read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=bins)


def test_read_verified_bins_integrity_wins(tmp_path):
    path, _ = spectrum_run(tmp_path, 130)
    header = 13 + 8 * 3
    raw = bytearray(path.read_bytes())
    raw[header + 6:header + 8] = b"\xf8\xff"  # the first real part becomes NaN
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="^s.rrc: sha256 mismatch"):
        read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=slice(20, 30))
    # a flipped header byte is found before the digest: 130 scans become 131
    raw = bytearray(spectrum_run(tmp_path, 130)[0].read_bytes())
    raw[13] ^= 0x01
    path.write_bytes(bytes(raw))
    for read in (lambda: read_artifact(path),
                 lambda: read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET),
                 lambda: read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=slice(9))):
        with pytest.raises(IntegrityError, match="s.rrc: payload is 166400 bytes, expected 167680"):
            read()


@pytest.mark.parametrize("edit", [lambda raw: raw[:-16], lambda raw: raw[:-1],
                                  lambda raw: raw + b"\0" * 16, lambda raw: raw + b"\0"])
def test_read_verified_bins_rejects_a_payload_of_the_wrong_length(tmp_path, edit):
    # re-hashed into the manifest, so the length check is what fails
    path, _ = spectrum_run(tmp_path, 130)
    path.write_bytes(edit(path.read_bytes()))
    write_manifest(tmp_path, {"s.rrc": sha256_file(path)})
    with pytest.raises(IntegrityError, match="s.rrc: payload is"):
        read_verified(tmp_path, "s.rrc", KIND_SPECTRUM_SET, bins=slice(20, 30))


def test_read_verified_bins_errors(tmp_path):
    spectrum_run(tmp_path, 3)
    with pytest.raises(IntegrityError, match="expected artifact kind 4, found 3"):
        read_verified(tmp_path, "s.rrc", KIND_IMAGE, bins=slice(2))
    with pytest.raises(IntegrityError, match="not recorded in manifest"):
        read_verified(tmp_path, "other.rrc", KIND_SPECTRUM_SET, bins=slice(2))


def test_writers_return_sha256_of_the_file(tmp_path):
    digests = {
        "a.rrc": write_artifact(tmp_path / "a.rrc", KIND_SPECTRUM_SET,
                                np.ones((2, 1, 3), dtype=np.complex128)),
        "b.bin": atomic_write_bytes(tmp_path / "b.bin", b"payload"),
        "c.txt": atomic_write_text(tmp_path / "c.txt", "caf\u00e9\n"),
    }
    for name, digest in digests.items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_load_manifest_rejects_garbage(tmp_path):
    for garbage in (b"not json", b'{"files": "nope"}', b"[]", b"null", b'"files"',
                    b"\xff\xfe"):
        (tmp_path / MANIFEST_NAME).write_bytes(garbage)
        with pytest.raises(IntegrityError):
            load_manifest(tmp_path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("kind,array", [
    (KIND_MATRIX, np.asfortranarray(np.arange(12.0).reshape(3, 4))),
    (KIND_MATRIX, np.arange(12.0).reshape(3, 4).T),
    (KIND_VECTOR, np.arange(5.0).astype(">f8")),
    (KIND_VECTOR, np.zeros(0)),
    (KIND_SPECTRUM_SET, (np.arange(24.0) - 3.5j).reshape(2, 3, 4).transpose(2, 0, 1)),
    (KIND_SPECTRUM_SET, np.zeros((0, 2, 3), dtype=np.complex128)),
    (KIND_IMAGE, np.zeros((2, 0, 3))),
])
def test_written_bytes_are_header_and_contiguous_payload(tmp_path, kind, array):
    path = tmp_path / "a.rrc"
    digest = write_artifact(path, kind, array)
    dtype = "<c16" if kind == KIND_SPECTRUM_SET else "<f8"
    header = (MAGIC + struct.pack("<BQ", kind, array.ndim)
              + struct.pack(f"<{array.ndim}Q", *array.shape))
    raw = path.read_bytes()
    assert raw == header + np.ascontiguousarray(array, dtype).tobytes()
    assert digest == hashlib.sha256(raw).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == ["a.rrc"]

    # both readers hand back writable, aligned arrays with the values
    write_manifest(tmp_path, {"a.rrc": digest})
    for back in (read_artifact(path)[1], read_verified(tmp_path, "a.rrc", kind)):
        assert back.flags.writeable and back.flags.aligned
        assert back.shape == array.shape and np.array_equal(back, array)
        back[...] = 7.0
        assert np.all(back == 7.0)
    assert path.read_bytes() == raw


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_artifact(tmp_path / "a.rrc", KIND_SPECTRUM_SET, np.ones((2, 3, 4), complex))
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_bytes(tmp_path / "b.bin", b"head", memoryview(b"tail"))
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_bytes_joins_chunks(tmp_path):
    digest = atomic_write_bytes(tmp_path / "c.bin", b"ab", memoryview(b"cd"), bytearray(b""))
    assert (tmp_path / "c.bin").read_bytes() == b"abcd"
    assert digest == hashlib.sha256(b"abcd").hexdigest()


@pytest.mark.parametrize("kind, array, sizes", [
    (KIND_SPECTRUM_SET, (np.arange(70.0) - 1.5j).reshape(7, 2, 5), [3, 0, 3, 1]),
    (KIND_SPECTRUM_SET, (np.arange(70.0) + 2j).reshape(7, 5, 2).transpose(0, 2, 1), [7]),
    (KIND_MATRIX, np.arange(12.0).reshape(3, 4).T, [1, 1, 2]),
    (KIND_VECTOR, np.arange(5.0).astype(">f8"), [2, 3]),
    (KIND_IMAGE, np.zeros((0, 2, 3)), []),
])
def test_blocks_write_the_bytes_of_the_whole_array(tmp_path, kind, array, sizes):
    # the same file and digest as write_artifact on the concatenated blocks,
    # whatever their sizes, layout or byte order
    whole = write_artifact(tmp_path / "whole.rrc", kind, array)
    cuts = np.cumsum([0] + sizes)
    blocks = (array[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]))
    digest = write_artifact_blocks(tmp_path / "blocks.rrc", kind, array.shape, blocks)
    raw = (tmp_path / "blocks.rrc").read_bytes()
    assert raw == (tmp_path / "whole.rrc").read_bytes()
    assert digest == whole == hashlib.sha256(raw).hexdigest()


def _spectra(*rows):
    return [np.ones((n, 2, 3), dtype=np.complex128) for n in rows]


@pytest.mark.parametrize("blocks", [
    _spectra(2, 1),          # 3 of the 4 rows
    _spectra(2, 3),          # past the last row
    [np.ones((2, 3, 2))],    # another trailing shape
    [np.ones((4, 6))],       # another rank
])
def test_blocks_that_miss_the_shape_leave_no_file(tmp_path, blocks):
    with pytest.raises(ValueError):
        write_artifact_blocks(tmp_path / "a.rrc", KIND_SPECTRUM_SET, (4, 2, 3), blocks)
    assert list(tmp_path.iterdir()) == []


def test_failing_block_source_leaves_no_file(tmp_path):
    # a check inside the iterable, as simulate makes one per calibration
    # block: the error surfaces and neither the final name nor a temp file
    # is left, though a first block was already written
    def checked():
        yield np.ones((2, 2, 3), dtype=np.complex128)
        block = np.full((2, 2, 3), np.inf, dtype=np.complex128)
        if not np.isfinite(block).all():
            raise ArithmeticError("non-finite block")
        yield block

    with pytest.raises(ArithmeticError, match="non-finite block"):
        write_artifact_blocks(tmp_path / "a.rrc", KIND_SPECTRUM_SET, (4, 2, 3), checked())
    assert list(tmp_path.iterdir()) == []
