"""Binary artifact container and run manifests.

Every array the pipeline persists goes through one little-endian format:

    magic "RRC1" | kind u8 | ndim u64 | dims u64[ndim] | payload f64[]

Payload is row-major. Kind 3 (spectrum set) is complex and stores each
element as (re, im); all other kinds are real. Readers validate magic,
kind, dimension count and exact payload length and raise IntegrityError
on any mismatch, so a truncated or bit-flipped file never parses.

manifest.json maps artifact names to sha256 hex digests. write_json writes
it, the stage records and the timing sidecars in one format (sorted keys,
two-space indent, final newline); the manifest and the records hold no
timestamps, so reruns with the same seed produce byte-identical bytes.
Wall-clock timing lives in sidecar files that are deliberately not part of
the manifest. A stage checks each input as it reads it (read_verified):
kind and shape from the header before the payload, then the digest of
every byte, then the finiteness of a spectrum set; nothing is returned
before the digest has matched. verify_manifest
checks every recorded file of a run directory at once. Both readers run one
chunked loop, which reads the payload straight into the returned array, or
keeps only some bins of the last axis, so a caller that needs a frequency
band never holds the whole payload.

All writes go through a temp file and os.replace, so a crash cannot leave
a half-written artifact under the final name. write_artifact_blocks writes
an array from its blocks as they are made, so the array need never exist
whole; write_artifact is its one-block case.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import IntegrityError, NumericalError

__all__ = [
    "KIND_MATRIX",
    "KIND_VECTOR",
    "KIND_SPECTRUM_SET",
    "KIND_IMAGE",
    "write_artifact",
    "write_artifact_blocks",
    "read_artifact",
    "read_verified",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_json",
    "sha256_file",
    "MANIFEST_NAME",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
]

MAGIC = b"RRC1"
KIND_MATRIX = 1
KIND_VECTOR = 2
KIND_SPECTRUM_SET = 3
KIND_IMAGE = 4

_KIND_NDIM = {KIND_MATRIX: 2, KIND_VECTOR: 1, KIND_SPECTRUM_SET: 3, KIND_IMAGE: 3}
_MAX_HEADER = 13 + 8 * max(_KIND_NDIM.values())
# entries of the first axis per chunk of a read: 2 MB of a 2-coil,
# 1025-bin spectrum set
_CHUNK_ROWS = 64

MANIFEST_NAME = "manifest.json"


def atomic_write_bytes(path, *chunks) -> str:
    """Write the concatenated chunks (bytes-like objects, e.g. a header
    and a memoryview of a payload) via a temp file in the same directory,
    then rename over. Returns the sha256 hex digest of the bytes written."""
    return _write_chunks(path, chunks)


def _write_chunks(path, chunks) -> str:
    """atomic_write_bytes over an iterable of chunks, taken one at a time as
    they are written. An exception raised while the iterable yields removes
    the temp file, so nothing is left under the final name or beside it."""
    path = Path(path)
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def atomic_write_text(path, text: str) -> str:
    return atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, payload) -> str:
    """Write ``payload`` as JSON with sorted keys, two-space indent and a
    final newline, the one format of every JSON file in a run directory.
    Returns the sha256 hex digest of the file."""
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_artifact(path, kind: int, array: np.ndarray) -> str:
    """Serialize one array; returns the sha256 hex digest of the file. The
    one-block case of write_artifact_blocks."""
    array = np.asarray(array)
    return write_artifact_blocks(path, kind, array.shape, [array])


def write_artifact_blocks(path, kind: int, shape, blocks) -> str:
    """Serialize an array of the given shape from an iterable of its blocks
    along the first axis, in order, writing each block as it is taken, so
    the whole array never needs to exist. Returns the sha256 hex digest of
    the file. The kind fixes both rank and realness. A C-contiguous block
    already in the payload dtype is written and hashed straight from its
    memory; any other block is converted once. Raises ValueError, and
    leaves no file, when a block does not fit the shape or the kind, or the
    blocks do not fill the shape; an exception raised by the iterable
    leaves no file either."""
    if kind not in _KIND_NDIM:
        raise ValueError(f"unknown artifact kind {kind}")
    shape = tuple(int(d) for d in shape)
    if len(shape) != _KIND_NDIM[kind]:
        raise ValueError(
            f"kind {kind} stores {_KIND_NDIM[kind]}-d arrays, got {len(shape)}-d")
    dtype = _payload_dtype(kind)
    header = MAGIC + struct.pack("<B", kind) + struct.pack("<Q", len(shape))
    header += struct.pack(f"<{len(shape)}Q", *shape)

    def chunks():
        yield header
        rows = 0
        for block in blocks:
            block = np.asarray(block)
            if kind != KIND_SPECTRUM_SET and np.iscomplexobj(block):
                raise ValueError(f"kind {kind} stores real arrays")
            if (block.ndim != len(shape) or block.shape[1:] != shape[1:]
                    or rows + block.shape[0] > shape[0]):
                raise ValueError(f"block of shape {block.shape} does not fit {shape}")
            rows += block.shape[0]
            yield memoryview(np.ascontiguousarray(block, dtype=dtype))
        if rows != shape[0]:
            raise ValueError(f"blocks fill {rows} of the {shape[0]} rows of {shape}")

    return _write_chunks(path, chunks())


def read_artifact(path):
    """Read one artifact; returns (kind, array), a new writable array.
    Raises IntegrityError on a malformed or truncated file and OSError when
    the file is missing. Non-finite values are returned as they are."""
    _, kind, array, _ = _read(path, os.fspath(path))
    return kind, array


def read_verified(run_dir, name: str, kind: int, shape=None, bins=None) -> np.ndarray:
    """Read artifact ``name`` of a run directory once, check the sha256 of
    its bytes against the manifest, and return the writable array.

    The header is checked first, before any payload byte is read: a
    malformed header, another kind, or dims other than ``shape`` (a tuple;
    None skips the check) raise IntegrityError. Every byte is hashed as it
    is read, and nothing is returned before the digest has matched; a
    mismatch raises IntegrityError, and wins over non-finite values. A
    spectrum set holding NaN or inf in any bin then raises NumericalError.
    A missing manifest entry raises IntegrityError, a missing file or
    manifest OSError.

    With ``bins``, an index or slice of the last axis (the frequency bins of
    a spectrum set; cli passes band_pass's run of bins as a slice), returns
    a new C-contiguous array equal to
    ``np.moveaxis(read_verified(...)[..., bins], 0, -1)``, the first axis
    moved last: (coils, bins, scans) for a spectrum set. It never holds the
    whole payload: the file is read _CHUNK_ROWS entries of the first axis at
    a time into one reused buffer and only the bins are copied out.
    """
    run_dir = Path(run_dir)
    entries = load_manifest(run_dir)
    if name not in entries:
        raise IntegrityError(f"{name}: not recorded in manifest")
    digest, _, array, finite = _read(run_dir / name, name, kind, shape, bins)
    if digest != entries[name]:
        raise IntegrityError(f"{name}: sha256 mismatch, file was modified")
    if not finite:
        raise NumericalError(f"{name}: spectra hold non-finite values")
    return array


def _read(path, name: str, kind=None, shape=None, bins=None):
    """(sha256 hex digest, kind, array, whether a spectrum set is finite) of
    an artifact, the one payload reader. The header is parsed and checked
    against ``kind`` and ``shape`` (None skips either), then the payload is
    read _CHUNK_ROWS entries of the first axis at a time: straight into the
    returned array, or with ``bins`` into one reused buffer whose bins are
    copied out into the returned array, the first axis last. Both are
    allocated by numpy in the payload dtype, so they
    are aligned for numpy's fast (and BLAS) loops."""
    with open(path, "rb") as fh:
        head = fh.read(_MAX_HEADER)
        found, dims, offset = _parse_header(head, name, os.fstat(fh.fileno()).st_size)
        if kind is not None and found != kind:
            raise IntegrityError(f"{name}: expected artifact kind {kind}, found {found}")
        if shape is not None and dims != tuple(shape):
            raise IntegrityError(
                f"{name}: shape {dims} does not match the config's {tuple(shape)}")
        digest = hashlib.sha256(head[:offset])
        fh.seek(offset)
        dtype = _payload_dtype(found)
        buf = None
        if bins is None:
            out = np.empty(dims, dtype=dtype)
        else:
            out = np.empty(dims[1:-1] + (np.arange(dims[-1])[bins].size, dims[0]),
                           dtype=dtype)
            buf = np.empty((min(_CHUNK_ROWS, dims[0]),) + dims[1:], dtype=dtype)
        finite = True
        for lo in range(0, dims[0], _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, dims[0])
            chunk = out[lo:hi] if buf is None else buf[:hi - lo]
            raw = chunk.reshape(-1).view(np.uint8)
            if fh.readinto(raw) != raw.size:
                raise IntegrityError(f"{name}: short read of the payload")
            digest.update(raw)
            if found == KIND_SPECTRUM_SET:
                finite = finite and bool(np.isfinite(chunk).all())
            if buf is not None:
                out[..., lo:hi] = np.moveaxis(chunk[..., bins], 0, -1)
        if fh.read(1):
            raise IntegrityError(f"{name}: bytes past the payload")
    return digest.hexdigest(), found, out.astype(dtype.newbyteorder("="), copy=False), finite


def _payload_dtype(kind: int) -> np.dtype:
    return np.dtype("<c16" if kind == KIND_SPECTRUM_SET else "<f8")


def _parse_header(data, name: str, size: int):
    """Check the header at the start of ``data``, the first bytes of a file
    of ``size`` bytes: magic, kind, dimension count, dimensions and the
    exact payload length. Returns (kind, dims, payload offset)."""
    if len(data) < 13:
        raise IntegrityError(f"{name}: too short for an artifact header")
    if data[:4] != MAGIC:
        raise IntegrityError(f"{name}: bad magic {bytes(data[:4])!r}")
    kind = data[4]
    if kind not in _KIND_NDIM:
        raise IntegrityError(f"{name}: unknown artifact kind {kind}")
    (ndim,) = struct.unpack_from("<Q", data, 5)
    if ndim != _KIND_NDIM[kind]:
        raise IntegrityError(f"{name}: kind {kind} with {ndim} dims")
    offset = 13
    if len(data) < offset + 8 * ndim:
        raise IntegrityError(f"{name}: truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}Q", data, offset)
    offset += 8 * ndim
    count = 1
    for d in dims:
        count *= d
    itemsize = _payload_dtype(kind).itemsize
    if size - offset != count * itemsize:
        raise IntegrityError(
            f"{name}: payload is {size - offset} bytes, expected {count * itemsize}")
    return kind, dims, offset


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(directory, entries: dict) -> None:
    """Write {name: sha256} for a run directory, deterministically."""
    write_json(Path(directory) / MANIFEST_NAME, {"files": entries})


def load_manifest(directory) -> dict:
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise IntegrityError(f"{path}: malformed manifest: {exc}") from exc
    if not isinstance(raw, dict):
        raise IntegrityError(f"{path}: malformed manifest: not a JSON object")
    files = raw.get("files")
    if not isinstance(files, dict):
        raise IntegrityError(f"{path}: manifest lacks a files table")
    return files


def verify_manifest(directory) -> dict:
    """Check every recorded hash against the file on disk.

    Returns the manifest entries; raises IntegrityError on any mismatch
    and OSError when a recorded file is missing.
    """
    directory = Path(directory)
    entries = load_manifest(directory)
    for name, digest in entries.items():
        if sha256_file(directory / name) != digest:
            raise IntegrityError(f"{name}: sha256 mismatch, file was modified")
    return entries
