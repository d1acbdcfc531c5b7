"""Binary checkpointing of matrix product states.

File layout, all integers little-endian:

  magic   6 bytes  b"TNMPS1"
  payload:
    uint32           site count N
    N x 3 x uint32   per-site (D_l, d, D_r)
    N blocks         site data, row-major complex128 stored as
                     interleaved (real, imag) 8-byte little-endian floats
    int32            orthogonality center index, -1 when none
  uint32  CRC-32 of the payload

The format is complex128 whatever the dtype of the state. A read returns
float64 sites when every imaginary part in the file is exactly 0.0 and
complex128 sites otherwise, so a real state comes back real (and a warm
start of a real model stays in real arithmetic) and a complex one complex.
Round trips are bit exact. Reads verify the magic, the declared sizes and
the checksum before constructing anything, so truncated or corrupted files
fail with CheckpointError rather than producing a wrong state.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .mps import MatrixProductState

MAGIC = b"TNMPS1"


class CheckpointError(Exception):
    """The file is not a valid checkpoint (bad magic, truncation, checksum),
    or the operating system refused to read or write it."""


def write_atomic(path: str, chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to ``path`` whole or not at
    all: a synced temporary file beside ``path`` replaces it, so on failure
    ``path`` keeps its content. A generator of chunks holds one at a time."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _payload(psi: MatrixProductState):
    """The payload of the checkpoint of ``psi`` as consecutive chunks, one
    per site's complex128 data, so a widened site is held only while it is
    written."""
    yield struct.pack("<I", psi.n_sites)
    for a in psi.sites:
        yield struct.pack("<III", *a.shape)
    for a in psi.sites:
        yield np.ascontiguousarray(a, dtype="<c16")
    yield struct.pack("<i", -1 if psi.center is None else psi.center)


def _file_chunks(psi: MatrixProductState):
    """The checkpoint file of ``psi``: magic, payload and its CRC-32, taken
    chunk by chunk as the payload goes by."""
    yield MAGIC
    crc = 0
    for chunk in _payload(psi):
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def checkpoint_write(psi: MatrixProductState, path: str) -> None:
    try:
        write_atomic(path, _file_chunks(psi))
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint: {exc}") from exc


def checkpoint_read(path: str) -> MatrixProductState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic bytes)")
    if len(blob) < len(MAGIC) + 4 + 4 + 4:
        raise CheckpointError("checkpoint is truncated, checksum cannot be verified")
    payload = memoryview(blob)[len(MAGIC) : -4]  # no copy: the sites view the file's bytes
    (stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored:
        raise CheckpointError("checkpoint checksum mismatch, file is truncated or corrupted")

    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise CheckpointError("checkpoint payload is shorter than its headers declare")
        piece = payload[offset : offset + n]
        offset += n
        return piece

    (n_sites,) = struct.unpack("<I", take(4))
    shapes = [struct.unpack("<III", take(12)) for _ in range(n_sites)]
    sites = []
    for shape in shapes:
        count = shape[0] * shape[1] * shape[2]
        data = np.frombuffer(take(16 * count), dtype="<c16")
        sites.append(data.reshape(shape))
    (center,) = struct.unpack("<i", take(4))
    if not any(a.imag.any() for a in sites):
        sites = [a.real for a in sites]
    if offset != len(payload):
        raise CheckpointError("checkpoint has trailing bytes after the declared payload")
    try:
        return MatrixProductState(sites, center=None if center == -1 else center)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint holds an inconsistent state: {exc}") from None
