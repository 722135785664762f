"""Binary field checkpoints with bit-exact round trips.

Layout (all little-endian, fixed width, no serialization dependency):

    offset  size  content
    0       8     magic b"NSTFLD01"
    8       4     format version (uint32, currently 1)
    12      4     truncation rule code (uint32: 0 ball, 1 cube)
    16      4     k_max (int32)
    20      4     reserved (uint32, zero)
    24      8     record count (uint64)
    32      60*n  records: kx, ky, kz (int32 each) then re/im interleaved
                  float64 pairs for the three complex components

Only supported (nonzero) sites are stored, and only finite values: saving
and loading both refuse nan and inf. Loading validates the header, the byte
length, site membership and the values, and never returns a partial field.
Every artifact, checkpoints included, is written through write_atomic, so a
failed write leaves no partial file behind.
"""

from __future__ import annotations

import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .fields import SpectralField
from .lattice import LatticeSpec, TruncationRule, get_lattice

__all__ = ["save_field", "load_field", "write_atomic", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NSTFLD01"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIiIQ")
_RULE_CODES = {TruncationRule.EUCLIDEAN_BALL: 0, TruncationRule.SUP_CUBE: 1}
_CODE_RULES = {v: k for k, v in _RULE_CODES.items()}
_RECORD_DTYPE = np.dtype([("site", "<i4", (3,)), ("value", "<f8", (6,))])


def write_atomic(path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory
    that is renamed over path once complete, so path holds either its old
    content or all of data, never part of it. A failed write removes the
    temporary file. (Atomic against the process dying, not against power
    loss: nothing is fsynced.)
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_field(field: SpectralField, path) -> None:
    """Write the supported (nonzero) sites of a field; load_field inverts
    bit-exactly. A non-finite entry raises CheckpointError and writes
    nothing."""
    if not np.isfinite(field.data).all():
        raise CheckpointError(f"{path}: refusing to save a field with non-finite values")
    lat = field.lattice
    idx = np.flatnonzero(field.data.any(axis=-1))
    records = np.empty(len(idx), dtype=_RECORD_DTYPE)
    records["site"] = lat.sites[idx].astype("<i4")
    values = np.ascontiguousarray(field.data[idx])
    records["value"] = values.view(np.float64).reshape(len(idx), 6)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, _RULE_CODES[lat.spec.truncation_rule],
        lat.spec.k_max, 0, len(idx),
    )
    write_atomic(path, header + records.tobytes())


def load_field(path, expected_spec: LatticeSpec | None = None) -> SpectralField:
    """Read a checkpoint back; rejects bad magic, version, truncation, a
    site outside the lattice or repeated, a non-finite value, or a lattice
    differing from expected_spec when one is given."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"{path}: file too short for a checkpoint header")
    magic, version, rule_code, k_max, _, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if rule_code not in _CODE_RULES:
        raise CheckpointError(f"{path}: unknown truncation rule code {rule_code}")
    try:
        spec = LatticeSpec(k_max, _CODE_RULES[rule_code])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if expected_spec is not None and spec != expected_spec:
        raise CheckpointError(
            f"{path}: lattice mismatch (file has k_max={spec.k_max} "
            f"{spec.truncation_rule.value}, expected k_max={expected_spec.k_max} "
            f"{expected_spec.truncation_rule.value})"
        )
    body = blob[_HEADER.size:]
    if len(body) != count * _RECORD_DTYPE.itemsize:
        raise CheckpointError(
            f"{path}: truncated or oversized body "
            f"({len(body)} bytes for {count} records)"
        )
    lat = get_lattice(spec)
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    if not np.isfinite(records["value"]).all():
        raise CheckpointError(f"{path}: non-finite value in the records")
    rows = lat.indices(records["site"])
    if (rows < 0).any():
        site = tuple(records["site"][np.argmax(rows < 0)].tolist())
        raise CheckpointError(f"{path}: site {site} is outside the lattice")
    distinct, counts = np.unique(rows, return_counts=True)
    if (counts > 1).any():
        site = tuple(lat.sites[distinct[np.argmax(counts > 1)]].tolist())
        raise CheckpointError(f"{path}: duplicate site {site}")
    data = np.zeros((len(lat), 3), dtype=np.complex128)
    data[rows] = np.ascontiguousarray(records["value"]).view(np.complex128)
    return SpectralField(lat, data)
