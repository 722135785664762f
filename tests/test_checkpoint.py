import re
import struct

import numpy as np
import pytest

from nstorus import (
    CheckpointError,
    LatticeSpec,
    SpectralField,
    TruncationRule,
    load_field,
    save_field,
)
from nstorus.checkpoint import FORMAT_VERSION
from util import random_field


def test_zero_field_round_trip(ball2, tmp_path):
    path = tmp_path / "zero.ckpt"
    save_field(SpectralField.zero(ball2), path)
    back = load_field(path)
    assert back.support_size == 0
    assert back.lattice == ball2


def test_random_field_bit_exact_round_trip(ball2, tmp_path):
    f = random_field(ball2, np.random.default_rng(17))
    path = tmp_path / "f.ckpt"
    save_field(f, path)
    back = load_field(path)
    assert np.array_equal(back.data, f.data)  # bitwise, not approximate
    # saving the loaded field reproduces the file bytes exactly
    path2 = tmp_path / "f2.ckpt"
    save_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_signed_zero_sites_round_trip_bit_exactly(ball2, tmp_path):
    # a site whose six values are all zero but one -0.0 compares equal to
    # zero; it is kept by its bits, or it would load as +0.0
    data = np.zeros((len(ball2), 3), dtype=np.complex128)
    parts = data.view(np.float64)
    parts[ball2.site_index((1, 0, 0)), 0] = -0.0
    parts[ball2.site_index((0, 1, 0)), 5] = -0.0
    parts[ball2.site_index((0, 0, 1)), 2] = 1e-3
    f = SpectralField(ball2, data)
    path = tmp_path / "f.ckpt"
    save_field(f, path)
    back = load_field(path)
    assert np.array_equal(back.data.view(np.uint64), f.data.view(np.uint64))
    assert struct.unpack_from("<Q", path.read_bytes(), 24)[0] == 3


def test_sparse_field_round_trip(ball2, tmp_path):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (1e-300, 2.5j, -3.0)})
    path = tmp_path / "s.ckpt"
    save_field(f, path)
    back = load_field(path)
    assert np.array_equal(back.data, f.data)
    assert back.support_size == 1


def test_truncated_file_rejected(ball2, tmp_path):
    f = random_field(ball2, np.random.default_rng(2))
    path = tmp_path / "t.ckpt"
    save_field(f, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_field(path)
    path.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="too short"):
        load_field(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(CheckpointError, match="magic"):
        load_field(path)


def test_bad_version_rejected(ball2, tmp_path):
    path = tmp_path / "v.ckpt"
    save_field(SpectralField.zero(ball2), path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_field(path)


def test_lattice_mismatch_rejected(ball2, tmp_path):
    path = tmp_path / "m.ckpt"
    save_field(SpectralField.zero(ball2), path)
    with pytest.raises(CheckpointError, match="mismatch"):
        load_field(path, expected_spec=LatticeSpec(3))
    with pytest.raises(CheckpointError, match="mismatch"):
        load_field(path, expected_spec=LatticeSpec(2, TruncationRule.SUP_CUBE))
    assert load_field(path, expected_spec=LatticeSpec(2)).lattice == ball2


def test_offsite_record_rejected(ball2, tmp_path):
    path = tmp_path / "o.ckpt"
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (1.0, 0.0, 0.0)})
    save_field(f, path)
    blob = bytearray(path.read_bytes())
    # corrupt the site triple to the origin, a point outside the k_max=2
    # ball, and the int32 extremes, which lie outside any lattice's cube
    for site in [(0, 0, 0), (2, 2, 2), (2**31 - 1, 0, 0), (-2**31, 0, 0)]:
        blob[32:44] = struct.pack("<3i", *site)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(f"site {site} is outside")):
            load_field(path)


def test_duplicate_record_rejected(ball2, tmp_path):
    path = tmp_path / "d.ckpt"
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (1.0, 0.0, 0.0), (0, 1, 0): (2.0, 0.0, 0.0)})
    save_field(f, path)
    blob = bytearray(path.read_bytes())
    # copy the first record's site triple onto the second record
    blob[92:104] = blob[32:44]
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="duplicate site"):
        load_field(path)


def test_oversized_body_rejected(ball2, tmp_path):
    path = tmp_path / "big.ckpt"
    save_field(SpectralField.from_modes(ball2, {(1, 0, 0): (1.0, 0.0, 0.0)}), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 60)   # one record more than the count
    with pytest.raises(CheckpointError, match="oversized body \\(120 bytes for 1 records\\)"):
        load_field(path)


def test_non_finite_field_not_saved(ball2, tmp_path):
    # a nan site used to be dropped from the support and read back as 0
    data = np.ones((len(ball2), 3), dtype=np.complex128)
    data[5, 1] = complex(np.nan, 0.0)
    path = tmp_path / "nan.ckpt"
    with pytest.raises(CheckpointError, match="non-finite"):
        save_field(SpectralField(ball2, data), path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
