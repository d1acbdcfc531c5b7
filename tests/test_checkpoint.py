import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from tnkit.checkpoint import MAGIC, CheckpointError, checkpoint_read, checkpoint_write
from tnkit.dmrg import DmrgConfig, ground_state
from tnkit.models import transverse_field_ising
from tnkit.mpo import build_mpo
from tnkit.mps import MatrixProductState, gauge_transform, random_mps


def _random_state(seed=0, dims=(2, 3, 2, 4), max_bond=5):
    return random_mps(dims, max_bond, np.random.default_rng(seed))


def test_round_trip_is_bit_exact(tmp_path):
    psi = _random_state()
    path = str(tmp_path / "state.mps")
    checkpoint_write(psi, path)
    back = checkpoint_read(path)
    assert back.n_sites == psi.n_sites
    assert back.center == psi.center
    for a, b in zip(psi.sites, back.sites):
        assert a.shape == b.shape
        assert a.dtype == b.dtype == np.complex128
        assert a.tobytes() == b.tobytes()


def test_real_state_reads_back_real_and_bit_exact(tmp_path):
    psi = random_mps((2, 3, 2, 4), 5, np.random.default_rng(11), dtype=float)
    path = str(tmp_path / "state.mps")
    checkpoint_write(psi, path)
    back = checkpoint_read(path)
    assert back.center == psi.center
    for a, b in zip(psi.sites, back.sites):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_read_holds_the_file_once(tmp_path):
    # the sites are views of the bytes read, not copies of a copied payload
    psi = random_mps((2,) * 20, 32, np.random.default_rng(3))
    path = tmp_path / "state.mps"
    checkpoint_write(psi, str(path))
    tracemalloc.start()
    try:
        back = checkpoint_read(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.sites[10].dtype == np.complex128
    assert peak <= 1.2 * path.stat().st_size


def test_one_nonzero_imaginary_part_keeps_a_state_complex(tmp_path):
    real = random_mps((2, 2, 2), 2, np.random.default_rng(12), dtype=float)
    sites = [a.astype(complex) for a in real.sites]
    sites[1][0, 1, 0] += 1e-300j
    psi = MatrixProductState(sites, center=real.center)
    path = str(tmp_path / "state.mps")
    checkpoint_write(psi, path)
    back = checkpoint_read(path)
    for a, b in zip(psi.sites, back.sites):
        assert b.dtype == np.complex128
        assert a.tobytes() == b.tobytes()


def test_center_none_round_trips(tmp_path):
    psi = _random_state(seed=3, dims=(2, 2, 2, 2))
    dim = psi.bond_dims[1]
    riffled = gauge_transform(psi, 1, np.diag(np.linspace(0.5, 2.0, dim)))
    assert riffled.center is None
    path = str(tmp_path / "state.mps")
    checkpoint_write(riffled, path)
    assert checkpoint_read(path).center is None


def test_writes_are_deterministic(tmp_path):
    psi = _random_state(seed=7)
    p1, p2 = tmp_path / "a.mps", tmp_path / "b.mps"
    checkpoint_write(psi, str(p1))
    checkpoint_write(psi, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_fails_checksum(tmp_path):
    psi = _random_state(seed=1)
    path = tmp_path / "state.mps"
    checkpoint_write(psi, str(path))
    blob = path.read_bytes()
    for cut in (len(blob) - 1, len(blob) // 2, 10):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            checkpoint_read(str(path))


def test_flipped_byte_fails_checksum(tmp_path):
    psi = _random_state(seed=2)
    path = tmp_path / "state.mps"
    checkpoint_write(psi, str(path))
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) + 20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        checkpoint_read(str(path))


def test_bad_magic_rejected(tmp_path):
    psi = _random_state(seed=4)
    path = tmp_path / "state.mps"
    checkpoint_write(psi, str(path))
    blob = path.read_bytes()
    path.write_bytes(b"XXXXXX" + blob[len(MAGIC):])
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_read(str(path))


def test_headers_overrunning_payload_rejected(tmp_path):
    # valid CRC but the headers promise more site data than is present
    payload = struct.pack("<I", 2) + struct.pack("<III", 1, 2, 9) * 2 + struct.pack("<i", -1)
    path = tmp_path / "state.mps"
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError, match="shorter"):
        checkpoint_read(str(path))


def test_warm_start_converges_in_fewer_sweeps(tmp_path):
    spec = transverse_field_ising(12, J=1.0, h=1.0)
    op = build_mpo(spec)
    cfg = DmrgConfig(max_bond=32, n_sweeps=30, tol=1e-12, seed=3)
    e_cold, psi, trace_cold = ground_state(op, cfg)
    path = str(tmp_path / "ground.mps")
    checkpoint_write(psi, path)
    e_warm, _, trace_warm = ground_state(op, cfg, psi0=checkpoint_read(path))
    assert trace_warm.converged
    assert trace_warm.n_sweeps < trace_cold.n_sweeps
    assert abs(e_warm - e_cold) <= 1e-10 * abs(e_cold)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_warm_start_from_a_converged_checkpoint_takes_one_sweep(tmp_path, seed):
    # on a converged state every local solve starts from a tiny residual,
    # so cutting it by the reduction factor leaves the energies in place
    op = build_mpo(transverse_field_ising(12, J=1.0, h=1.0))
    cfg = DmrgConfig(max_bond=32, n_sweeps=30, tol=1e-12, seed=seed)
    e_cold, psi, trace_cold = ground_state(op, cfg)
    assert trace_cold.converged and trace_cold.n_sweeps > 1
    path = str(tmp_path / "ground.mps")
    checkpoint_write(psi, path)
    e_warm, _, trace_warm = ground_state(op, cfg, psi0=checkpoint_read(path))
    assert trace_warm.converged and trace_warm.n_sweeps == 1
    assert abs(e_warm - e_cold) <= 1e-13 * abs(e_cold)


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    old = _random_state(seed=1)
    path = tmp_path / "state.mps"
    checkpoint_write(old, str(path))
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")

    # the new bytes are written out but never made durable
    monkeypatch.setattr("tnkit.checkpoint.os.fsync", disk_full)
    with pytest.raises(CheckpointError, match="no space"):
        checkpoint_write(_random_state(seed=2), str(path))
    assert path.read_bytes() == before
    back = checkpoint_read(str(path))
    for a, b in zip(old.sites, back.sites):
        assert a.tobytes() == b.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["state.mps"]


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unreadable_or_unwritable_path_is_checkpoint_error(tmp_path, where):
    path = str(tmp_path if where == "directory" else tmp_path / "missing" / "state.mps")
    with pytest.raises(CheckpointError, match="cannot read checkpoint") as read_err:
        checkpoint_read(path)
    with pytest.raises(CheckpointError, match="cannot write checkpoint") as write_err:
        checkpoint_write(_random_state(), path)
    assert isinstance(read_err.value.__cause__, OSError)
    assert isinstance(write_err.value.__cause__, OSError)
    assert [p.name for p in tmp_path.iterdir()] == []
