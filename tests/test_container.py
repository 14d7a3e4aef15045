import numpy as np
import pytest

from ktsecret.container import ContainerError, load_params, load_tensor, save_params, save_tensor
from ktsecret.net import NetConfig, init_params


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random_tensors(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 5))
    shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
    if seed % 2:
        arr = rng.standard_normal(shape)
    else:
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "t.ktsr"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    # bit-identical on re-save
    save_tensor(tmp_path / "t2.ktsr", back)
    assert (tmp_path / "t.ktsr").read_bytes() == (tmp_path / "t2.ktsr").read_bytes()


def test_crc_detects_corruption(tmp_path):
    path = tmp_path / "t.ktsr"
    save_tensor(path, np.arange(8.0))
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="CRC"):
        load_tensor(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.ktsr"
    save_tensor(path, np.arange(4.0))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="magic"):
        load_tensor(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "t.ktsr"
    save_tensor(path, np.arange(16.0))
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ContainerError):
        load_tensor(path)


def test_params_round_trip(tmp_path):
    cfg = NetConfig(frames=2, base_channels=4)
    params = init_params(cfg, seed=3)
    save_params(tmp_path / "w.ktsr", params, cfg)
    loaded, loaded_cfg = load_params(tmp_path / "w.ktsr")
    assert loaded_cfg == cfg
    assert np.array_equal(loaded.to_flat(), params.to_flat())


def test_params_descriptor_mismatch(tmp_path):
    cfg = NetConfig(frames=2, base_channels=4)
    params = init_params(cfg, seed=3)
    save_params(tmp_path / "w.ktsr", params, cfg)
    # overwrite the tensor with a wrong-sized vector
    save_tensor(tmp_path / "w.ktsr", np.zeros(10))
    with pytest.raises(ContainerError, match="descriptor"):
        load_params(tmp_path / "w.ktsr")


def _header(ndim, dims=()):
    import struct

    return struct.pack("<4sHBB", b"KTSR", 1, 1, ndim) + struct.pack(f"<{len(dims)}Q", *dims)


def test_truncated_dims_block_rejected(tmp_path):
    path = tmp_path / "t.ktsr"
    path.write_bytes(_header(3, (4,)))  # ndim says 3 dims, only one is present
    with pytest.raises(ContainerError, match="dims"):
        load_tensor(path)


def test_overflowing_dims_rejected(tmp_path):
    path = tmp_path / "t.ktsr"
    # 2**33 * 2**33 * 8 bytes wraps to 0 in 64-bit arithmetic
    path.write_bytes(_header(2, (2 ** 33, 2 ** 33)) + b"\0\0\0\0")
    with pytest.raises(ContainerError, match="length"):
        load_tensor(path)
