import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from ktsecret.container import (ContainerError, load_mask, load_params, load_phantom, load_tensor, save_mask,
                                save_params, save_phantom, save_tensor)
from ktsecret.encoding import make_radial_mask
from ktsecret.net import NetConfig, init_params
from ktsecret.phantom import PhantomSpec, synthesize


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
    save_params(tmp_path / "w.ktsr", params)
    loaded = load_params(tmp_path / "w.ktsr")
    assert loaded.cfg == cfg
    assert np.array_equal(loaded.to_flat(), params.to_flat())
    # the network computes in float32, but a weight file holds the float64 vector, as before
    assert (tmp_path / "w.ktsr").read_bytes()[6] == 1  # the header's dtype code: float64
    assert loaded.flat.dtype == load_tensor(tmp_path / "w.ktsr").dtype == np.float64


def test_params_holding_nan_rejected(tmp_path, capsys):
    from ktsecret.cli import main

    cfg = NetConfig(frames=8, base_channels=4)
    params = init_params(cfg, seed=3)
    flat = params.to_flat()
    flat[5] = np.nan
    save_params(tmp_path / "w.ktsr", params.from_flat(flat))
    with pytest.raises(ContainerError, match="NaN"):
        load_params(tmp_path / "w.ktsr")
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    save_mask(tmp_path / "m.ktsr", mask, seed=0)
    save_tensor(tmp_path / "d.ktsr", np.zeros(mask.shape, dtype=complex))
    argv = ["recon-nn", "--data", str(tmp_path / "d.ktsr"), "--mask", str(tmp_path / "m.ktsr"),
            "--weights", str(tmp_path / "w.ktsr"), "--out", str(tmp_path / "r.ktsr")]
    assert main(argv) == 1
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "r.ktsr").exists()


def test_params_descriptor_mismatch(tmp_path):
    cfg = NetConfig(frames=2, base_channels=4)
    params = init_params(cfg, seed=3)
    save_params(tmp_path / "w.ktsr", params)
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


def test_damaged_dims_of_empty_tensor_rejected(tmp_path):
    path = tmp_path / "t.ktsr"
    save_tensor(path, np.zeros((0, 3)))
    blob = bytearray(path.read_bytes())
    blob[16] = 5  # dims (0, 3) -> (0, 5): still no payload, but the CRC covers the dims
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError):
        load_tensor(path)


def test_version_1_container_still_loads_with_its_payload_crc(tmp_path):
    import struct
    import zlib

    arr = np.arange(6.0).reshape(2, 3)
    payload = arr.tobytes()
    path = tmp_path / "v1.ktsr"
    path.write_bytes(_header(2, arr.shape) + payload + struct.pack("<I", zlib.crc32(payload)))
    assert np.array_equal(load_tensor(path), arr)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="CRC"):
        load_tensor(path)


def _saved_params(tmp_path):
    cfg = NetConfig(frames=2, base_channels=4)
    save_params(tmp_path / "w.ktsr", init_params(cfg, seed=3))
    return tmp_path / "w.ktsr", json.loads((tmp_path / "w.ktsr.json").read_text())


def _saved_mask(tmp_path):
    save_mask(tmp_path / "m.ktsr", make_radial_mask(2, 8, 8, 2.0, seed=0), seed=0)
    return tmp_path / "m.ktsr", json.loads((tmp_path / "m.ktsr.json").read_text())


def _saved_phantom(tmp_path):
    spec = PhantomSpec(h=8, w=8, t=8)
    save_phantom(tmp_path, spec, synthesize(spec))
    return tmp_path / "spec", json.loads((tmp_path / "spec.json").read_text())


def _load_phantom(spec_path):
    return load_phantom(spec_path.parent)


def _without(meta, key):
    return {k: v for k, v in meta.items() if k != key}


def _utf16(meta):
    """The sidecar as UTF-16 with its byte-order mark, which is not UTF-8."""
    return b"\xff\xfe" + json.dumps(meta).encode("utf-16-le")


@pytest.mark.parametrize("saved,load,edit", [
    (_saved_params, load_params, lambda meta: _without(meta, "frames")),
    (_saved_params, load_params, lambda meta: list(meta.values())),
    (_saved_params, load_params, lambda meta: {**meta, "frames": "2"}),
    (_saved_params, load_params, lambda meta: {**meta, "frames": 0}),
    (_saved_params, load_params, lambda meta: {**meta, "depth_levels": True}),
    (_saved_params, load_params, lambda meta: {**meta, "version": None}),
    (_saved_params, load_params, lambda meta: {**meta, "frames": 10 ** 18}),
    (_saved_params, load_params, lambda meta: {**meta, "base_channels": 10 ** 18}),
    # refused by NetConfig's arithmetic before a plan of 10**5 levels is built
    (_saved_params, load_params, lambda meta: {**meta, "depth_levels": 10 ** 5}),
    (_saved_mask, load_mask, lambda meta: {}),
    (_saved_mask, load_mask, lambda meta: {**meta, "accel": "2"}),
    (_saved_mask, load_mask, lambda meta: [meta]),
    (_saved_params, load_params, lambda meta: '{"version": 1, '),
    (_saved_mask, load_mask, lambda meta: '{"accel": '),
    (_saved_phantom, _load_phantom, lambda meta: {}),
    (_saved_phantom, _load_phantom, lambda meta: [1]),
    (_saved_phantom, _load_phantom, lambda meta: '{"dt": '),
    (_saved_phantom, _load_phantom, lambda meta: {**meta, "dt": "2"}),
    (_saved_params, load_params, lambda meta: {**meta, "version": 2}),
    (_saved_params, load_params, _utf16),
    (_saved_mask, load_mask, _utf16),
    (_saved_phantom, _load_phantom, _utf16),
], ids=["params-no-frames", "params-list", "params-str-frames", "params-zero-frames",
        "params-bool-depth", "params-null-version", "params-huge-frames",
        "params-huge-base-channels", "params-huge-depth", "mask-empty", "mask-str-accel", "mask-list",
        "params-not-json", "mask-not-json", "phantom-empty", "phantom-list", "phantom-not-json",
        "phantom-str-dt", "params-version-2", "params-not-utf8", "mask-not-utf8", "phantom-not-utf8"])
def test_malformed_sidecar_raises_container_error(tmp_path, saved, load, edit):
    path, meta = saved(tmp_path)
    sidecar = edit(meta)  # str and bytes are written as they are, anything else as JSON
    if not isinstance(sidecar, bytes):
        sidecar = (sidecar if isinstance(sidecar, str) else json.dumps(sidecar)).encode()
    Path(str(path) + ".json").write_bytes(sidecar)
    with pytest.raises(ContainerError):
        load(path)


def test_mask_sidecar_with_nan_accel_is_a_container_error(tmp_path):
    path, meta = _saved_mask(tmp_path)
    Path(str(path) + ".json").write_text(json.dumps({**meta, "accel": float("nan")}))
    with pytest.raises(ContainerError, match=re.escape(f"{path}.json: 'accel' is missing or invalid: nan")):
        load_mask(path)


def test_phantom_spec_with_infinite_dt_is_a_container_error(tmp_path, capsys):
    from ktsecret.cli import main

    path, meta = _saved_phantom(tmp_path)
    path.with_suffix(".json").write_text(json.dumps({**meta, "dt": float("inf")}))
    with pytest.raises(ContainerError, match=re.escape(f"{path}.json: 'dt' is missing or invalid: inf")):
        load_phantom(tmp_path)
    save_mask(tmp_path / "m.ktsr", make_radial_mask(8, 8, 8, 2.0, seed=0), seed=0)
    argv = ["corrupt", "--phantom", str(tmp_path), "--mask", str(tmp_path / "m.ktsr"), "--out", str(tmp_path / "d")]
    assert main(argv) == 1
    assert "'dt'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("version, code, message", [
    (0, 1, "unsupported version 0"), (3, 1, "unsupported version 3"),
    (2, 0, "unknown dtype code 0"), (2, 3, "unknown dtype code 3"),
])
def test_unsupported_version_or_dtype_code_rejected(tmp_path, version, code, message):
    path = tmp_path / "t.ktsr"
    save_tensor(path, np.arange(4.0))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<HB", blob, 4, version, code)
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match=f"^{message}$"):
        load_tensor(path)


def test_complex64_is_widened_to_complex128(tmp_path, rng):
    arr = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))).astype(np.complex64)
    save_tensor(tmp_path / "c.ktsr", arr)
    back = load_tensor(tmp_path / "c.ktsr")
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr.astype(np.complex128))
