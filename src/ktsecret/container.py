"""Minimal bit-exact tensor container ("KTSR") and network weight files.

Layout: magic "KTSR", u16 version, u8 dtype code (1=float64, 2=complex128),
u8 ndim, u64 dims, little-endian row-major payload, trailing CRC32. Version 2
(written) takes the CRC over every byte before it, so damaged dims are caught
even when the payload is empty; version 1 (still read) took it over the payload
only. Weight files are a JSON descriptor, NetConfig's fields plus "version" and
"param_count", and one KTSR tensor holding the finite flat parameter vector.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .net import NetConfig, NetworkParams, init_params

MAGIC = b"KTSR"
VERSION = 2  # 1: the CRC covers the payload only
_DTYPES = {1: np.float64, 2: np.complex128}
_CODES = {np.dtype(np.float64): 1, np.dtype(np.complex128): 2}

__all__ = ["save_tensor", "load_tensor", "save_params", "load_params", "read_sidecar",
           "ContainerError"]


class ContainerError(ValueError):
    pass


def save_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, order="C")  # keeps a 0-d array's rank, unlike ascontiguousarray
    if arr.dtype not in _CODES:
        if np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
    payload = arr.tobytes()
    head = struct.pack(f"<4sHBB{arr.ndim}Q", MAGIC, VERSION, _CODES[arr.dtype], arr.ndim, *arr.shape)
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


def load_tensor(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise ContainerError("truncated container")
    magic, version, code, ndim = struct.unpack_from("<4sHBB", blob, 0)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version not in (1, VERSION):
        raise ContainerError(f"unsupported version {version}")
    if code not in _DTYPES:
        raise ContainerError(f"unknown dtype code {code}")
    start = 8 + 8 * ndim
    if len(blob) < start:
        raise ContainerError("truncated dims block")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 8)
    dtype = np.dtype(_DTYPES[code])
    end = start + math.prod(dims) * dtype.itemsize  # exact: no 64-bit overflow
    if len(blob) != end + 4:
        raise ContainerError("payload length mismatch")
    payload = blob[start:end]
    (crc,) = struct.unpack_from("<I", blob, end)
    if crc != zlib.crc32(memoryview(blob)[start if version == 1 else 0:end]):
        raise ContainerError("CRC mismatch: container corrupted")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def save_params(path, params: NetworkParams, net_cfg: NetConfig) -> None:
    """Write weights as <path> (tensor) + <path>.json (architecture descriptor)."""
    descriptor = {"version": 1, **asdict(net_cfg), "param_count": params.size}
    Path(str(path) + ".json").write_text(json.dumps(descriptor, indent=2))
    save_tensor(path, params.to_flat())


def read_sidecar(path, types: dict) -> dict:
    """The JSON object in <path>.json; ContainerError unless each key in `types` has its type."""
    try:
        meta = json.loads(Path(str(path) + ".json").read_text())
    except json.JSONDecodeError as err:
        raise ContainerError(f"{path}.json is not JSON: {err}") from None
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}.json is not a JSON object")
    for key, kind in types.items():
        value = meta.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ContainerError(f"{path}.json: {key!r} is missing or of the wrong type")
    return meta


def load_params(path):
    """Returns (NetworkParams, NetConfig); rejects descriptor/tensor mismatch and non-finite weights."""
    names = [f.name for f in fields(NetConfig)]
    descriptor = read_sidecar(path, dict.fromkeys(["version", *names, "param_count"], int))
    if descriptor["version"] != 1:
        raise ContainerError("unsupported weight descriptor version")
    try:
        cfg = NetConfig(**{name: descriptor[name] for name in names})
    except ValueError as err:
        raise ContainerError(f"weight descriptor: {err}") from None
    flat = load_tensor(path)
    template = init_params(cfg, seed=0)
    if flat.size != template.size or flat.size != descriptor["param_count"]:
        raise ContainerError("weight vector does not match architecture descriptor")
    if not np.all(np.isfinite(flat)):
        raise ContainerError("weight vector holds NaN or inf")
    return template.from_flat(flat), cfg
