"""Minimal bit-exact tensor container ("KTSR") and network weight files.

Layout: magic "KTSR", u16 version, u8 dtype code (1=float64, 2=complex128),
u8 ndim, u64 dims, little-endian row-major payload, trailing CRC32. Version 2
(written) takes the CRC over every byte before it, so damaged dims are caught
even when the payload is empty; version 1 (still read) took it over the payload
only. Weight files are a JSON descriptor, NetConfig's fields plus "version" and
"param_count", and one KTSR tensor holding the finite flat parameter vector.
Masks and phantom directories are KTSR tensors with JSON sidecars; images are
8-bit PGM, and every CSV the package writes goes through write_csv.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import zlib
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .encoding import KtData, SamplingMask
from .net import NetConfig, NetworkParams
from .numerics import is_int, is_real
from .phantom import PhantomSpec, PhantomTruth

MAGIC = b"KTSR"
VERSION = 2  # 1: the CRC covers the payload only
_DTYPES = {1: np.float64, 2: np.complex128}
_CODES = {np.dtype(np.float64): 1, np.dtype(np.complex128): 2}

__all__ = ["save_tensor", "load_tensor", "save_params", "load_params", "read_json_object", "read_sidecar",
           "ContainerError", "save_mask", "load_mask", "load_ktdata", "load_dataset", "PHANTOM_FILES",
           "save_phantom", "load_phantom", "write_pgm", "write_csv"]
# phantom directory: file stem -> PhantomTruth array (labels are stored as float64)
PHANTOM_FILES = {"ref_images": "ref_images", "ktrans": "ktrans_map", "vp": "vp_map", "aif": "aif",
                 "aif_signal": "aif_signal", "labels": "region_labels"}


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


def save_params(path, params: NetworkParams) -> None:
    """Write weights as <path> (tensor) + <path>.json (descriptor of params.cfg)."""
    descriptor = {"version": 1, **asdict(params.cfg), "param_count": params.size}
    Path(str(path) + ".json").write_text(json.dumps(descriptor, indent=2))
    save_tensor(path, params.to_flat())


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file at path; ContainerError naming the file otherwise."""
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ContainerError(f"{path} is not UTF-8 JSON: {err}") from None
    if not isinstance(meta, dict):
        raise ContainerError(f"{path} is not a JSON object")
    return meta


def read_sidecar(path, checks: dict) -> dict:
    """The JSON object in <path>.json; ContainerError unless checks[key](value)
    holds for each key (numerics.is_int or is_real, which refuse NaN and ±Infinity)."""
    meta = read_json_object(str(path) + ".json")
    for key, check in checks.items():
        if not check(meta.get(key)):
            raise ContainerError(f"{path}.json: {key!r} is missing or invalid: {meta.get(key)!r}")
    return meta


def load_params(path) -> NetworkParams:
    """The NetworkParams of a weight file; rejects descriptor/tensor mismatch and non-finite weights."""
    names = [f.name for f in fields(NetConfig)]
    descriptor = read_sidecar(path, dict.fromkeys(["version", *names, "param_count"], is_int))
    if descriptor["version"] != 1:
        raise ContainerError("unsupported weight descriptor version")
    try:
        cfg = NetConfig(**{name: descriptor[name] for name in names})
    except ValueError as err:
        raise ContainerError(f"weight descriptor: {err}") from None
    flat = load_tensor(path)
    if flat.size != descriptor["param_count"]:
        raise ContainerError("weight vector does not match the descriptor's param_count")
    try:  # the layout is integer arithmetic on cfg, so a huge network allocates nothing
        params = NetworkParams(cfg, flat)
    except ValueError as err:
        raise ContainerError(f"weight vector does not match architecture descriptor: {err}") from None
    if not np.all(np.isfinite(flat)):
        raise ContainerError("weight vector holds NaN or inf")
    return params


def save_mask(path, mask: SamplingMask, seed: int) -> None:
    save_tensor(path, mask.bits.astype(np.float64))
    Path(str(path) + ".json").write_text(json.dumps({"accel": mask.accel_nominal, "seed": seed}))


def load_mask(path) -> SamplingMask:
    return SamplingMask(bits=load_tensor(path), accel_nominal=float(read_sidecar(path, {"accel": is_real})["accel"]))


def load_ktdata(data_path, mask_path) -> KtData:
    return KtData(samples=load_tensor(data_path), mask=load_mask(mask_path))


def load_dataset(data_dir, supervised: bool) -> list:
    """The samples in data_dir's subdirectories, in name order: each a KtData from
    data.ktsr + mask.ktsr, paired with target.ktsr if supervised."""
    samples = []
    for sub in sorted(p for p in Path(data_dir).iterdir() if p.is_dir()):
        d_u = load_ktdata(sub / "data.ktsr", sub / "mask.ktsr")
        samples.append((d_u, load_tensor(sub / "target.ktsr")) if supervised else d_u)
    if not samples:
        raise FileNotFoundError(f"no sample directories under {data_dir}")
    return samples


def save_phantom(out_dir: Path, spec: PhantomSpec, truth: PhantomTruth) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, name in PHANTOM_FILES.items():
        save_tensor(out_dir / f"{stem}.ktsr", getattr(truth, name))
    (out_dir / "spec.json").write_text(json.dumps(spec.__dict__, indent=2))


def load_phantom(out_dir: Path) -> PhantomTruth:
    arrays = {name: load_tensor(out_dir / f"{stem}.ktsr") for stem, name in PHANTOM_FILES.items()}
    arrays["region_labels"] = arrays["region_labels"].astype(np.int64)
    return PhantomTruth(**arrays, dt=float(read_sidecar(out_dir / "spec", {"dt": is_real})["dt"]))


def write_pgm(path, image: np.ndarray, lo: float | None = None, hi: float | None = None) -> None:
    """8-bit binary PGM; values clipped to [lo, hi] (default min/max).
    Raises ValueError if the image holds a NaN or infinity, which would blank
    the whole scale."""
    img = np.abs(np.asarray(image, dtype=float))
    if not np.all(np.isfinite(img)):
        raise ValueError("image holds non-finite values")
    lo = img.min() if lo is None else lo
    hi = img.max() if hi is None else hi
    span = hi - lo if hi > lo else 1.0
    pix = np.clip((img - lo) / span * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())


def write_csv(path, header, rows, append: bool = False) -> None:
    """The package's one CSV writer: header, then rows. With append the rows go
    after those of an existing non-empty file, whose first row must be header
    (else ValueError naming the file), and the header is written only to a new one."""
    new = not (append and Path(path).exists() and Path(path).stat().st_size)
    if not new:
        with open(path, newline="") as f:
            if next(csv.reader(f), None) != list(header):
                raise ValueError(f"{path}: its first row is not the header {','.join(header)}")
    with open(path, "a" if append else "w", newline="") as f:
        writer = csv.writer(f)
        if new:
            writer.writerow(header)
        writer.writerows(rows)
