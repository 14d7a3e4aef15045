"""(k,t) sampling masks and the encoding operator (frame-wise DFT + mask).

Masks are Cartesian rasterizations of golden-angle radial spokes, pruned or
padded with seeded randomness so the achieved acceleration matches the
requested factor. The DC sample is always kept. k-space uses the unshifted
FFT convention: DC lives at index [0, 0] of every frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_complex_tensor, check_pow2, dft2, is_real

GOLDEN_ANGLE_DEG = 111.246117975

__all__ = ["SamplingMask", "KtData", "make_radial_mask", "radial_budget", "check_image_shape", "encode", "adjoint",
           "normal_op", "GOLDEN_ANGLE_DEG"]


def _accel_within_15pct(achieved: float, nominal: float) -> bool:
    """The masks' acceleration contract: achieved within +-15% of nominal."""
    return 0.85 * nominal <= achieved <= 1.15 * nominal


@dataclass(frozen=True)
class SamplingMask:
    """Binary (k,t) sampling pattern of shape [T, H, W]."""

    bits: np.ndarray
    accel_nominal: float

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 3 or min(bits.shape) < 1:
            raise ValueError(f"mask must be T,H,W with at least one frame and H, W >= 1, got {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):  # before the cast, which would truncate 0.5 to 0
            raise ValueError("mask bits must be 0/1")
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if np.any(bits[:, 0, 0] == 0):
            raise ValueError("every frame must sample DC")
        object.__setattr__(self, "bits", bits)
        ach = self.achieved_accel
        if not _accel_within_15pct(ach, self.accel_nominal):
            raise ValueError(
                f"achieved acceleration {ach:.3f} outside +-15% of nominal {self.accel_nominal}"
            )

    @property
    def shape(self):
        return self.bits.shape

    @property
    def achieved_accel(self) -> float:
        return self.bits.size / int(self.bits.sum())


@dataclass(frozen=True)
class KtData:
    """Complex (k,t)-space samples, zero where unsampled."""

    samples: np.ndarray
    mask: SamplingMask

    def __post_init__(self):
        samples = as_complex_tensor(self.samples)
        check_image_shape(samples, self.mask, "samples")
        if not np.array_equal(samples, samples * self.mask.bits):
            raise ValueError("samples must be zero at unsampled locations")
        object.__setattr__(self, "samples", samples)


def _rasterize_spokes(h: int, w: int, angles: np.ndarray) -> np.ndarray:
    """Rasterize diametral spokes through the grid center: angles [T, n] -> bits [T, H, W],
    every spoke of every frame in one pass."""
    t = angles.shape[0]
    frames = np.zeros((t, h, w), dtype=np.uint8)
    cy, cx = h // 2, w // 2
    rmax = 0.5 * float(np.hypot(h, w))
    radii = np.arange(-rmax, rmax + 0.25, 0.25)
    ys = np.rint(cy + radii * np.sin(angles)[..., None]).astype(int)
    xs = np.rint(cx + radii * np.cos(angles)[..., None]).astype(int)
    fs = np.broadcast_to(np.arange(t)[:, None, None], ys.shape)
    keep = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    frames[fs[keep], ys[keep], xs[keep]] = 1
    # centered rasterization -> unshifted FFT convention
    return np.fft.ifftshift(frames, axes=(1, 2))


def radial_budget(h: int, w: int, accel: float) -> tuple[int, int]:
    """(spokes, samples) per frame of an h x w radial mask at acceleration accel >= 1:
    round(max(h,w)*pi/2 / accel) spokes and round(h*w/accel) samples. Raises
    ValueError "acceleration unachievable" for less than one spoke, or for a
    sample count whose acceleration h*w/samples misses +-15% of accel
    (possible on small grids: 4x4 at 11x gets 1 sample)."""
    n_spokes = int(round(max(h, w) * np.pi / 2.0 / accel))
    if n_spokes < 1:
        raise ValueError(f"acceleration unachievable: {accel} leaves fewer than one spoke "
                         f"per frame of {h}x{w}")
    budget = int(round(h * w / accel))
    if budget < 1 or not _accel_within_15pct(h * w / budget, accel):
        raise ValueError(f"acceleration unachievable: {budget} samples per frame of {h}x{w} "
                         f"miss +-15% of {accel}")
    return n_spokes, budget


def make_radial_mask(t: int, h: int, w: int, accel: float, seed: int) -> SamplingMask:
    """Golden-angle radial (k,t) mask at a requested acceleration factor.

    Per frame, the radial_budget spokes are rasterized, with the spoke set
    rotated by the golden angle from frame to frame plus a seed-derived global
    offset. The rasterized pattern is then pruned (or padded) with seeded
    randomness to hit radial_budget's per-frame sample count, so the achieved
    acceleration is h*w/budget; an acceleration radial_budget refuses raises
    its ValueError. Deterministic for fixed arguments.
    """
    if t < 1:
        raise ValueError(f"a mask needs at least one frame, got t={t}")
    if not (is_real(accel) and accel >= 1):
        raise ValueError(f"acceleration must be >= 1 and finite, got {accel}")
    check_pow2(h, w)
    n_spokes, budget = radial_budget(h, w, accel)
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, np.pi)
    golden = np.deg2rad(GOLDEN_ANGLE_DEG)
    angles = (offset + np.arange(t) * golden)[:, None] + np.arange(n_spokes) * np.pi / n_spokes
    bits = np.zeros((t, h, w), dtype=np.uint8)
    for f, frame in enumerate(_rasterize_spokes(h, w, angles)):
        frame[0, 0] = 1
        n_on = int(frame.sum())
        flat = frame.ravel()
        if n_on > budget:
            on = np.flatnonzero(flat)
            on = on[on != 0]  # never prune DC
            drop = rng.choice(on, size=n_on - budget, replace=False)
            flat[drop] = 0
        elif n_on < budget:
            off = np.flatnonzero(flat == 0)
            add = rng.choice(off, size=budget - n_on, replace=False)
            flat[add] = 1
        bits[f] = flat.reshape(h, w)
    return SamplingMask(bits=bits, accel_nominal=float(accel))


def check_image_shape(image, mask: SamplingMask, what: str = "image") -> None:
    """Raises ValueError naming both shapes unless image has the mask's [T,H,W]
    shape; an image of one frame is not broadcast over the mask's frames. The one
    shape check of KtData, encode, normal_op, cs_objective, cs_gradient, dc_solve,
    modl_forward and corrupt."""
    if np.shape(image) != mask.shape:
        raise ValueError(f"{what} shape {np.shape(image)} != mask shape {mask.shape}")


def encode(s: np.ndarray, mask: SamplingMask) -> KtData:
    """Forward encoding: frame-wise unitary DFT, then mask."""
    s = as_complex_tensor(s)
    check_image_shape(s, mask)
    return KtData(samples=dft2(s, "forward") * mask.bits, mask=mask)


def adjoint(d: KtData) -> np.ndarray:
    """Adjoint encoding (zero-filled reconstruction): the inverse DFT of the
    samples. Masking first is not needed: KtData admits only samples that are
    zero off the mask."""
    return dft2(d.samples, "inverse")


def normal_op(s: np.ndarray, mask: SamplingMask, lam: float = 0.0) -> np.ndarray:
    """Apply E^H E + lam*I; self-adjoint, PSD (PD for lam > 0). s must have the mask's shape."""
    if not (is_real(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite real >= 0, got {lam!r}")
    s = as_complex_tensor(s)
    check_image_shape(s, mask)
    return dft2(dft2(s, "forward") * mask.bits, "inverse") + lam * s
