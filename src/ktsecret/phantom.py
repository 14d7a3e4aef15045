"""Synthetic contrast-enhanced dynamic phantoms with known tracer kinetics.

A phantom is a stack of elliptical regions on a flat background: one
"ventricle" carrying the arterial input function (AIF) directly, plus tissue
regions whose time-curves follow the Patlak model exactly. Intensities are an
affine map of concentration, jointly normalized to [0, 1] over the whole
series so inter-frame contrast is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import KtData, SamplingMask, check_image_shape
from .numerics import check_fields, check_pow2, cumulative_trapezoid, dft2, is_real

__all__ = ["PhantomSpec", "PhantomTruth", "gamma_variate_aif", "synthesize", "corrupt"]

BASELINE = 0.1
CONTRAST_PER_MM = 0.1  # intensity per mM of contrast agent, pre-normalization


@dataclass(frozen=True)
class PhantomSpec:
    h: int = 64
    w: int = 64
    t: int = 16
    dt: float = 2.0  # seconds per frame
    n_tissue_regions: int = 3
    ktrans_range: tuple = (0.1, 0.6)  # 1/min
    vp_range: tuple = (0.02, 0.15)  # plasma volume fraction
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if (self.t < 8 or self.n_tissue_regions < 1 or self.seed < 0
                or self.noise_sigma < 0 or self.dt <= 0):
            raise ValueError("need t >= 8, n_tissue_regions >= 1, seed >= 0, noise_sigma >= 0, dt > 0")
        check_pow2(self.h, self.w)
        if min(self.h, self.w) < 8:  # below 8 the regions overflow the image, or no pixel varies
            raise ValueError("need h, w >= 8: synthesize draws no smaller phantom")
        for lo, hi in (self.ktrans_range, self.vp_range):
            if not 0 <= lo <= hi:
                raise ValueError("parameter ranges must be non-negative with max >= min")


@dataclass(frozen=True)
class PhantomTruth:
    """Ground truth for one phantom.

    aif is the plasma concentration curve in mM; aif_signal is the same curve
    in normalized image-intensity units, which is what a kinetic fit against
    the (normalized) images must use to recover absolute parameters.
    """

    ref_images: np.ndarray  # complex [T,H,W], noiseless, intensities in [0,1]
    ktrans_map: np.ndarray  # real [H,W], 1/min
    vp_map: np.ndarray  # real [H,W]
    aif: np.ndarray  # real [T], mM
    aif_signal: np.ndarray  # real [T], normalized intensity units
    region_labels: np.ndarray  # int [H,W]: 0 background, 1 ventricle, >=2 tissue
    dt: float  # seconds per frame

    @property
    def tissue_roi(self) -> np.ndarray:
        return self.region_labels >= 2


def gamma_variate_aif(t_axis: np.ndarray, t0: float, alpha: float, beta: float, scale: float) -> np.ndarray:
    """Gamma-variate bolus curve, peak value `scale` at t = t0 + alpha*beta."""
    t_axis = np.asarray(t_axis, dtype=float)
    if not np.all(np.isfinite(t_axis)):
        raise ValueError("t_axis must be finite")
    if np.any(np.diff(t_axis) <= 0):
        raise ValueError("t_axis must be strictly increasing")
    for name, value in (("t0", t0), ("alpha", alpha), ("beta", beta), ("scale", scale)):
        if not is_real(value):
            raise ValueError(f"{name} must be a finite real, not {value!r}")
    if alpha <= 0 or beta <= 0 or scale <= 0:
        raise ValueError("alpha, beta, scale must be positive")
    tau = t_axis - t0
    out = np.zeros_like(t_axis)
    up = tau > 0
    out[up] = scale * (tau[up] / (alpha * beta)) ** alpha * np.exp(alpha - tau[up] / beta)
    return out


def _ellipse(h: int, w: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def synthesize(spec: PhantomSpec) -> PhantomTruth:
    """Generate a phantom whose tissue curves are exactly Patlak-linear. A spec
    whose tissue regions leave a region label without a pixel (the ventricle
    and the earlier regions cover it) raises ValueError."""
    rng = np.random.default_rng(spec.seed)
    h, w, t = spec.h, spec.w, spec.t
    t_axis = np.arange(t) * spec.dt
    duration = t_axis[-1]
    aif = gamma_variate_aif(t_axis, t0=0.1 * duration, alpha=2.5, beta=duration / 14.0, scale=5.0)
    # Patlak integral in minutes so ktrans carries 1/min units
    int_aif = cumulative_trapezoid(aif, t_axis / 60.0)

    labels = np.zeros((h, w), dtype=np.int64)
    ktrans_map = np.zeros((h, w))
    vp_map = np.zeros((h, w))
    conc = np.zeros((t, h, w))

    # ventricle: carries the AIF directly
    vent = _ellipse(h, w, 0.5 * (h - 1), 0.3 * (w - 1), 0.14 * h, 0.1 * w)
    labels[vent] = 1
    conc[:, vent] = aif[:, None]

    # tissue regions on an arc around the image center, right of the ventricle
    ring_r = 0.28 * min(h, w)
    cy0, cx0 = 0.5 * (h - 1), 0.55 * (w - 1)
    for i in range(spec.n_tissue_regions):
        phi = -np.pi / 2 + i * np.pi / max(1, spec.n_tissue_regions - 1) if spec.n_tissue_regions > 1 else 0.0
        cy = cy0 + ring_r * np.sin(phi)
        cx = cx0 + 0.5 * ring_r * np.cos(phi) + 0.12 * w
        region = _ellipse(h, w, cy, cx, 0.09 * h, 0.09 * w)
        region &= labels == 0
        if not region.any():
            raise ValueError(f"n_tissue_regions={spec.n_tissue_regions} does not fit {h}x{w}: "
                             f"region label {2 + i} would draw no pixel")
        ktrans = rng.uniform(*spec.ktrans_range)
        vp = rng.uniform(*spec.vp_range)
        labels[region] = 2 + i
        ktrans_map[region] = ktrans
        vp_map[region] = vp
        conc[:, region] = (ktrans * int_aif + vp * aif)[:, None]

    intensity = BASELINE + CONTRAST_PER_MM * conc
    lo, hi = intensity.min(), intensity.max()
    images = (intensity - lo) / (hi - lo)
    scale = CONTRAST_PER_MM / (hi - lo)
    return PhantomTruth(
        ref_images=images.astype(np.complex128),
        ktrans_map=ktrans_map,
        vp_map=vp_map,
        aif=aif,
        aif_signal=aif * scale,
        region_labels=labels,
        dt=spec.dt,
    )


def corrupt(truth: PhantomTruth, mask: SamplingMask, noise_sigma: float, seed: int) -> KtData:
    """Undersample the reference k-space, adding noise on sampled points only.

    Noise std is noise_sigma times the peak magnitude of the DC row of the
    reference k-space; complex Gaussian, split evenly between components.
    """
    if not (is_real(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    check_image_shape(truth.ref_images, mask, "phantom")
    kspace = dft2(truth.ref_images, "forward")
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        std = noise_sigma * np.abs(kspace[:, 0, :]).max()
        noise = (rng.standard_normal(kspace.shape) + 1j * rng.standard_normal(kspace.shape)) * (std / np.sqrt(2))
        kspace = kspace + noise
    return KtData(samples=kspace * mask.bits, mask=mask)

