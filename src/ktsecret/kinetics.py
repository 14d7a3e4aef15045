"""Patlak quantification and image-quality metrics (PSNR, SSIM, NRMSE).

The Patlak fit is an ordinary least-squares regression of each pixel's
time-curve against [integral of the AIF, AIF], restricted to frames where the
AIF exceeds 5% of its peak (pre-contrast frames carry no kinetic
information). Magnitudes of complex series are used as tissue curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import cumulative_trapezoid, is_real, norm

__all__ = ["PatlakMap", "MetricsReport", "patlak_fit", "psnr", "ssim", "nrmse", "evaluate_series"]


@dataclass
class PatlakMap:
    ktrans: np.ndarray  # [H,W], 1/min
    vp: np.ndarray  # [H,W]
    fit_r2: np.ndarray  # [H,W], in [0,1] inside the ROI
    mask_roi: np.ndarray  # binary [H,W]


@dataclass
class MetricsReport:
    psnr_frames: np.ndarray
    ssim_frames: np.ndarray
    nrmse_frames: np.ndarray

    @property
    def psnr(self) -> float:
        return float(np.mean(self.psnr_frames))

    @property
    def ssim(self) -> float:
        return float(np.mean(self.ssim_frames))

    @property
    def nrmse(self) -> float:
        """Mean over the frames where NRMSE is defined (non-zero reference)."""
        return float(np.nanmean(self.nrmse_frames))


def _check_series(x: np.ndarray) -> np.ndarray:
    if x.ndim != 3:
        raise ValueError(f"expected a [T,H,W] series, got shape {x.shape}")
    return x


def _magnitudes(x, ref) -> tuple:
    """|x| and |ref|, which the metrics compare: they must share one shape."""
    x, ref = np.abs(np.asarray(x)), np.abs(np.asarray(ref))
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")
    return x, ref


def patlak_fit(series: np.ndarray, aif: np.ndarray, dt: float, roi: np.ndarray) -> PatlakMap:
    """Pixelwise Patlak regression inside a binary ROI.

    dt is the frame spacing in seconds; the AIF integral is taken in minutes
    so the fitted slope is in 1/min. Pixels with a singular design matrix are
    set to NaN and dropped from the ROI.
    """
    series = _check_series(np.asarray(series))
    aif = np.asarray(aif, dtype=float)
    roi = np.asarray(roi, dtype=bool)
    t, h, w = series.shape
    if not (is_real(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t < 3:
        raise ValueError("need at least 3 frames")
    if roi.shape != (h, w) or aif.shape != (t,):
        raise ValueError(f"series of shape {series.shape} needs an roi of shape {(h, w)} and an aif of "
                         f"shape {(t,)}; got roi {roi.shape}, aif {aif.shape}")
    if not np.any(aif != 0):
        raise ValueError("AIF is identically zero")

    t_axis_min = np.arange(t) * dt / 60.0
    int_aif = cumulative_trapezoid(aif, t_axis_min)
    use = aif > 0.05 * aif.max()
    x = np.stack([int_aif[use], aif[use]], axis=1)  # [F,2]
    y = np.abs(series)[use][:, roi]  # [F,Npix]

    xtx = x.T @ x
    ktrans = np.zeros((h, w))
    vp = np.zeros((h, w))
    r2 = np.zeros((h, w))
    roi_out = roi.copy()
    if x.shape[0] < 2 or np.linalg.matrix_rank(xtx) < 2:
        ktrans[roi] = np.nan
        vp[roi] = np.nan
        r2[roi] = np.nan
        roi_out[roi] = False
        return PatlakMap(ktrans, vp, r2, roi_out)

    beta = np.linalg.solve(xtx, x.T @ y)  # [2,Npix]
    resid = y - x @ beta
    ss_res = (resid ** 2).sum(axis=0)
    ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2_pix = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0)
    ktrans[roi] = beta[0]
    vp[roi] = beta[1]
    r2[roi] = np.clip(r2_pix, 0.0, 1.0)
    return PatlakMap(ktrans, vp, r2, roi_out)


def _reference_peak(ref: np.ndarray) -> float:
    """max of the magnitudes ref, the PSNR peak and default SSIM data range. The one rule every
    metric applies to its reference: this peak must be positive and finite (a NaN fails it)."""
    peak = ref.max()
    if not (is_real(peak) and peak > 0):
        raise ValueError("reference peak must be > 0")
    return peak


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak SNR in dB over the whole series; peak is max |ref|."""
    x, ref = _magnitudes(x, ref)
    return _psnr_db(_reference_peak(ref), np.mean((x - ref) ** 2))


def _psnr_db(peak: float, mse: float) -> float:
    """10 log10(peak^2 / mse) in dB; inf when mse is 0."""
    return float("inf") if mse == 0 else float(10.0 * np.log10(peak ** 2 / mse))


def _gaussian_window(size: int = 11) -> np.ndarray:
    """The normalised 1-D Gaussian (sigma 1.5); the 2-D window is its outer product."""
    ax = np.arange(size) - size // 2
    g = np.exp(-(ax ** 2) / (2 * 1.5 ** 2))
    return g / g.sum()


def _ssim_frame(x: np.ndarray, ref: np.ndarray, data_range: float) -> float:
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    size = min(11, min(x.shape))
    if size % 2 == 0:
        size -= 1
    g = _gaussian_window(size)
    # "valid" filtering by the separable window: one 1-D pass per image axis
    moments = np.stack([x, ref, x * x, ref * ref, x * ref])
    for axis in (1, 2):
        moments = sliding_window_view(moments, size, axis=axis) @ g
    mu_x, mu_y, exx, eyy, exy = moments  # the means, then E[x^2], E[ref^2], E[x ref]
    num = (2 * mu_x * mu_y + c1) * (2 * (exy - mu_x * mu_y) + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * ((exx - mu_x ** 2) + (eyy - mu_y ** 2) + c2)
    return float(np.mean(num / den))


def ssim(x: np.ndarray, ref: np.ndarray, data_range: float | None = None) -> float:
    """Mean per-frame SSIM (11x11 Gaussian window, sigma 1.5, K1/K2 defaults)
    of a [T,H,W] series or one [H,W] frame.

    data_range defaults to max |ref|, which must be positive and finite even
    when data_range is given, as must a given data_range; pass a shared positive
    constant to make the measure symmetric in its arguments.
    """
    x, ref = _magnitudes(x, ref)
    if x.ndim == 2:
        x, ref = x[None], ref[None]
    _check_series(x)
    peak = _reference_peak(ref)
    dr = peak if data_range is None else data_range
    if not (is_real(dr) and dr > 0):
        raise ValueError(f"data_range must be positive and finite, got {data_range}")
    return float(np.mean([_ssim_frame(x[i], ref[i], float(dr)) for i in range(x.shape[0])]))


def nrmse(x: np.ndarray, ref: np.ndarray) -> float:
    """||x - ref|| / ||ref|| over the whole series; max |ref| must be positive and finite."""
    x, ref = np.asarray(x), np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    _reference_peak(np.abs(ref))
    denom = norm(ref)
    if denom == 0:  # a positive peak whose square underflows
        raise ValueError("zero reference")
    return norm(x - ref) / denom


def evaluate_series(x: np.ndarray, ref: np.ndarray) -> MetricsReport:
    """Per-frame PSNR/SSIM with the series peak of |ref|, and NRMSE by each
    reference frame's norm (NaN on an all-zero reference frame)."""
    x, ref = _magnitudes(x, ref)
    _check_series(x)
    peak = _reference_peak(ref)
    dr = float(peak)
    psnrs, ssims, nrmses = [], [], []
    for i in range(x.shape[0]):
        psnrs.append(_psnr_db(peak, np.mean((x[i] - ref[i]) ** 2)))
        ssims.append(_ssim_frame(x[i], ref[i], dr))
        denom = norm(ref[i])
        nrmses.append(norm(x[i] - ref[i]) / denom if denom > 0 else np.nan)
    return MetricsReport(np.asarray(psnrs), np.asarray(ssims), np.asarray(nrmses))
