"""Compressed-sensing baseline: data fidelity + smoothed spatial/temporal TV.

Solved by nonlinear conjugate gradient (Fletcher-Reeves) with Armijo
backtracking on the smoothed objective

    ||d_u - E s||^2 + l1 * sum sqrt(|grad_s s|^2 + eps)
                    + l2 * sum sqrt(|grad_t s|^2 + eps)

where the square root is applied per difference component of the complex
modulus and eps is the module constant SMOOTH_EPS.

The objective sees s only through three affine images, (E s - d_u, grad_s s,
grad_t s); its value and its gradient are both computed from them. E, grad_s
and grad_t are linear, so the images of a trial point s + a d are
img(s) + a img(d) (the line search of Lustig, Donoho & Pauly's SparseMRI).
An iteration therefore encodes its search direction once (one forward DFT),
scores every Armijo trial by elementwise arithmetic, updates the images in
place and takes the next gradient from them (one inverse DFT), however many
backtracks it needs. There is no per-iteration callback: the ConvergenceLog
records the objective after every accepted step and the backtracks it took.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, adjoint, encode
from .numerics import (
    dft2,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
)

__all__ = ["SMOOTH_EPS", "CsConfig", "ConvergenceLog", "cs_objective", "cs_gradient",
           "cs_reconstruct"]

SMOOTH_EPS = 1e-6


@dataclass(frozen=True)
class CsConfig:
    lambda1: float = 1e-3
    lambda2: float = 5e-3
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is False
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ValueError("regularization weights must be finite and >= 0")
        if not 0 < self.tol < np.inf or self.max_iters < 1:
            raise ValueError("tol must be positive and finite, and max_iters >= 1")


@dataclass
class ConvergenceLog:
    objective: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # rejected trials per accepted step
    line_search_failed: bool = False


def _images(x: np.ndarray, mask, samples) -> list:
    """The objective's affine images of x: (E x - samples, grad_s x, grad_t x)."""
    return [encode(x, mask).samples - samples, grad_spatial(x), grad_temporal(x)]


def _value(images, cfg: CsConfig) -> float:
    """Objective from its images; given a generator, it holds one image at a time."""
    val = 0.0
    for lam, im in zip((None, cfg.lambda1, cfg.lambda2), images):
        if lam is None:
            val += np.vdot(im, im).real
        else:
            val += lam * np.sqrt(np.abs(im) ** 2 + SMOOTH_EPS).sum()
    return float(val)


def _gradient(images, cfg: CsConfig) -> np.ndarray:
    """Gradient w.r.t. the real/imag parts of s, packed complex, from s's images."""
    r, gs, gt = images
    # E^H r; the residual already lives on the sampled set
    g = 2.0 * dft2(r, "inverse")
    g = g + cfg.lambda1 * grad_spatial_adjoint(gs / np.sqrt(np.abs(gs) ** 2 + SMOOTH_EPS))
    g = g + cfg.lambda2 * grad_temporal_adjoint(gt / np.sqrt(np.abs(gt) ** 2 + SMOOTH_EPS))
    return g


def cs_objective(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> float:
    return _value(_images(s, d_u.mask, d_u.samples), cfg)


def cs_gradient(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> np.ndarray:
    """Gradient of cs_objective w.r.t. the real/imag parts of s, packed complex."""
    return _gradient(_images(s, d_u.mask, d_u.samples), cfg)


def cs_reconstruct(d_u: KtData, cfg: CsConfig | None = None):
    """Nonlinear CG (Fletcher-Reeves) from the zero-filled start.

    Returns (reconstruction, ConvergenceLog). The logged objective sequence is
    non-increasing; if the Armijo search fails 50 backtracks in a row the
    current iterate is returned with the warning flag set.
    """
    cfg = cfg or CsConfig()
    s = adjoint(d_u)
    log = ConvergenceLog()
    img = _images(s, d_u.mask, d_u.samples)
    f = _value(img, cfg)
    log.objective.append(f)
    d = gg = None
    step0 = 1.0
    for _ in range(cfg.max_iters):
        g, gg_prev = _gradient(img, cfg), gg
        gg = np.vdot(g, g).real
        if gg < 1e-30:
            break
        # Fletcher-Reeves direction; the first one is steepest descent
        d = -g if d is None else -g + (gg / gg_prev) * d
        # Armijo backtracking: f(s + a d) <= f + c a Re<g, d>
        slope = np.vdot(g, d).real
        if slope >= 0:  # not a descent direction; restart on steepest descent
            d = -g
            slope = -gg
        del g
        img_d = _images(d, d_u.mask, 0.0)
        a = step0
        for rejected in range(50):
            f_new = _value((x + a * y for x, y in zip(img, img_d)), cfg)
            if f_new <= f + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            log.line_search_failed = True
            break
        for x, y in zip([s, *img], [d, *img_d]):  # the point and its images
            x += a * y
        del img_d, y  # free the direction's images before the next gradient
        log.backtracks.append(rejected)
        step0 = min(1.0, a * 2.0)
        f_prev, f = f, f_new
        log.objective.append(f)
        if abs(f_prev - f) <= cfg.tol * max(abs(f_prev), 1e-30):
            break
    return s, log
