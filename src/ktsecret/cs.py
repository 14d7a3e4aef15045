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

cs_reconstruct allocates one workspace at entry: the iterate, the direction
and the gradient, the three images of the point and of the direction, one
[2,T,H,W] complex trial/scratch buffer and one real buffer for the smoothed
moduli. Every step writes into it with ufunc out= or in-place operations, in
the same order as the plain expressions, so there is no per-iteration
allocation beyond the DFT outputs (numpy's FFT takes no out=). The direction's
images are dead while the next gradient is taken and serve as its scratch.
cs_objective and cs_gradient validate s and allocate their own buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, adjoint
from .numerics import (
    as_complex_tensor,
    dft2,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
    is_int,
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
        if not 0 < self.tol < np.inf or not is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError("tol must be positive and finite, and max_iters an integer >= 1")


@dataclass
class ConvergenceLog:
    objective: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # rejected trials per accepted step
    line_search_failed: bool = False


def _image_buffers(shape: tuple) -> tuple:
    """Uninitialised buffers for the three images of a T,H,W point."""
    return (np.empty(shape, np.complex128), np.empty((2, *shape), np.complex128),
            np.empty(shape, np.complex128))


def _images(x: np.ndarray, mask, samples, out: tuple) -> tuple:
    """Writes the objective's affine images of x, (E x - samples, grad_s x,
    grad_t x), into out and returns it; samples None stands for zero."""
    r, gs, gt = out
    np.multiply(dft2(x, "forward"), mask.bits, out=r)
    if samples is not None:
        np.subtract(r, samples, out=r)
    grad_spatial(x, out=gs)
    grad_temporal(x, out=gt)
    return out


def _slab(buf: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The part of a [2,T,H,W] scratch buffer shaped like im: all of it, or buf[0]."""
    return buf if im.ndim == buf.ndim else buf[0]


def _smoothed_modulus(im: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sqrt(|im|^2 + SMOOTH_EPS), written into the real scratch buffer weight."""
    w = _slab(weight, im)
    np.abs(im, out=w)
    np.square(w, out=w)
    np.add(w, SMOOTH_EPS, out=w)
    return np.sqrt(w, out=w)


def _value(images, cfg: CsConfig, weight: np.ndarray) -> float:
    """Objective from its images; given a generator, it holds one image at a
    time. weight is a real [2,T,H,W] scratch buffer."""
    val = 0.0
    for lam, im in zip((None, cfg.lambda1, cfg.lambda2), images):
        if lam is None:
            val += np.vdot(im, im).real
        else:
            val += lam * _smoothed_modulus(im, weight).sum()
    return float(val)


def _gradient(images, cfg: CsConfig, g: np.ndarray, trial: np.ndarray, weight: np.ndarray,
              tv: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the real/imag parts of s, packed complex, from s's
    images, written into g. trial ([2,T,H,W] complex), weight ([2,T,H,W]
    real), tv and work ([T,H,W] complex) are scratch."""
    r, gs, gt = images
    # E^H r; the residual already lives on the sampled set
    np.multiply(2.0, dft2(r, "inverse"), out=g)
    np.divide(gs, _smoothed_modulus(gs, weight), out=trial)
    np.multiply(cfg.lambda1, grad_spatial_adjoint(trial, out=tv, work=work), out=tv)
    np.add(g, tv, out=g)
    np.divide(gt, _smoothed_modulus(gt, weight), out=trial[0])
    np.multiply(cfg.lambda2, grad_temporal_adjoint(trial[0], out=tv), out=tv)
    return np.add(g, tv, out=g)


def _trial_images(img, img_d, a: float, trial: np.ndarray):
    """The images of s + a d, one at a time, each written into trial."""
    for x, y in zip(img, img_d):
        buf = np.multiply(a, y, out=_slab(trial, y))
        yield np.add(x, buf, out=buf)


def _point_images(s: np.ndarray, d_u: KtData) -> tuple:
    s = as_complex_tensor(s)
    if s.shape != d_u.mask.shape:
        raise ValueError(f"image shape {s.shape} != mask shape {d_u.mask.shape}")
    return _images(s, d_u.mask, d_u.samples, _image_buffers(s.shape))


def cs_objective(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> float:
    return _value(_point_images(s, d_u), cfg, np.empty((2, *d_u.mask.shape)))


def cs_gradient(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> np.ndarray:
    """Gradient of cs_objective w.r.t. the real/imag parts of s, packed complex."""
    shape = d_u.mask.shape
    return _gradient(_point_images(s, d_u), cfg, np.empty(shape, np.complex128),
                     np.empty((2, *shape), np.complex128), np.empty((2, *shape)),
                     np.empty(shape, np.complex128), np.empty(shape, np.complex128))


def cs_reconstruct(d_u: KtData, cfg: CsConfig | None = None):
    """Nonlinear CG (Fletcher-Reeves) from the zero-filled start.

    Returns (reconstruction, ConvergenceLog). The logged objective sequence is
    non-increasing; if the Armijo search fails 50 backtracks in a row the
    current iterate is returned with the warning flag set. d_u was validated
    when the KtData was built; the search directions are encoded straight
    into the workspace, so nothing is re-validated per iteration.
    """
    cfg = cfg or CsConfig()
    mask, samples = d_u.mask, d_u.samples
    s = adjoint(d_u)  # the iterate, updated in place and returned
    # the workspace: every step below writes into these buffers
    d, g = np.empty_like(s), np.empty_like(s)
    img, img_d = _image_buffers(s.shape), _image_buffers(s.shape)
    trial = np.empty((2, *s.shape), np.complex128)
    weight = np.empty((2, *s.shape))
    log = ConvergenceLog()
    f = _value(_images(s, mask, samples, img), cfg, weight)
    log.objective.append(f)
    gg = None
    step0 = 1.0
    for it in range(cfg.max_iters):
        # the direction's images are dead here; two of them serve as scratch
        _gradient(img, cfg, g, trial, weight, img_d[0], img_d[2])
        gg_prev, gg = gg, np.vdot(g, g).real
        if gg < 1e-30:
            break
        # Fletcher-Reeves direction -g + (gg / gg_prev) d; the first one is steepest descent
        if it == 0:
            np.negative(g, out=d)
        else:
            np.subtract(np.multiply(gg / gg_prev, d, out=d), g, out=d)
        # Armijo backtracking: f(s + a d) <= f + c a Re<g, d>
        slope = np.vdot(g, d).real
        if slope >= 0:  # not a descent direction; restart on steepest descent
            np.negative(g, out=d)
            slope = -gg
        _images(d, mask, None, img_d)
        a = step0
        for rejected in range(50):
            f_new = _value(_trial_images(img, img_d, a, trial), cfg, weight)
            if f_new <= f + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            log.line_search_failed = True
            break
        for x, y in zip([s, *img], [d, *img_d]):  # the point and its images
            np.add(x, np.multiply(a, y, out=_slab(trial, y)), out=x)
        log.backtracks.append(rejected)
        step0 = min(1.0, a * 2.0)
        f_prev, f = f, f_new
        log.objective.append(f)
        if abs(f_prev - f) <= cfg.tol * max(abs(f_prev), 1e-30):
            break
    return s, log
