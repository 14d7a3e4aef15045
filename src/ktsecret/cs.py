"""Compressed-sensing baseline: data fidelity + smoothed spatial/temporal TV.

Solved by nonlinear conjugate gradient (Fletcher-Reeves) with Armijo
backtracking on the smoothed objective

    ||d_u - E s||^2 + l1 * sum sqrt(|grad_s s|^2 + eps)
                    + l2 * sum sqrt(|grad_t s|^2 + eps)

where the square root is applied per difference component of the complex
modulus and eps is the module constant SMOOTH_EPS.

The objective sees s only through four affine images, held in one complex
[4,T,H,W] array: E s - d_u, grad_s s (two slices) and grad_t s. Its value and
gradient are computed from them. E, grad_s and grad_t are linear, so the images
of a trial point s + a d are img(s) + a img(d) (the line search of Lustig,
Donoho & Pauly's SparseMRI): an iteration encodes its search direction once
(one forward DFT), scores every Armijo trial by one elementwise expression and
takes the next gradient from the accepted trial's images (one inverse DFT),
however many backtracks it needs. The ConvergenceLog records the objective
after every accepted step and the backtracks it took.

cs_reconstruct allocates its workspace at entry: s, the direction d, the
images of the point, of the direction and of the trial (the trial's residual
slice doubles as the gradient), and the smoothed moduli of the three TV slices,
one real [3,T,H,W] array. The search stops at the first accepted trial, so the
last trial scored is the new point: its images rotate in by swapping
references with the point's, the moduli already are its own, and only s is
updated, s += a d. The point's old images and the direction's serve as the
next gradient's scratch. Every step writes with ufunc out= or in place, in the
same order as the plain expressions, so nothing is allocated per iteration:
each DFT writes through dft2's out= into a slice of the images it belongs to
(out must be C-contiguous complex128 of the input's shape and not overlap
it), and the gradient's TV weights multiply by the moduli's reciprocals,
formed in the moduli array.
The real inner products (the data term, ||g||^2 and the Armijo slope) are
numerics.re_dot, so the result does not depend on the BLAS thread count.
cs_objective and cs_gradient validate s and allocate their own buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, adjoint
from .numerics import (
    as_complex_tensor,
    check_fields,
    dft2,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
    re_dot,
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
        check_fields(self)
        if self.lambda1 < 0 or self.lambda2 < 0 or self.tol <= 0 or self.max_iters < 1:
            raise ValueError("lambda1 and lambda2 must be >= 0, tol positive and max_iters >= 1")


@dataclass
class ConvergenceLog:
    objective: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # rejected trials per accepted step
    line_search_failed: bool = False


def _images(x: np.ndarray, mask, samples, out: np.ndarray) -> np.ndarray:
    """Writes the objective's affine images of x into the complex [4,T,H,W]
    out and returns it: E x - samples, then grad_s x (2), then grad_t x;
    samples None stands for zero."""
    dft2(x, "forward", out=out[0])
    np.multiply(out[0], mask.bits, out=out[0])
    if samples is not None:
        np.subtract(out[0], samples, out=out[0])
    grad_spatial(x, out=out[1:3])
    grad_temporal(x, out=out[3])
    return out


def _moduli(images: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sqrt(|im|^2 + SMOOTH_EPS) of the three TV images, written into the
    real [3,T,H,W] w and returned."""
    np.abs(images[1:], out=w)
    np.square(w, out=w)
    np.add(w, SMOOTH_EPS, out=w)
    return np.sqrt(w, out=w)


def _value(images: np.ndarray, cfg: CsConfig, w: np.ndarray) -> float:
    """Objective from its images; leaves their smoothed moduli in w."""
    _moduli(images, w)
    return float(re_dot(images[0], images[0]) + cfg.lambda1 * w[:2].sum() + cfg.lambda2 * w[2].sum())


def _gradient(images: np.ndarray, w: np.ndarray, cfg: CsConfig, g: np.ndarray,
              scratch: np.ndarray, tv: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the real/imag parts of s, packed complex, from s's
    images and their smoothed moduli w, written into g. scratch ([3,T,H,W]),
    tv and work ([T,H,W]) are complex scratch. w is overwritten by its
    reciprocal: the TV weights images[1:] / w are formed as
    images[1:] * (1 / w), which numpy's complex-by-real division also
    computes, up to the sign of an exact zero. Nothing reads the moduli
    again before the next trial rewrites them."""
    # E^H r; the residual already lives on the sampled set
    dft2(images[0], "inverse", out=g)
    np.multiply(2.0, g, out=g)
    np.multiply(images[1:], np.divide(1.0, w, out=w), out=scratch)
    np.multiply(cfg.lambda1, grad_spatial_adjoint(scratch[:2], out=tv, work=work), out=tv)
    np.add(g, tv, out=g)
    np.multiply(cfg.lambda2, grad_temporal_adjoint(scratch[2], out=tv), out=tv)
    return np.add(g, tv, out=g)


def _point_images(s: np.ndarray, d_u: KtData) -> np.ndarray:
    s = as_complex_tensor(s)
    if s.shape != d_u.mask.shape:
        raise ValueError(f"image shape {s.shape} != mask shape {d_u.mask.shape}")
    return _images(s, d_u.mask, d_u.samples, np.empty((4, *s.shape), np.complex128))


def cs_objective(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> float:
    return _value(_point_images(s, d_u), cfg, np.empty((3, *d_u.mask.shape)))


def cs_gradient(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> np.ndarray:
    """Gradient of cs_objective w.r.t. the real/imag parts of s, packed complex."""
    shape, images = d_u.mask.shape, _point_images(s, d_u)
    return _gradient(images, _moduli(images, np.empty((3, *shape))), cfg,
                     np.empty(shape, np.complex128), np.empty((3, *shape), np.complex128),
                     np.empty(shape, np.complex128), np.empty(shape, np.complex128))


def cs_reconstruct(d_u: KtData, cfg: CsConfig | None = None):
    """Nonlinear CG (Fletcher-Reeves) from the zero-filled start.

    Returns (reconstruction, ConvergenceLog). The logged objective sequence is
    non-increasing; if the Armijo search fails 50 backtracks in a row the
    current iterate is returned with the warning flag set. A starting objective
    that is not finite raises FloatingPointError. d_u was validated
    when the KtData was built; the search directions are encoded straight
    into the workspace, so nothing is re-validated per iteration.
    """
    cfg = cfg or CsConfig()
    mask, samples = d_u.mask, d_u.samples
    s = adjoint(d_u)  # the iterate, updated in place and returned
    # the workspace: every step below writes into these buffers
    d = np.empty_like(s)
    # the trial's residual slice is also the gradient, dead from the slope on
    img, img_d, trial = (np.empty((4, *s.shape), np.complex128) for _ in range(3))
    moduli = np.empty((3, *s.shape))
    log = ConvergenceLog()
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        f = _value(_images(s, mask, samples, img), cfg, moduli)
    if not np.isfinite(f):
        raise FloatingPointError(f"the starting objective is {f}: the samples are too large")
    log.objective.append(f)
    gg = None
    step0 = 1.0
    for it in range(cfg.max_iters):
        # moduli holds the point's; the trial's and direction's images are scratch
        g = _gradient(img, moduli, cfg, trial[0], trial[1:], img_d[0], img_d[1])
        gg_prev, gg = gg, re_dot(g, g)
        if gg < 1e-30:
            break
        # Fletcher-Reeves direction -g + (gg / gg_prev) d; the first one is steepest descent
        if it == 0:
            np.negative(g, out=d)
        else:
            np.subtract(np.multiply(gg / gg_prev, d, out=d), g, out=d)
        # Armijo backtracking: f(s + a d) <= f + c a Re<g, d>
        slope = re_dot(g, d)
        if slope >= 0:  # not a descent direction; restart on steepest descent
            np.negative(g, out=d)
            slope = -gg
        _images(d, mask, None, img_d)
        a = step0
        for rejected in range(50):
            np.add(img, np.multiply(a, img_d, out=trial), out=trial)
            f_new = _value(trial, cfg, moduli)
            if f_new <= f + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            log.line_search_failed = True
            break
        # the last trial scored is the new point: its images rotate in and
        # moduli already holds its moduli
        img, trial = trial, img
        np.add(s, np.multiply(a, d, out=img_d[0]), out=s)
        log.backtracks.append(rejected)
        step0 = min(1.0, a * 2.0)
        f_prev, f = f, f_new
        log.objective.append(f)
        if abs(f_prev - f) <= cfg.tol * max(abs(f_prev), 1e-30):
            break
    return s, log
