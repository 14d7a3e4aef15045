"""Compressed-sensing baseline: data fidelity + smoothed spatial/temporal TV.

Solved by nonlinear conjugate gradient (Fletcher-Reeves) with Armijo
backtracking on the smoothed objective

    ||d_u - E s||^2 + l1 * sum sqrt(|grad_s s|^2 + eps)
                    + l2 * sum sqrt(|grad_t s|^2 + eps)

where the square root is applied per difference component of the complex
modulus.
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

__all__ = ["CsConfig", "ConvergenceLog", "cs_objective", "cs_gradient", "cs_reconstruct"]


@dataclass(frozen=True)
class CsConfig:
    lambda1: float = 1e-3
    lambda2: float = 5e-3
    max_iters: int = 100
    smooth_eps: float = 1e-6
    tol: float = 1e-6

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("regularization weights must be >= 0")
        if self.smooth_eps <= 0 or self.tol <= 0 or self.max_iters < 1:
            raise ValueError("smooth_eps, tol must be positive and max_iters >= 1")


@dataclass
class ConvergenceLog:
    objective: list = field(default_factory=list)
    line_search_failed: bool = False


def _fidelity_residual(s: np.ndarray, d_u: KtData) -> np.ndarray:
    return encode(s, d_u.mask).samples - d_u.samples


def cs_objective(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> float:
    r = _fidelity_residual(s, d_u)
    gs = grad_spatial(s)
    gt = grad_temporal(s)
    val = np.vdot(r, r).real
    val += cfg.lambda1 * np.sqrt(np.abs(gs) ** 2 + cfg.smooth_eps).sum()
    val += cfg.lambda2 * np.sqrt(np.abs(gt) ** 2 + cfg.smooth_eps).sum()
    return float(val)


def cs_gradient(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> np.ndarray:
    """Gradient of cs_objective w.r.t. the real/imag parts of s, packed complex."""
    r = _fidelity_residual(s, d_u)
    # E^H r; the residual already lives on the sampled set
    g = 2.0 * dft2(r, "inverse")
    gs = grad_spatial(s)
    ws = gs / np.sqrt(np.abs(gs) ** 2 + cfg.smooth_eps)
    g = g + cfg.lambda1 * grad_spatial_adjoint(ws)
    gt = grad_temporal(s)
    wt = gt / np.sqrt(np.abs(gt) ** 2 + cfg.smooth_eps)
    g = g + cfg.lambda2 * grad_temporal_adjoint(wt)
    return g


def cs_reconstruct(d_u: KtData, cfg: CsConfig | None = None, callback=None):
    """Nonlinear CG (Fletcher-Reeves) from the zero-filled start.

    Returns (reconstruction, ConvergenceLog). The logged objective sequence is
    non-increasing; if the Armijo search fails 50 backtracks in a row the
    current iterate is returned with the warning flag set.
    """
    cfg = cfg or CsConfig()
    s = adjoint(d_u)
    log = ConvergenceLog()
    f = cs_objective(s, d_u, cfg)
    log.objective.append(f)
    g = cs_gradient(s, d_u, cfg)
    d = -g
    gg = np.vdot(g, g).real
    step0 = 1.0
    for it in range(cfg.max_iters):
        if gg < 1e-30:
            break
        # Armijo backtracking: f(s + a d) <= f + c a Re<g, d>
        slope = np.vdot(g, d).real
        if slope >= 0:  # not a descent direction; restart on steepest descent
            d = -g
            slope = -gg
        a = step0
        accepted = False
        for _ in range(50):
            f_new = cs_objective(s + a * d, d_u, cfg)
            if f_new <= f + 1e-4 * a * slope:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            log.line_search_failed = True
            break
        s = s + a * d
        step0 = min(1.0, a * 2.0)
        f_prev, f = f, f_new
        log.objective.append(f)
        if callback is not None:
            callback(it, s, f)
        if abs(f_prev - f) <= cfg.tol * max(abs(f_prev), 1e-30):
            break
        g_new = cs_gradient(s, d_u, cfg)
        gg_new = np.vdot(g_new, g_new).real
        beta = gg_new / gg
        d = -g_new + beta * d
        g, gg = g_new, gg_new
    return s, log
