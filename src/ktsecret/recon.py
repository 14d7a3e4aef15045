"""Learned reconstruction: unrolled model-based (MoDL) and self-supervised
(SECRET) training paths sharing one convolutional network.

The data-consistency block solves (E^H E + lam*I) s = E^H d_u + lam*z by
conjugate gradient; its derivative w.r.t. z is lam*(E^H E + lam*I)^{-1},
which the supervised path exploits for implicit differentiation instead of
unrolling CG steps.

The self-supervised path minimizes the k-space residual on sampled entries
only and consumes datasets that are plain sequences of KtData: no reference
image ever enters that code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, adjoint, encode, normal_op
from .numerics import dft2
from .net import AdamState, NetConfig, NetworkParams, adam_step, init_params, net_backward, net_forward

__all__ = [
    "ModlConfig",
    "SecretConfig",
    "TrainLog",
    "TrainingDiverged",
    "DcInfo",
    "dc_solve",
    "modl_forward",
    "modl_train",
    "secret_loss",
    "secret_train",
    "secret_infer",
]


class TrainingDiverged(RuntimeError):
    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class ModlConfig:
    K: int = 1
    lam: float = 0.05
    cg_iters: int = 10
    cg_tol: float = 1e-6
    epochs: int = 20
    batch: int = 0  # 0 = full-batch gradient
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.lam <= 0:
            raise ValueError("K must be >= 1 and lam > 0")
        if self.epochs < 1 or self.lr <= 0 or self.batch < 0:
            raise ValueError("epochs, lr must be positive; batch >= 0")


@dataclass(frozen=True)
class SecretConfig:
    epochs: int = 100
    lr: float = 1e-4
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.lr <= 0 or self.batch < 0:
            raise ValueError("epochs, lr must be positive; batch >= 0")


@dataclass
class TrainLog:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def append(self, train, val, secs):
        self.train_loss.append(float(train))
        self.val_loss.append(float(val))
        self.seconds.append(float(secs))


@dataclass
class DcInfo:
    residual: float
    converged: bool
    iterations: int


def _cg_normal(rhs: np.ndarray, mask, lam: float, x0: np.ndarray, iters: int, tol: float):
    """CG on (E^H E + lam*I) x = rhs, tracking the best iterate."""
    x = x0.copy()
    r = rhs - normal_op(x, mask, lam)
    p = r.copy()
    rs = np.vdot(r, r).real
    rhs_norm = max(np.linalg.norm(rhs), 1e-300)
    best_x, best_res = x, np.sqrt(rs) / rhs_norm
    if best_res < tol:  # e.g. a zero right-hand side from x0 = 0: no 0/0 step
        return x, DcInfo(residual=best_res, converged=True, iterations=0)
    n = 0
    for n in range(1, iters + 1):
        ap = normal_op(p, mask, lam)
        alpha = rs / np.vdot(p, ap).real
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = np.vdot(r, r).real
        res = np.sqrt(rs_new) / rhs_norm
        if res < best_res:
            best_x, best_res = x, res
        if res < tol:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return best_x, DcInfo(residual=best_res, converged=best_res < tol, iterations=n)


def dc_solve(z_k: np.ndarray, d_u: KtData, lam: float, cg_iters: int = 10, cg_tol: float = 1e-6):
    """Data-consistency solve; returns (image, DcInfo)."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    rhs = adjoint(d_u) + lam * z_k
    return _cg_normal(rhs, d_u.mask, lam, x0=np.asarray(z_k, dtype=np.complex128), iters=cg_iters, tol=cg_tol)


def modl_forward(s_u: np.ndarray, d_u: KtData, params: NetworkParams, cfg: ModlConfig,
                 net_cfg: NetConfig, want_cache: bool = False):
    """K unrolled iterations with shared weights: denoise, then DC solve."""
    s = np.asarray(s_u, dtype=np.complex128)
    caches = []
    for _ in range(cfg.K):
        z, cache = net_forward(s, params, net_cfg)
        s, info = dc_solve(z, d_u, cfg.lam, cfg.cg_iters, cfg.cg_tol)
        if want_cache:
            caches.append(cache)
    return (s, caches) if want_cache else s


def _modl_loss(d_u: KtData, target: np.ndarray, params: NetworkParams,
               cfg: ModlConfig, net_cfg: NetConfig) -> float:
    """Forward-only loss ||s_K - t||^2."""
    diff = modl_forward(adjoint(d_u), d_u, params, cfg, net_cfg) - target
    return np.vdot(diff, diff).real


def _modl_sample_grad(d_u: KtData, target: np.ndarray, params: NetworkParams,
                      cfg: ModlConfig, net_cfg: NetConfig):
    """Loss ||s_K - t||^2 and its parameter gradient via implicit DC differentiation."""
    s_u = adjoint(d_u)
    s_k, caches = modl_forward(s_u, d_u, params, cfg, net_cfg, want_cache=True)
    diff = s_k - target
    loss = np.vdot(diff, diff).real
    g = 2.0 * diff
    g_theta = np.zeros(params.size)
    for cache in reversed(caches):
        # d s_{k+1} / d z_k = lam * (E^H E + lam I)^{-1}, self-adjoint
        gz, _ = _cg_normal(g, d_u.mask, cfg.lam, x0=np.zeros_like(g), iters=cfg.cg_iters, tol=cfg.cg_tol)
        gz = cfg.lam * gz
        gt, g = net_backward(gz, cache, params)
        g_theta += gt
    return loss, g_theta


def _secret_forward(d_u: KtData, params: NetworkParams, net_cfg: NetConfig):
    """Loss ||r||^2 of the sampled residual r = mask * F(C(s_u)) - d_u, r, and the net cache."""
    s_hat, cache = net_forward(adjoint(d_u), params, net_cfg)
    r = encode(s_hat, d_u.mask).samples - d_u.samples
    return np.vdot(r, r).real, r, cache


def secret_loss(d_u: KtData, params: NetworkParams, net_cfg: NetConfig):
    """Self-supervised k-space loss for one sample, with parameter gradient.

    loss = || d_u - mask * F(C(s_u)) ||^2 over sampled entries.
    """
    loss, r, cache = _secret_forward(d_u, params, net_cfg)
    g_out = 2.0 * dft2(r, "inverse")  # E^H r: r is already zero off the mask
    g_theta, _ = net_backward(g_out, cache, params)
    return loss, g_theta


def _epoch_batches(n: int, batch: int, rng) -> list:
    order = rng.permutation(n)
    if batch <= 0 or batch >= n:
        return [order]
    return [order[i:i + batch] for i in range(0, n, batch)]


@contextmanager
def _divergence_check(log: TrainLog):
    """Raises TrainingDiverged for overflow, invalid values or a ValueError in the block."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (ValueError, FloatingPointError) as exc:  # ValueError: e.g. encode given non-finite input
        raise TrainingDiverged(str(exc), log) from exc


def _fit(dataset, loss_and_grad, loss_only, cfg, net_cfg: NetConfig, val_dataset):
    """Minibatch Adam on summed per-sample gradients; returns (params, TrainLog).

    loss_and_grad(sample, params) -> (loss, flat gradient) drives the updates;
    the forward-only loss_only(sample, params) scores the validation set after
    every epoch. With a validation set the parameters of the lowest validation
    loss are returned, otherwise those of the last epoch.
    """
    dataset = list(dataset)
    params = init_params(net_cfg, cfg.seed)
    theta = params.to_flat()
    state = AdamState.zeros(theta.size)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    best_params, best_val = params, np.inf
    for _ in range(cfg.epochs):
        t_start = time.perf_counter()
        epoch_loss = 0.0
        for batch in _epoch_batches(len(dataset), cfg.batch, rng):
            g_total = np.zeros_like(theta)
            for i in batch:
                with _divergence_check(log):
                    loss, g = loss_and_grad(dataset[i], params)
                    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
                        raise ValueError("training loss or gradient became non-finite")
                epoch_loss += loss
                g_total += g
            theta, state = adam_step(theta, g_total, state, lr=cfg.lr)
            params = params.from_flat(theta)
        with _divergence_check(log):
            val = sum(loss_only(sample, params) for sample in val_dataset) if val_dataset else np.nan
        if val < best_val:
            best_params, best_val = params, val
        log.append(epoch_loss, val, time.perf_counter() - t_start)
    return (best_params if val_dataset else params), log


def modl_train(dataset, cfg: ModlConfig, net_cfg: NetConfig, val_dataset=None):
    """Supervised training on (KtData, target) pairs; returns (params, TrainLog).

    A validation set of pairs selects the checkpoint, as in secret_train.
    """
    return _fit(dataset,
                lambda pair, params: _modl_sample_grad(*pair, params, cfg, net_cfg),
                lambda pair, params: _modl_loss(*pair, params, cfg, net_cfg),
                cfg, net_cfg, val_dataset)


def secret_train(dataset, cfg: SecretConfig, net_cfg: NetConfig, val_dataset=None):
    """Self-supervised training on bare KtData sequences (no references).

    When a validation set is given, the parameters with the lowest validation
    loss are returned (checkpoint selection); otherwise the final epoch wins.
    """
    return _fit(dataset,
                lambda d_u, params: secret_loss(d_u, params, net_cfg),
                lambda d_u, params: _secret_forward(d_u, params, net_cfg)[0],
                cfg, net_cfg, val_dataset)


def secret_infer(d_u: KtData, params: NetworkParams, net_cfg: NetConfig) -> np.ndarray:
    """Single-pass reconstruction: zero-filled adjoint, then the network."""
    s_hat, _ = net_forward(adjoint(d_u), params, net_cfg)
    return s_hat
