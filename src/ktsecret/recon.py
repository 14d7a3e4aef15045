"""Learned reconstruction: unrolled model-based (MoDL) and self-supervised
(SECRET) training paths sharing one convolutional network.

The data-consistency (DC) block solves (E^H E + lam*I) s = E^H d_u + lam*z.
With one coil, a unitary frame-wise DFT F and a 0/1 mask M, E^H E + lam*I =
F^H diag(M + lam) F, so no iterative solver is needed: s = F^H[(d_u + lam*F z)
/ (M + lam)] exactly (the DC layer of Schlemper et al., IEEE TMI 2018). Its
derivative w.r.t. z, lam*F^H diag(1/(M + lam)) F, is self-adjoint; the
supervised path back-propagates through each DC block with it.

The self-supervised path minimizes the k-space residual on sampled entries
only and consumes datasets that are plain sequences of KtData: no reference
image ever enters that code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, SamplingMask, adjoint
from .numerics import check_fields, dft2, is_real, norm, re_dot
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
    """Training met a non-finite loss, gradient or validation loss; log holds the epochs before it."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class SecretConfig:
    epochs: int = 100
    lr: float = 1e-4
    batch: int = 1  # 0 = full-batch gradient
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1 or self.lr <= 0 or self.batch < 0 or self.seed < 0:
            raise ValueError("epochs must be >= 1, lr positive, batch >= 0 and seed >= 0")


@dataclass(frozen=True)
class ModlConfig(SecretConfig):
    epochs: int = 20  # SecretConfig's fields and check, with these two defaults
    batch: int = 0
    K: int = 1
    lam: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if self.K < 1 or self.lam <= 0:
            raise ValueError("K must be >= 1 and lam positive")


@dataclass
class TrainLog:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)  # per epoch: mean minibatch ||g||_2 before Adam

    def append(self, train, val, secs, grad_norm):
        self.train_loss.append(float(train))
        self.val_loss.append(float(val))
        self.seconds.append(float(secs))
        self.grad_norm.append(float(grad_norm))


@dataclass
class DcInfo:
    residual: float
    converged: bool
    iterations: int


def _inverse_normal_k(y_k: np.ndarray, mask: SamplingMask, lam: float) -> np.ndarray:
    """(M + lam)^{-1} y_k: the inverse of E^H E + lam*I, applied in k-space."""
    return y_k / (mask.bits + lam)


def dc_solve(z_k: np.ndarray, d_u: KtData, lam: float):
    """Exact data-consistency solve of (E^H E + lam*I) s = E^H d_u + lam*z_k.

    Returns (image, DcInfo); iterations is 0 (a direct solve) and residual is
    the relative normal-equation residual, measured in k-space.
    """
    if not (is_real(lam) and lam > 0):
        raise ValueError("lam must be positive and finite")
    rhs_k = d_u.samples + lam * dft2(z_k, "forward")  # F(E^H d_u + lam*z_k)
    s_k = _inverse_normal_k(rhs_k, d_u.mask, lam)
    residual = norm((d_u.mask.bits + lam) * s_k - rhs_k) / max(norm(rhs_k), 1e-300)
    return dft2(s_k, "inverse"), DcInfo(residual, bool(np.isfinite(residual)), iterations=0)


def modl_forward(s_u: np.ndarray, d_u: KtData, params: NetworkParams, cfg: ModlConfig,
                 net_cfg: NetConfig, want_cache: bool = False):
    """K unrolled iterations with shared weights: denoise, then DC solve."""
    s = np.asarray(s_u, dtype=np.complex128)
    caches = []
    for _ in range(cfg.K):
        z, cache = net_forward(s, params, net_cfg)
        s, _ = dc_solve(z, d_u, cfg.lam)
        if want_cache:
            caches.append(cache)
    return (s, caches) if want_cache else s


def _modl_loss(d_u: KtData, target: np.ndarray, params: NetworkParams,
               cfg: ModlConfig, net_cfg: NetConfig) -> float:
    """Forward-only loss ||s_K - t||^2."""
    diff = modl_forward(adjoint(d_u), d_u, params, cfg, net_cfg) - target
    return re_dot(diff, diff)


def _modl_sample_grad(d_u: KtData, target: np.ndarray, params: NetworkParams,
                      cfg: ModlConfig, net_cfg: NetConfig):
    """Loss ||s_K - t||^2 and its parameter gradient via implicit DC differentiation."""
    s_u = adjoint(d_u)
    s_k, caches = modl_forward(s_u, d_u, params, cfg, net_cfg, want_cache=True)
    diff = s_k - target
    loss = re_dot(diff, diff)
    g = 2.0 * diff
    g_theta = np.zeros(params.size)
    for cache in reversed(caches):
        # d s_{k+1} / d z_k = lam * (E^H E + lam I)^{-1}, self-adjoint
        gz = cfg.lam * dft2(_inverse_normal_k(dft2(g, "forward"), d_u.mask, cfg.lam), "inverse")
        gt, g = net_backward(gz, cache, params)
        g_theta += gt
    return loss, g_theta


def _secret_forward(d_u: KtData, params: NetworkParams, net_cfg: NetConfig):
    """Loss ||r||^2 of the sampled residual r = mask * F(C(s_u)) - d_u, r, and the net cache."""
    s_hat, cache = net_forward(adjoint(d_u), params, net_cfg)
    r = dft2(s_hat, "forward") * d_u.mask.bits - d_u.samples
    return re_dot(r, r), r, cache


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
    """Raises TrainingDiverged for a FloatingPointError in the block; other errors pass through."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(str(exc), log) from exc


def _check_shapes(dataset, val_dataset, net_cfg: NetConfig) -> None:
    """Raises ValueError unless every sample's k-space has net_cfg.frames
    frames and one shape, and every target of a (KtData, target) pair has
    its sample's shape; a mismatch is a bad dataset, not a divergence."""
    shape = None
    for where, samples in (("dataset", dataset), ("val_dataset", val_dataset or ())):
        for i, sample in enumerate(samples):
            d_u, target = (sample, None) if isinstance(sample, KtData) else sample
            shape = shape or (net_cfg.frames,) + d_u.samples.shape[1:]
            if d_u.samples.shape != shape:
                raise ValueError(f"{where}[{i}] has k-space shape {d_u.samples.shape}, expected {shape}")
            if target is not None and np.shape(target) != shape:
                raise ValueError(f"{where}[{i}] has target shape {np.shape(target)}, expected {shape}")


def _fit(dataset, loss_and_grad, loss_only, cfg, net_cfg: NetConfig, val_dataset):
    """Minibatch Adam on summed per-sample gradients; returns (params, TrainLog).

    loss_and_grad(sample, params) -> (loss, flat gradient) drives the updates;
    the forward-only loss_only(sample, params) scores the validation set after
    every epoch. With a validation set the parameters of the lowest validation
    loss are returned, otherwise those of the last epoch.
    """
    dataset = list(dataset)
    _check_shapes(dataset, val_dataset, net_cfg)
    params = init_params(net_cfg, cfg.seed)
    theta = params.to_flat()
    state = AdamState.zeros(theta.size)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    best_params, best_val = params, np.inf
    for _ in range(cfg.epochs):
        t_start = time.perf_counter()
        epoch_loss, grad_norms = 0.0, []
        for batch in _epoch_batches(len(dataset), cfg.batch, rng):
            g_total = np.zeros_like(theta)
            for i in batch:
                with _divergence_check(log):
                    loss, g = loss_and_grad(dataset[i], params)
                    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
                        raise FloatingPointError("training loss or gradient became non-finite")
                epoch_loss += loss
                g_total += g
            grad_norms.append(norm(g_total))
            theta, state = adam_step(theta, g_total, state, lr=cfg.lr)
            params = params.from_flat(theta)
        with _divergence_check(log):
            val = sum(loss_only(sample, params) for sample in val_dataset) if val_dataset else np.nan
            if val_dataset and not np.isfinite(val):
                raise FloatingPointError("validation loss became non-finite")
        if val < best_val:
            best_params, best_val = params, val
        log.append(epoch_loss, val, time.perf_counter() - t_start, np.mean(grad_norms))
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
