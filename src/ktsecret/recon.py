"""Learned reconstruction: one unrolled forward through one convolutional network.

The forward runs K shared-weight iterations of network then data-consistency
(DC) solve; K = 0 is the network alone, single-pass SECRET. One loss serves
both methods, chosen by sample kind: a bare KtData is scored by its sampled
k-space residual (SECRET, self-supervised), a (KtData, target) pair by the
image error (MoDL, supervised). secret_train refuses pairs, so no reference
image ever reaches SECRET.

The DC block solves (E^H E + lam*I) s = E^H d_u + lam*z. With one coil, a
unitary frame-wise DFT F and a 0/1 mask M, E^H E + lam*I = F^H diag(M + lam) F,
so no iterative solver is needed: s = F^H[(d_u + lam*F z) / (M + lam)] exactly
(the DC layer of Schlemper et al., IEEE TMI 2018). Its derivative w.r.t. z,
lam*F^H diag(1/(M + lam)) F, is self-adjoint; the reverse pass applies it at
each DC block. Only a loss with a gradient keeps the K network caches (the
activation tapes) for its reverse pass, which frees each as it goes; a
forward-only unroll drops each tape when its network pass returns, so
inference holds one tape whatever K is.

Training raises TrainingDiverged, carrying the log so far, when a sample's loss or
gradient or the validation loss is not finite, or when numpy reports an overflow or
invalid value anywhere in an epoch: one np.errstate guard covers every sample loss,
Adam step (a finite gradient whose square overflows included) and validation loss.
The explicit checks stay, as an overflow in a BLAS thread sets no numpy flag. Any
other error, a ValueError included, surfaces as itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, SamplingMask, adjoint, check_image_shape
from .numerics import check_fields, dft2, is_real, norm, re_dot
from .net import AdamState, NetConfig, NetworkParams, adam_step, init_params, net_backward, net_forward

__all__ = ["ModlConfig", "SecretConfig", "TrainLog", "TrainingDiverged", "DcInfo", "dc_solve", "modl_forward",
           "modl_train", "secret_loss", "secret_train", "secret_infer"]


class TrainingDiverged(RuntimeError):
    """Training met a non-finite loss, gradient, Adam step or validation loss; log holds the epochs before it."""

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
    converged: bool  # the returned image is finite
    iterations: int  # always 0: the solve is direct


def _inverse_normal_k(y_k: np.ndarray, mask: SamplingMask, lam: float) -> np.ndarray:
    """(M + lam)^{-1} y_k: the inverse of E^H E + lam*I, applied in k-space."""
    return y_k / (mask.bits + lam)


def dc_solve(z_k: np.ndarray, d_u: KtData, lam: float):
    """Exact data-consistency solve of (E^H E + lam*I) s = E^H d_u + lam*z_k.

    Returns (image, DcInfo(converged, iterations=0)). z_k must have the mask's
    shape; a non-finite z_k is reported by DcInfo.converged.
    """
    if not (is_real(lam) and lam > 0):
        raise ValueError("lam must be positive and finite")
    check_image_shape(z_k, d_u.mask)
    rhs_k = d_u.samples + lam * dft2(z_k, "forward")  # F(E^H d_u + lam*z_k)
    s = dft2(_inverse_normal_k(rhs_k, d_u.mask, lam), "inverse")
    return s, DcInfo(bool(np.isfinite(s).all()), iterations=0)


def _unroll(s_u: np.ndarray, d_u: KtData, params: NetworkParams, net_cfg: NetConfig, K: int, lam: float,
            caches: list | None = None):
    """K shared-weight iterations of network then DC solve, or the network alone
    for K = 0 (single-pass SECRET); returns the output. The net caches are
    appended to `caches` in order when a list is given, else dropped."""
    s = s_u
    for _ in range(max(K, 1)):
        z, cache = net_forward(s, params, net_cfg)
        if caches is not None:
            caches.append(cache)
        del cache  # else the next net_forward would run while this tape is still held
        s = dc_solve(z, d_u, lam)[0] if K else z
    return s


def _sample_loss(sample, params: NetworkParams, net_cfg: NetConfig, K: int, lam: float, grad: bool):
    """Loss of one sample, and with grad also its flat parameter gradient.

    A bare KtData is scored by the sampled k-space residual
    ||mask * F(s) - d_u||^2, a (KtData, target) pair by the image error
    ||s - target||^2, where s is the K-step unroll of the zero-filled image.
    """
    d_u, target = (sample, None) if isinstance(sample, KtData) else sample
    caches = [] if grad else None
    s = _unroll(adjoint(d_u), d_u, params, net_cfg, K, lam, caches)
    supervised = target is not None
    r = s - target if supervised else dft2(s, "forward") * d_u.mask.bits - d_u.samples
    loss = re_dot(r, r)
    if not grad:
        return loss
    g = 2.0 * (r if supervised else dft2(r, "inverse"))  # E^H r: r is already zero off the mask
    g_theta = None
    for cache in reversed(caches):
        if K:  # d s_{k+1} / d z_k = lam * (E^H E + lam I)^{-1}, self-adjoint
            g = lam * dft2(_inverse_normal_k(dft2(g, "forward"), d_u.mask, lam), "inverse")
        gt, g = net_backward(g, cache, params)
        g_theta = gt if g_theta is None else np.add(g_theta, gt, out=g_theta)
    return loss, g_theta


def modl_forward(s_u: np.ndarray, d_u: KtData, params: NetworkParams, cfg: ModlConfig, net_cfg: NetConfig):
    """K unrolled iterations with shared weights: denoise, then DC solve. s_u must have the mask's shape."""
    check_image_shape(s_u, d_u.mask)
    return _unroll(s_u, d_u, params, net_cfg, cfg.K, cfg.lam)


def secret_loss(d_u: KtData, params: NetworkParams, net_cfg: NetConfig):
    """Self-supervised loss || d_u - mask * F(C(s_u)) ||^2 of one sample, with parameter gradient."""
    return _sample_loss(d_u, params, net_cfg, 0, 0.0, grad=True)


def _epoch_batches(n: int, batch: int, rng) -> list:
    order = rng.permutation(n)
    if batch <= 0 or batch >= n:
        return [order]
    return [order[i:i + batch] for i in range(0, n, batch)]


def _check_shapes(dataset, val_dataset, net_cfg: NetConfig, paired: bool) -> None:
    """Raises ValueError unless every sample is of its kind ((KtData, target)
    pairs when paired, else bare KtData, so no reference enters SECRET), every
    sample's k-space has net_cfg.frames frames and one shape, and every target
    has its sample's shape; a mismatch is a bad dataset, not a divergence."""
    shape = None
    for where, samples in (("dataset", dataset), ("val_dataset", val_dataset)):
        for i, sample in enumerate(samples):
            if isinstance(sample, KtData) == paired:
                want = "a (KtData, target) pair" if paired else "a bare KtData (no reference)"
                raise ValueError(f"{where}[{i}] is not {want}")
            d_u, target = sample if paired else (sample, None)
            shape = shape or (net_cfg.frames,) + d_u.samples.shape[1:]
            if d_u.samples.shape != shape:
                raise ValueError(f"{where}[{i}] has k-space shape {d_u.samples.shape}, expected {shape}")
            if target is not None and np.shape(target) != shape:
                raise ValueError(f"{where}[{i}] has target shape {np.shape(target)}, expected {shape}")


def _fit(dataset, cfg, net_cfg: NetConfig, val_dataset, K: int, lam: float):
    """Minibatch Adam on summed per-sample gradients; returns (params, TrainLog).

    _sample_loss scores every sample through a K-step unroll: K = 0 takes bare
    KtData (SECRET), K >= 1 takes (KtData, target) pairs (MoDL). It scores the
    validation set, forward only, after every epoch. With a validation set the
    parameters of the lowest validation loss are returned, else the last.
    """
    dataset, val_dataset = list(dataset), list(val_dataset or ())
    if not dataset:
        raise ValueError("dataset is empty")
    _check_shapes(dataset, val_dataset, net_cfg, paired=K > 0)
    params = init_params(net_cfg, cfg.seed)
    theta = params.to_flat()
    state = AdamState.zeros(theta.size)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    best_params, best_val = None, np.inf  # params would pin the initial vector for a run without validation
    try:  # the divergence guard of the module docstring
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(cfg.epochs):
                t_start = time.perf_counter()
                epoch_loss, grad_norms = 0.0, []
                for batch in _epoch_batches(len(dataset), cfg.batch, rng):
                    g_total = None
                    for i in batch:
                        loss, g = _sample_loss(dataset[i], params, net_cfg, K, lam, grad=True)
                        if not (np.isfinite(loss) and np.all(np.isfinite(g))):
                            raise FloatingPointError("training loss or gradient became non-finite")
                        epoch_loss += loss
                        g_total = g if g_total is None else np.add(g_total, g, out=g_total)
                    grad_norms.append(norm(g_total))
                    theta, state = adam_step(theta, g_total, state, lr=cfg.lr)
                    params = params.from_flat(theta)
                val = (sum(_sample_loss(sample, params, net_cfg, K, lam, grad=False) for sample in val_dataset)
                       if val_dataset else np.nan)
                if val_dataset and not np.isfinite(val):
                    raise FloatingPointError("validation loss became non-finite")
                if val < best_val:
                    best_params, best_val = params, val
                log.append(epoch_loss, val, time.perf_counter() - t_start, np.mean(grad_norms))
    except FloatingPointError as exc:
        raise TrainingDiverged(str(exc), log) from exc
    return (best_params if val_dataset else params), log


def modl_train(dataset, cfg: ModlConfig, net_cfg: NetConfig, val_dataset=None):
    """Supervised training on (KtData, target) pairs; returns (params, TrainLog).

    A validation set of pairs selects the checkpoint, as in secret_train.
    """
    return _fit(dataset, cfg, net_cfg, val_dataset, cfg.K, cfg.lam)


def secret_train(dataset, cfg: SecretConfig, net_cfg: NetConfig, val_dataset=None):
    """Self-supervised training on bare KtData sequences (no references).

    When a validation set is given, the parameters with the lowest validation
    loss are returned (checkpoint selection); otherwise the final epoch wins.
    """
    return _fit(dataset, cfg, net_cfg, val_dataset, 0, 0.0)


def secret_infer(d_u: KtData, params: NetworkParams, net_cfg: NetConfig) -> np.ndarray:
    """Single-pass reconstruction: zero-filled adjoint, then the network."""
    return _unroll(adjoint(d_u), d_u, params, net_cfg, 0, 0.0)
