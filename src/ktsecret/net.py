"""Small convolutional encoder-decoder with hand-written backpropagation.

Complex frames are packed as 2T real channels (T real parts then T imaginary
parts). The network is a two-level U-Net-style encoder-decoder: conv-ReLU
pairs, 2x average pooling down, nearest-neighbor upsampling with skip
concatenation up, a final 1x1 conv back to 2T channels, and a residual path
that adds the temporal-average image of the input to every output frame.

Every layer, 3x3 or 1x1, is one convolution whose forward, weight gradient
and input gradient are each one im2col plus one GEMM: im2col builds the
zero-padded patch matrix, the kernel size is read from the weight's shape,
and the input gradient convolves the output gradient with the kernel flipped
in space and transposed (in <-> out).

Forward caches every intermediate needed for an exact reverse pass; gradients
are validated against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import is_int

__all__ = [
    "NetConfig",
    "NetworkParams",
    "AdamState",
    "init_params",
    "net_forward",
    "net_backward",
    "adam_step",
    "to_channels",
    "to_complex",
]


@dataclass(frozen=True)
class NetConfig:
    frames: int
    depth_levels: int = 2
    base_channels: int = 16

    def __post_init__(self):
        sizes = (self.frames, self.depth_levels, self.base_channels)
        if not is_int(*sizes) or min(sizes) < 1:
            raise ValueError("frames, depth_levels, base_channels must be integers >= 1")

    @property
    def io_channels(self) -> int:
        return 2 * self.frames


@dataclass
class ConvLayer:
    weight: np.ndarray  # [out_ch, in_ch, k, k]
    bias: np.ndarray  # [out_ch]


class NetworkParams:
    """Ordered conv layers with a contiguous flat parameter view."""

    def __init__(self, layers):
        self.layers = list(layers)

    @property
    def size(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)

    def to_flat(self) -> np.ndarray:
        return np.concatenate([np.concatenate([l.weight.ravel(), l.bias]) for l in self.layers])

    def from_flat(self, flat: np.ndarray) -> "NetworkParams":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.size:
            raise ValueError(f"flat vector length {flat.size} != parameter count {self.size}")
        out, i = [], 0
        for l in self.layers:
            w = flat[i:i + l.weight.size].reshape(l.weight.shape)
            i += l.weight.size
            b = flat[i:i + l.bias.size].copy()
            i += l.bias.size
            out.append(ConvLayer(w, b))
        return NetworkParams(out)


def _plan(cfg: NetConfig):
    """The architecture as an op tape: forward runs it, backward replays it reversed.

    Conv ops are ("conv", layer index, kernel size, in_ch, out_ch).
    """
    ops = []

    def conv(k, cin, cout):
        ops.append(("conv", sum(op[0] == "conv" for op in ops), k, cin, cout))

    ch_in = cfg.io_channels
    for lvl in range(cfg.depth_levels):
        ch = cfg.base_channels * 2 ** lvl
        conv(3, ch_in, ch)
        ops.append(("relu",))
        conv(3, ch, ch)
        ops += [("relu",), ("skip", lvl), ("pool",)]
        ch_in = ch
    bott = cfg.base_channels * 2 ** cfg.depth_levels
    conv(3, ch_in, bott)
    ops.append(("relu",))
    conv(3, bott, bott)
    ops.append(("relu",))
    ch_in = bott
    for lvl in reversed(range(cfg.depth_levels)):
        ch = cfg.base_channels * 2 ** lvl
        ops += [("up",), ("concat", lvl)]
        conv(3, ch_in + ch, ch)
        ops.append(("relu",))
        conv(3, ch, ch)
        ch_in = ch
    conv(1, ch_in, cfg.io_channels)
    return ops


def init_params(cfg: NetConfig, seed: int) -> NetworkParams:
    """He-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for _, _, k, cin, cout in (op for op in _plan(cfg) if op[0] == "conv"):
        limit = np.sqrt(6.0 / (cin * k * k))
        layers.append(ConvLayer(rng.uniform(-limit, limit, size=(cout, cin, k, k)), np.zeros(cout)))
    return NetworkParams(layers)


def to_channels(s: np.ndarray) -> np.ndarray:
    """Complex [T,H,W] -> real [2T,H,W] (real parts first)."""
    s = np.asarray(s, dtype=np.complex128)
    return np.concatenate([s.real, s.imag], axis=0)


def to_complex(x: np.ndarray) -> np.ndarray:
    """Real [2T,H,W] -> complex [T,H,W]."""
    t = x.shape[0] // 2
    return x[:t] + 1j * x[t:]


def _im2col(x, k):
    """[C,H,W] -> [C*k*k, H*W] zero-padded k x k patches, rows ordered (c, dy, dx)."""
    c, h, w = x.shape
    if k == 1:
        return x.reshape(c, h * w)
    p = k // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x
    cols = np.empty((c, k, k, h, w), dtype=x.dtype)
    for dy, dx in np.ndindex(k, k):
        cols[:, dy, dx] = xp[:, dy:dy + h, dx:dx + w]
    return cols.reshape(c * k * k, h * w)


def _conv_forward(x, w, b):
    """'Same' convolution of x [C,H,W] with w [out, C, k, k] plus bias b."""
    cout, _, k, _ = w.shape
    _, h, wd = x.shape
    y = w.reshape(cout, -1) @ _im2col(x, k) + b[:, None]
    return y.reshape(cout, h, wd)


def _conv_backward(gy, x, w):
    """Returns (weight, bias, input) gradients, each from one im2col + GEMM:
    gW = gY im2col(x)^T, and gX is the same zero-padded conv of gY with the
    kernel flipped in space and transposed to [in, out, k, k] (k odd)."""
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    gw = (gy.reshape(cout, h * wd) @ _im2col(x, k).T).reshape(w.shape)
    w_adj = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
    gx = (w_adj @ _im2col(gy, k)).reshape(cin, h, wd)
    return gw, gy.reshape(cout, -1).sum(axis=1), gx


def net_forward(s_u: np.ndarray, params: NetworkParams, cfg: NetConfig):
    """Run the network on a complex [T,H,W] series; returns (output, cache)."""
    t, h, w = s_u.shape
    if t != cfg.frames:
        raise ValueError(f"series has {t} frames, config expects {cfg.frames}")
    if h % 2 ** cfg.depth_levels or w % 2 ** cfg.depth_levels:
        raise ValueError(f"H,W must be divisible by {2 ** cfg.depth_levels}")
    x = to_channels(s_u)
    skips = {}
    tape = []  # (op, input array) per executed op
    for op in _plan(cfg):
        tape.append((op, x))
        if op[0] == "conv":
            layer = params.layers[op[1]]
            x = _conv_forward(x, layer.weight, layer.bias)
        elif op[0] == "relu":
            x = np.maximum(x, 0.0)
        elif op[0] == "pool":
            c, hh, ww = x.shape
            x = x.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))
        elif op[0] == "up":
            x = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        elif op[0] == "skip":
            skips[op[1]] = x
        elif op[0] == "concat":
            x = np.concatenate([skips[op[1]], x], axis=0)
    avg = s_u.mean(axis=0)
    out = to_complex(x) + avg[None, :, :]
    cache = {"tape": tape, "skips": skips, "cfg": cfg, "shape": s_u.shape}
    return out, cache


def net_backward(grad_out: np.ndarray, cache, params: NetworkParams):
    """Exact reverse pass; returns (flat parameter gradient, input gradient).

    grad_out is complex [T,H,W] holding dL/d(real part) + i*dL/d(imag part)
    of the network output; the returned input gradient uses the same packing.
    """
    cfg: NetConfig = cache["cfg"]
    t = cfg.frames
    gx = to_channels(grad_out)
    grads = [None] * len(params.layers)  # every layer runs once per pass
    gskips = {lvl: None for lvl in range(cfg.depth_levels)}
    for op, x_in in reversed(cache["tape"]):
        if op[0] == "conv":
            gw, gb, gx = _conv_backward(gx, x_in, params.layers[op[1]].weight)
            grads[op[1]] = (gw, gb)
        elif op[0] == "relu":
            gx = gx * (x_in > 0)
        elif op[0] == "pool":
            gx = np.repeat(np.repeat(gx, 2, axis=1), 2, axis=2) / 4.0
        elif op[0] == "up":
            c, hh, ww = x_in.shape
            gx = gx.reshape(c, hh, 2, ww, 2).sum(axis=(2, 4))
        elif op[0] == "skip":
            gx = gx + gskips[op[1]]
        elif op[0] == "concat":
            c_skip = cache["skips"][op[1]].shape[0]
            gskips[op[1]] = gx[:c_skip]
            gx = gx[c_skip:]
    # residual path: every output frame sees the temporal average of the input
    g_residual = grad_out.sum(axis=0) / t
    grad_in = to_complex(gx) + g_residual[None, :, :]
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat, grad_in


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update on flat parameter vectors (beta1 0.9, beta2 0.999, eps 1e-8)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError("theta, grad and state shapes must agree")
    step = state.step + 1
    m = beta1 * state.m + (1 - beta1) * grad
    v = beta2 * state.v + (1 - beta2) * grad ** 2
    m_hat = m / (1 - beta1 ** step)
    v_hat = v / (1 - beta2 ** step)
    theta_new = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta_new, AdamState(m=m, v=v, step=step)
