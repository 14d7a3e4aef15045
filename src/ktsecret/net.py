"""Small convolutional encoder-decoder with hand-written backpropagation.

Complex frames are packed as 2T real channels (T real parts then T imaginary
parts). The network is a two-level U-Net-style encoder-decoder: conv-ReLU
pairs, 2x average pooling down, nearest-neighbor upsampling with skip
concatenation up, a final 1x1 conv back to 2T channels, and a residual path
that adds the temporal-average image of the input to every output frame.

Every layer, 3x3 or 1x1, is one 'same' convolution with the kernel size read
from the weight's shape, computed without a patch matrix: the input is
zero-padded by p = k//2 and flattened once per channel, and each of the k*k
taps is one GEMM of its [out, in] weight slice with a shifted window of that
row, summed on an output raster whose rows carry 2p extra columns that are
dropped. The weight gradient is one GEMM per tap of the output gradient,
laid out on the same raster, with the tap's window; the input gradient is
the same tap-sum convolution of the output gradient with the kernel flipped
in space and transposed (in <-> out). A 1x1 kernel is one GEMM, no copy.

The parameters are one float64 vector that Adam steps and weight files store;
the layers are views of it, and net_backward returns the gradient in its layout.
Forward records, per op, only the array its reverse needs: a conv's input and a
ReLU's output, which the ReLU writes into the conv output it consumes, so each
activation is held once. net_backward frees that tape entry by entry as it
goes, and refuses a cache it has already consumed. Adam updates its moments in
place. Gradients are validated against central finite differences in the test
suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import check_fields

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
        check_fields(self)
        # H and W are multiples of 2**depth_levels: at 32, a frame's 4**32 pixels pass numpy's index range
        if min(self.frames, self.depth_levels, self.base_channels) < 1 or self.depth_levels > 31:
            raise ValueError("frames and base_channels must be >= 1, depth_levels in [1, 31]")

    @property
    def io_channels(self) -> int:
        return 2 * self.frames

    def check_fits(self, shape: tuple) -> None:
        """Raises ValueError unless `shape` is [frames, H, W] with H, W multiples of 2**depth_levels."""
        n = 2 ** self.depth_levels
        if len(shape) != 3 or shape[0] != self.frames or shape[1] % n or shape[2] % n:
            raise ValueError(f"series of shape {shape}, expected ({self.frames}, H, W), H and W multiples of {n}")


@dataclass
class ConvLayer:
    weight: np.ndarray  # [out_ch, in_ch, k, k]
    bias: np.ndarray  # [out_ch]


class NetworkParams:
    """The conv layers of _plan(cfg) as views of one float64 vector `flat` (zeros if None): per
    layer, its raveled [out, in, k, k] weight, then its [out] bias. from_flat aliases; to_flat copies."""

    def __init__(self, cfg: NetConfig, flat=None):
        convs = [op[2:] for op in _plan(cfg) if op[0] == "conv"]
        count = sum(cout * (cin * k * k + 1) for k, cin, cout in convs)
        flat = np.zeros(count) if flat is None else np.asarray(flat, dtype=np.float64)
        if flat.shape != (count,):
            raise ValueError(f"flat vector of shape {flat.shape} != parameter count {count}")
        self.cfg, self.flat, self.layers, i = cfg, flat, [], 0
        for k, cin, cout in convs:
            n = cout * cin * k * k
            self.layers.append(ConvLayer(flat[i:i + n].reshape(cout, cin, k, k), flat[i + n:i + n + cout]))
            i += n + cout

    @property
    def size(self) -> int:
        return self.flat.size

    def to_flat(self) -> np.ndarray:
        return self.flat.copy()

    def from_flat(self, flat: np.ndarray) -> "NetworkParams":
        return NetworkParams(self.cfg, flat)


def _plan(cfg: NetConfig):
    """The architecture as an op tape: forward runs it, backward replays it reversed.

    Conv ops are ("conv", layer index, kernel size, in_ch, out_ch).
    """
    ops, index = [], itertools.count()

    def conv(k, cin, cout):
        ops.append(("conv", next(index), k, cin, cout))

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
    params = NetworkParams(cfg)
    for layer in params.layers:
        limit = np.sqrt(6.0 / layer.weight[0].size)  # fan-in in * k * k
        layer.weight[...] = rng.uniform(-limit, limit, size=layer.weight.shape)
    return params


def to_channels(s: np.ndarray) -> np.ndarray:
    """Complex [T,H,W] -> real [2T,H,W] (real parts first)."""
    s = np.asarray(s, dtype=np.complex128)
    return np.concatenate([s.real, s.imag], axis=0)


def to_complex(x: np.ndarray) -> np.ndarray:
    """Real [2T,H,W] -> complex [T,H,W]."""
    t = x.shape[0] // 2
    return x[:t] + 1j * x[t:]


def _pad_flat(x, p):
    """[C,H,W] -> [C, (H+2p)(W+2p) + 2p]: each channel zero-padded by p on every
    side and flattened, then 2p trailing zeros so the last tap's window stays in
    the row. p = 0 is a reshape, with no copy for a contiguous x."""
    c, h, w = x.shape
    if p == 0:
        return x.reshape(c, h * w)
    hp, wp = h + 2 * p, w + 2 * p
    xp = np.zeros((c, hp * wp + 2 * p), dtype=x.dtype)
    xp[:, :hp * wp].reshape(c, hp, wp)[:, p:p + h, p:p + w] = x
    return xp


def _tap_sum(xp, w, h, wd):
    """'Same' conv of the padded, flattened input xp with w [out, in, k, k], no bias.

    Tap (dy, dx) is one GEMM of w[:, :, dy, dx] with the window of H*(W+2p)
    columns starting at dy*(W+2p) + dx; the k*k products are summed in raster
    order on an output raster with rows of W+2p, whose last 2p columns are
    dropped. Returns a [out, H, W] view of that raster."""
    cout, _, k, _ = w.shape
    wp = wd + k - 1
    n = h * wp
    y = w[:, :, 0, 0] @ xp[:, :n]
    if k > 1:
        prod = np.empty_like(y)
        for dy, dx in list(np.ndindex(k, k))[1:]:
            off = dy * wp + dx
            y += np.matmul(w[:, :, dy, dx], xp[:, off:off + n], out=prod)
    return y.reshape(cout, h, wp)[:, :, :wd]


def _conv_forward(x, w, b):
    """'Same' convolution of x [C,H,W] with w [out, C, k, k] plus bias b."""
    _, h, wd = x.shape
    return _tap_sum(_pad_flat(x, w.shape[2] // 2), w, h, wd) + b[:, None, None]


def _conv_backward(gy, x, w):
    """Returns (weight, bias, input) gradients from the padded copies of x and gY.

    gX is the same tap-sum conv of gY with the kernel flipped in space and
    transposed to [in, out, k, k] (k odd). gW[:, :, dy, dx] is one GEMM of gY,
    laid out on the padded raster (zeros in the 2p extra columns of each row),
    with the transposed window of tap (dy, dx)."""
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    p = k // 2
    wp = wd + 2 * p
    n = h * wp
    xp, gyp = _pad_flat(x, p), _pad_flat(gy, p)
    gy_raster = gyp[:, p * wp + p:p * wp + p + n]  # the centre tap's window of the padded gY
    gw = np.empty((k, k, cout, cin))
    for dy, dx in np.ndindex(k, k):
        off = dy * wp + dx
        np.matmul(gy_raster, xp[:, off:off + n].T, out=gw[dy, dx])
    gx = _tap_sum(gyp, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, wd)
    return gw.transpose(2, 3, 0, 1), gy.reshape(cout, -1).sum(axis=1), gx


def net_forward(s_u: np.ndarray, params: NetworkParams, cfg: NetConfig):
    """Run the network on a complex [T,H,W] series; returns (output, cache). cfg must be params.cfg.

    The cache's tape holds what net_backward needs, and net_backward consumes it."""
    if cfg != params.cfg:
        raise ValueError(f"{cfg} is not the parameters' {params.cfg}")
    cfg.check_fits(np.shape(s_u))
    x = to_channels(s_u)
    skips = {}
    tape = []  # per executed op: (op, a conv's input or a ReLU's output, else None)
    for op in _plan(cfg):
        tape.append((op, x if op[0] in ("conv", "relu") else None))
        if op[0] == "conv":
            layer = params.layers[op[1]]
            x = _conv_forward(x, layer.weight, layer.bias)
        elif op[0] == "relu":
            np.maximum(x, 0.0, out=x)  # x is a conv output no other op reads
        elif op[0] == "pool":
            c, hh, ww = x.shape
            x = x.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))
        elif op[0] == "up":
            x = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        elif op[0] == "skip":
            skips[op[1]] = x
        elif op[0] == "concat":
            x = np.concatenate([skips.pop(op[1]), x], axis=0)
    avg = s_u.mean(axis=0)
    out = to_complex(x) + avg[None, :, :]
    cache = {"tape": tape, "cfg": cfg, "shape": s_u.shape}
    return out, cache


def net_backward(grad_out: np.ndarray, cache, params: NetworkParams):
    """Exact reverse pass; returns (flat parameter gradient, input gradient).

    grad_out is complex [T,H,W] holding dL/d(real part) + i*dL/d(imag part)
    of the network output; the returned input gradient uses the same packing.
    The cache's tape is released entry by entry, so a cache is reversed once;
    its "cfg" and "shape" stay.
    """
    cfg: NetConfig = cache["cfg"]
    if np.shape(grad_out) != cache["shape"]:
        raise ValueError(f"grad_out of shape {np.shape(grad_out)}, expected the forward's {cache['shape']}")
    tape = cache.pop("tape", None)
    if tape is None:
        raise ValueError("cache already consumed: net_backward reverses one net_forward once")
    gx = to_channels(grad_out)
    grad = params.from_flat(np.zeros(params.size))
    gskips = {}
    while tape:
        op, x_in = tape.pop()
        if op[0] == "conv":
            g = grad.layers[op[1]]
            g.weight[...], g.bias[...], gx = _conv_backward(gx, x_in, params.layers[op[1]].weight)
        elif op[0] == "relu":
            gx = gx * (x_in > 0)  # x_in is the ReLU's output: positive exactly where its input was
        elif op[0] == "pool":
            gx = np.repeat(np.repeat(gx, 2, axis=1), 2, axis=2) / 4.0
        elif op[0] == "up":
            c, hh, ww = gx.shape
            gx = gx.reshape(c, hh // 2, 2, ww // 2, 2).sum(axis=(2, 4))
        elif op[0] == "skip":
            gx = gx + gskips.pop(op[1])
        elif op[0] == "concat":
            c_skip = cfg.base_channels * 2 ** op[1]  # the skip's channels come first
            gskips[op[1]] = gx[:c_skip]
            gx = gx[c_skip:]
    # residual path: every output frame sees the temporal average of the input
    g_residual = grad_out.sum(axis=0) / cfg.frames
    grad_in = to_complex(gx) + g_residual[None, :, :]
    return grad.flat, grad_in


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update on flat parameter vectors (beta1 0.9, beta2 0.999, eps 1e-8).

    Updates state.m and state.v in place, not theta; the new theta is one of two scratch
    vectors. The allocating formula's operations run in its order, so the bits are its bits."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not theta.shape == grad.shape == state.m.shape == state.v.shape:
        raise ValueError("theta, grad and state shapes must agree")
    step = state.step + 1
    m, v = state.m, state.v
    a, b = np.empty_like(theta), np.empty_like(theta)
    m *= beta1
    m += np.multiply(1 - beta1, grad, out=a)
    v *= beta2
    v += np.multiply(1 - beta2, np.square(grad, out=a), out=a)
    m_hat = np.divide(m, 1 - beta1 ** step, out=a)
    denom = np.sqrt(np.divide(v, 1 - beta2 ** step, out=b), out=b)
    denom += eps
    update = np.multiply(lr, m_hat, out=a)
    update /= denom
    return np.subtract(theta, update, out=b), AdamState(m=m, v=v, step=step)
