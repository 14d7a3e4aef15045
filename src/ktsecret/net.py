"""Small convolutional encoder-decoder with hand-written backpropagation.

Complex frames are packed as 2T real channels (T real parts then T imaginary
parts). The network is a two-level U-Net-style encoder-decoder: conv-ReLU
pairs, 2x average pooling down, nearest-neighbor upsampling with skip
concatenation up, a final 1x1 conv back to 2T channels, and a residual path
that adds the temporal-average image of the input to every output frame.

Pooling and its adjoint work on the four strided 2x2 phases x[:, i::2, j::2]:
a 2x2 block sum is (top pair) + (bottom pair), bit-equal to numpy's
reshape(C, h, 2, w, 2).sum(axis=(2, 4)), and the pool divides it by 4.
Upsampling and its skip concatenation are one op, "upcat": the skip is copied
into the head channels of one buffer and each phase of the tail is a copy of
the coarse input. Its reverse slices off the skip's gradient and block-sums
the rest; the pool's reverse writes gX / 4 into the four phases of one buffer.

Every layer, 3x3 or 1x1, is one 'same' convolution with the kernel size read
from the weight's shape, computed without a patch matrix: the input is
zero-padded by p = k//2 and flattened once per channel, and each of the k*k
taps is one GEMM of its [out, in] weight slice with a shifted window of that
row, summed on an output raster whose rows carry 2p extra columns that are
dropped. The weight gradient is one GEMM per tap of the output gradient,
laid out on the same raster, with the tap's window; the input gradient is
the same tap-sum convolution of the output gradient with the kernel flipped
in space and transposed (in <-> out). A 1x1 kernel is one GEMM, no copy.

Precision is mixed, set by the module constant ACT_DTYPE (float32). In
ACT_DTYPE run the packed channels, every activation and buffer of both passes
and every GEMM, with the weights and biases cast from the parameter vector once
per net_forward; its cache keeps that cast for net_backward. In float64 stay
the parameters, one vector `flat` that Adam steps and weight files store, whose
layers are views of it (per conv in _plan's order, the raveled weight, then the
bias); the gradient net_backward returns in its layout; Adam's moments; and the
temporal average the residual path adds, so the output and the input gradient
are complex128. ACT_DTYPE = float64 runs the whole network in float64, as the
finite-difference tests do.

A NetworkParams carries its NetConfig as .cfg. NetConfig.check_fits is the one
rule for which series a network takes: F frames and L pooling levels take a
[T,H,W] series when T = F and 2**L divides H and W. net_forward applies it and
refuses a NetConfig other than params.cfg, naming both, so every caller that
runs the network (secret_infer, modl_forward) refuses them too.

Forward records, per op, only the array its reverse needs: a conv's input and a
ReLU's output, which the ReLU writes into the conv output it consumes, so each
activation is held once. net_backward frees that tape entry by entry as it
goes, and refuses a cache it has already consumed. Adam takes Kingma & Ba's
folded step and updates its moments in place. Gradients are validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import check_fields

__all__ = ["NetConfig", "NetworkParams", "AdamState", "init_params", "net_forward", "net_backward", "adam_step",
           "to_channels", "to_complex"]

ACT_DTYPE = np.float32  # the activations' and GEMMs' dtype; see the module docstring


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


def _convs(cfg: NetConfig) -> list:
    """(kernel size, in_ch, out_ch) of each conv of _plan(cfg), in order."""
    return [op[2:] for op in _plan(cfg) if op[0] == "conv"]


def _layer_views(cfg: NetConfig, flat: np.ndarray) -> list:
    """The conv layers of _plan(cfg) as views of flat: per layer, its raveled
    [out, in, k, k] weight, then its [out] bias."""
    layers, i = [], 0
    for k, cin, cout in _convs(cfg):
        n = cout * cin * k * k
        layers.append(ConvLayer(flat[i:i + n].reshape(cout, cin, k, k), flat[i + n:i + n + cout]))
        i += n + cout
    return layers


class NetworkParams:
    """The conv layers of _plan(cfg) as views of one float64 vector `flat` (zeros if None), in
    _layer_views' layout. from_flat aliases; to_flat copies."""

    def __init__(self, cfg: NetConfig, flat=None):
        count = sum(cout * (cin * k * k + 1) for k, cin, cout in _convs(cfg))
        flat = np.zeros(count) if flat is None else np.asarray(flat, dtype=np.float64)
        if flat.shape != (count,):
            raise ValueError(f"flat vector of shape {flat.shape} != parameter count {count}")
        self.cfg, self.flat, self.layers = cfg, flat, _layer_views(cfg, flat)

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
        ops.append(("upcat", lvl))
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
    """Complex [T,H,W] -> real [2T,H,W] of ACT_DTYPE (real parts first)."""
    s = np.asarray(s, dtype=np.complex128)
    return np.concatenate([s.real, s.imag], axis=0, dtype=ACT_DTYPE)


def to_complex(x: np.ndarray) -> np.ndarray:
    """Real [2T,H,W] -> complex [T,H,W] of the matching precision."""
    t = x.shape[0] // 2
    return x[:t] + 1j * x[t:]


def _sum2x2(x):
    """[C, 2h, 2w] -> [C, h, w], each 2x2 block summed as (top pair) + (bottom pair):
    the pairing bit-equal to x.reshape(C, h, 2, w, 2).sum(axis=(2, 4))."""
    s = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
    s += x[:, 1::2, 0::2] + x[:, 1::2, 1::2]
    return s


def _upsample_into(out, y):
    """Writes the nearest-neighbor 2x upsampling of y [C, h, w] into out [C, 2h, 2w]; returns out."""
    for i in (0, 1):
        for j in (0, 1):
            out[:, i::2, j::2] = y
    return out


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
        for tap in range(1, k * k):
            dy, dx = divmod(tap, k)
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
    gw = np.empty((k, k, cout, cin), dtype=x.dtype)
    for tap in range(k * k):
        dy, dx = divmod(tap, k)
        off = dy * wp + dx
        np.matmul(gy_raster, xp[:, off:off + n].T, out=gw[dy, dx])
    gx = _tap_sum(gyp, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, wd)
    return gw.transpose(2, 3, 0, 1), gy.reshape(cout, -1).sum(axis=1), gx


def net_forward(s_u: np.ndarray, params: NetworkParams, cfg: NetConfig):
    """Run the network on a complex [T,H,W] series; returns (output, cache). cfg must be params.cfg.

    The cache's tape and layer casts hold what net_backward needs, and net_backward consumes them."""
    if cfg != params.cfg:
        raise ValueError(f"{cfg} is not the parameters' {params.cfg}")
    cfg.check_fits(np.shape(s_u))
    x = to_channels(s_u)
    layers = _layer_views(cfg, params.flat.astype(ACT_DTYPE, copy=False))  # one cast per call, not one per conv
    skips = {}
    tape = []  # per executed op: (op, a conv's input or a ReLU's output, else None)
    for op in _plan(cfg):
        tape.append((op, x if op[0] in ("conv", "relu") else None))
        if op[0] == "conv":
            layer = layers[op[1]]
            x = _conv_forward(x, layer.weight, layer.bias)
        elif op[0] == "relu":
            np.maximum(x, 0.0, out=x)  # x is a conv output no other op reads
        elif op[0] == "pool":
            x = _sum2x2(x)
            x /= 4.0
        elif op[0] == "skip":
            skips[op[1]] = x
        elif op[0] == "upcat":
            skip = skips.pop(op[1])
            c_skip = skip.shape[0]
            cat = np.empty((c_skip + x.shape[0],) + skip.shape[1:], dtype=x.dtype)
            cat[:c_skip] = skip
            _upsample_into(cat[c_skip:], x)
            x = cat
    avg = s_u.mean(axis=0)
    out = to_complex(x) + avg[None, :, :]
    cache = {"tape": tape, "layers": layers, "cfg": cfg, "shape": s_u.shape}
    return out, cache


def net_backward(grad_out: np.ndarray, cache, params: NetworkParams):
    """Exact reverse pass; returns (flat parameter gradient, input gradient).

    grad_out is complex [T,H,W] holding dL/d(real part) + i*dL/d(imag part)
    of the network output; the returned input gradient uses the same packing.
    The layer gradients, computed in ACT_DTYPE, are written into one float64
    vector. The cache's tape is released entry by entry and its layer casts
    with it, so a cache is reversed once; its "cfg" and "shape" stay.
    """
    cfg: NetConfig = cache["cfg"]
    if np.shape(grad_out) != cache["shape"]:
        raise ValueError(f"grad_out of shape {np.shape(grad_out)}, expected the forward's {cache['shape']}")
    tape = cache.pop("tape", None)
    if tape is None:
        raise ValueError("cache already consumed: net_backward reverses one net_forward once")
    layers = cache.pop("layers")
    gx = to_channels(grad_out)
    grad = params.from_flat(np.empty(params.size))  # every layer's views are written below
    gskips = {}
    while tape:
        op, x_in = tape.pop()
        if op[0] == "conv":
            g = grad.layers[op[1]]
            g.weight[...], g.bias[...], gx = _conv_backward(gx, x_in, layers[op[1]].weight)
        elif op[0] == "relu":
            # x_in is the ReLU's output: positive exactly where its input was. A new array, as
            # gx may be a view of a tap-sum raster, which an in-place product would keep alive
            gx = gx * (x_in > 0)
        elif op[0] == "pool":
            c, hh, ww = gx.shape
            gx = _upsample_into(np.empty((c, 2 * hh, 2 * ww), dtype=gx.dtype), gx / 4.0)
        elif op[0] == "skip":
            gx = gx + gskips.pop(op[1])
        elif op[0] == "upcat":
            c_skip = cfg.base_channels * 2 ** op[1]  # the skip's channels come first
            gskips[op[1]] = gx[:c_skip]
            gx = _sum2x2(gx[c_skip:])
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

    Kingma & Ba's folded step (ICLR 2015, section 2), theta - alpha_t * m / (sqrt(v) + eps * c),
    alpha_t = lr * c / (1 - beta1**t), c = sqrt(1 - beta2**t). Updates state in place, not theta,
    and returns (new theta, state); the new theta is the one fresh vector its passes run through."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if theta.ndim != 1 or not theta.shape == grad.shape == state.m.shape == state.v.shape:
        raise ValueError("theta, grad and state must be vectors of one shape")
    state.step += 1
    c = np.sqrt(1 - beta2 ** state.step)
    out = np.multiply(1 - beta1, grad)
    state.m *= beta1
    state.m += out
    np.multiply(1 - beta2, np.square(grad, out=out), out=out)
    state.v *= beta2
    state.v += out
    np.sqrt(state.v, out=out)
    out += eps * c
    np.divide(state.m, out, out=out)
    out *= lr * c / (1 - beta1 ** state.step)
    return np.subtract(theta, out, out=out), state
