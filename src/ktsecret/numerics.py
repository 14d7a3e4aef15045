"""Complex array core: unitary 2D DFT and periodic finite-difference operators,
plus the cumulative trapezoid integral of the Patlak model.

The DFT and the differences keep a complex64 input in complex64 and convert
anything else to complex128. They leave their inputs unchanged; the DFT is
unitary in both directions so the adjoint of the forward transform is exactly
the inverse transform. The DFT and the difference operators write into an
optional preallocated out=, so a solver that owns its buffers allocates nothing
per call; out must be a C-contiguous array of the result's shape and of the
(converted) input's dtype that does not overlap the input, or a ValueError
names it. grad_spatial's out and grad_spatial_adjoint's input need only be
C-contiguous in each of their two slices, so either may be a run of frames of
a larger stack. The temporal differences write only the run of frames that
their frames= picks, so threads that own runs of frames can fill one out. dft2
is the only caller of numpy's transforms: it runs np.fft.fftn/ifftn over the
last two axes, which honour out= (numpy's ifft2 ignores it) and transform a
complex64 array in single precision. A periodic spatial difference views the
volume as rows [prod(shape[:axis]), prod(shape[axis:])] and subtracts the
whole interior in one contiguous pass at the axis's stride, then overwrites
each row's wrap-around block; a temporal one subtracts the run's interior
frames in one pass and its wrap-around frame in another. Every element is the
same subtraction as x[1:] - x[:-1] along the axis.

re_dot is the package's one reduction of a sum of products: Re<a, b> of two
arrays of one shape, summed by a single einsum loop in float64 over their real
views. Two complex64 (or two float32) arrays are viewed as float32 and
widened by einsum's buffered loop, so no whole array is converted; any other
pair is converted to contiguous float64 (complex128 when either is complex)
first. norm is sqrt(re_dot(x, x)). numpy's vdot, dot and linalg.norm call
BLAS, whose sums change with its thread count once an array has about 10,000
elements; einsum's loop gives the same bits at any thread count, so no loss,
log or metric that the package writes depends on the thread count.

Every setting is checked by one rule. is_int admits Python and numpy integers;
is_real admits Python and numpy reals that are finite as a float64. Neither
admits a bool, and neither raises or warns, whatever it is given.
check_fields applies them to each field of a config dataclass by its
annotation: "int", "float", or "tuple" (as many reals as the default holds).
A config's __post_init__ calls it first and then applies its range rules.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

__all__ = [
    "as_complex_tensor",
    "check_fields",
    "check_pow2",
    "cumulative_trapezoid",
    "dft2",
    "grad_spatial",
    "grad_spatial_adjoint",
    "grad_temporal",
    "grad_temporal_adjoint",
    "is_int",
    "is_real",
    "norm",
    "re_dot",
]


def as_complex_tensor(data) -> np.ndarray:
    """Coerce to a complex128 array, rejecting NaN/Inf."""
    arr = np.asarray(data, dtype=np.complex128)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("non-finite values are not admitted")
    return arr


def is_int(*values) -> bool:
    """Whether every value is a Python or numpy integer; a bool is not one."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def is_real(*values) -> bool:
    """Whether every value is a Python or numpy real, not a bool, that is finite as a float64."""
    try:
        return all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in values)
    except OverflowError:  # an integer beyond the float64 range
        return False


def check_fields(cfg) -> None:
    """Raises ValueError naming the first field of the dataclass cfg not of its annotated type."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type == "tuple":  # as many reals as the default holds
            n = len(f.default)
            ok, kind = isinstance(v, tuple) and len(v) == n and is_real(*v), f"a tuple of {n} finite reals"
        else:
            ok, kind = (is_int(v), "an integer") if f.type == "int" else (is_real(v), "a finite real number")
        if not ok:
            raise ValueError(f"{f.name} must be {kind}, got {_shown(v)}")


def _shown(value) -> str:
    """repr(value), or its type name where repr raises (an int past str's digit limit)."""
    try:
        return repr(value)
    except Exception:
        return f"a value of type {type(value).__name__}"


def check_pow2(*dims: int) -> None:
    for n in dims:
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"dimension {n} is not a power of two")


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over the sample points x, from 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def re_dot(a, b) -> float:
    """Re<a, b> of two array-likes of one shape, by einsum's float64 loop over
    their real views; the same bits at any BLAS thread count."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} and {b.shape}")
    if a.dtype == b.dtype and a.dtype in (np.complex64, np.float32):
        # einsum widens the float32 views to float64 in its buffers, block by block
        a, b = (np.ascontiguousarray(v).view(np.float32).ravel() for v in (a, b))
        return float(np.einsum("i,i->", a, b, dtype=np.float64))
    # convert before viewing: the view reinterprets bits, so an int64 must become a float64 first
    dtype = np.complex128 if np.iscomplexobj(a) or np.iscomplexobj(b) else np.float64
    a, b = (np.ascontiguousarray(v, dtype=dtype).view(np.float64).ravel() for v in (a, b))
    return float(np.einsum("i,i->", a, b))


def norm(x) -> float:
    """2-norm of x over all its elements, sqrt(re_dot(x, x))."""
    return math.sqrt(re_dot(x, x))


def dft2(x: np.ndarray, direction: str = "forward", out: np.ndarray | None = None) -> np.ndarray:
    """Unitary 2D DFT over the last two axes, into out if given; returns the result.

    Both directions scale by 1/sqrt(h*w), so forward and inverse are
    adjoint/inverse of each other exactly. x is converted to complex128 first,
    unless it is complex64; it must have at least 2 dimensions, the last two
    powers of two.
    """
    x = _complex(x, np.asarray)
    if x.ndim < 2:
        raise ValueError(f"dft2 needs at least 2 dimensions, got shape {x.shape}")
    check_pow2(*x.shape[-2:])
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    transform = np.fft.fftn if direction == "forward" else np.fft.ifftn
    return transform(x, axes=(-2, -1), norm="ortho", out=_output(out, x.shape, x))


def _complex(x, convert=np.ascontiguousarray) -> np.ndarray:
    """x converted by convert to complex64 if it is complex64, else to complex128."""
    x = np.asarray(x)
    return convert(x, dtype=np.complex64 if x.dtype == np.complex64 else np.complex128)


def _output(out, shape: tuple, x: np.ndarray, slices: bool = False) -> np.ndarray:
    """A fresh array of the given shape and x's dtype, or out once it is
    checked; with slices, out need only be C-contiguous in each slice along
    its first axis."""
    if out is None:
        return np.empty(shape, dtype=x.dtype)
    if out.shape != shape or out.dtype != x.dtype:
        raise ValueError(f"out must be {x.dtype} of shape {shape}, got {out.dtype} {out.shape}")
    if not all(o.flags.c_contiguous for o in (out if slices else [out])):
        raise ValueError("out must be C-contiguous" + (" in each slice" if slices else ""))
    if np.may_share_memory(out, x):
        raise ValueError("out must not share memory with the input")
    return out


def _rows(x: np.ndarray, out: np.ndarray, axis: int):
    """x and out as [prod(shape[:axis]), prod(shape[axis:])] rows, and the
    stride of one step along axis within a row."""
    rows = math.prod(x.shape[:axis])
    return x.reshape(rows, -1), out.reshape(rows, -1), math.prod(x.shape[axis + 1:])


def _fwd_diff(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    # forward difference with periodic wrap: out[i] = x[i+1] - x[i]; the flat
    # pass is wrong only in each row's last block, which the wrap overwrites
    x, o, step = _rows(x, out, axis)
    np.subtract(x.ravel()[step:], x.ravel()[:-step], out=o.ravel()[:-step])
    np.subtract(x[:, :step], x[:, -step:], out=o[:, -step:])
    return out


def _fwd_diff_adjoint(y: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    # adjoint of the periodic forward difference is the negative
    # backward difference: out[i] = y[i-1] - y[i]; the wrap overwrites each
    # row's first block
    y, o, step = _rows(y, out, axis)
    np.subtract(y.ravel()[:-step], y.ravel()[step:], out=o.ravel()[step:])
    np.subtract(y[:, -step:], y[:, :step], out=o[:, :step])
    return out


def _check_3d(s: np.ndarray, min_t: int = 1) -> np.ndarray:
    s = _complex(s)
    if s.ndim != 3:
        raise ValueError(f"expected a T,H,W volume, got shape {s.shape}")
    if s.shape[0] < min_t or s.shape[1] < 2 or s.shape[2] < 2:
        raise ValueError(f"volume too small for differencing: {s.shape}")
    return s


def grad_spatial(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences along H and W (periodic), as a [2,T,H,W] stack."""
    s = _check_3d(s)
    out = _output(out, (2, *s.shape), s, slices=True)
    _fwd_diff(s, 1, out[0])
    _fwd_diff(s, 2, out[1])
    return out


def grad_spatial_adjoint(g: np.ndarray, out: np.ndarray | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of grad_spatial; input shape [2,T,H,W].

    The result is the H term plus the W term; out receives the H term and
    then the sum, work ([T,H,W], g's dtype) the W term.
    """
    g = _complex(g, np.asarray)  # each slice is read alone: a contiguous one is not copied
    if g.ndim != 4 or g.shape[0] != 2:
        raise ValueError(f"expected a 2,T,H,W stack, got shape {g.shape}")
    out, work = _output(out, g.shape[1:], g), _output(work, g.shape[1:], g)
    if np.may_share_memory(out, work):
        raise ValueError("out and work must not share memory")
    _fwd_diff_adjoint(g[0], 1, out)
    return np.add(out, _fwd_diff_adjoint(g[1], 2, work), out=out)


def _frame_range(frames: slice, t: int) -> tuple:
    """The first and past-the-last frame of the run of t frames that frames picks."""
    lo, hi, step = frames.indices(t)
    if step != 1 or lo >= hi:
        raise ValueError(f"frames must pick a run of frames, got {frames}")
    return lo, hi


def grad_temporal(s: np.ndarray, out: np.ndarray | None = None, frames: slice = slice(None)) -> np.ndarray:
    """Forward difference along the frame axis (periodic), out[t] = s[t + 1] - s[t].
    Only the run of frames of out that frames picks is written; it reads the
    same frames of s and the one after them."""
    s = _check_3d(s, min_t=2)
    out = _output(out, s.shape, s)
    lo, hi = _frame_range(frames, len(s))
    np.subtract(s[lo + 1:hi], s[lo:hi - 1], out=out[lo:hi - 1])
    np.subtract(s[hi % len(s)], s[hi - 1], out=out[hi - 1])
    return out


def grad_temporal_adjoint(g: np.ndarray, out: np.ndarray | None = None, frames: slice = slice(None)) -> np.ndarray:
    """Adjoint of grad_temporal, out[t] = g[t - 1] - g[t]. Only the run of
    frames of out that frames picks is written; it reads the same frames of g
    and the one before them."""
    g = _check_3d(g, min_t=2)
    out = _output(out, g.shape, g)
    lo, hi = _frame_range(frames, len(g))
    np.subtract(g[lo:hi - 1], g[lo + 1:hi], out=out[lo + 1:hi])
    np.subtract(g[lo - 1], g[lo], out=out[lo])
    return out
