import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ktsecret.numerics import (
    as_complex_tensor,
    dft2,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
    norm,
    re_dot,
)
from conftest import crandn


def test_constant_frame_has_dc_only_spectrum():
    f = dft2(np.ones((4, 4)), "forward")
    assert f[0, 0] == pytest.approx(4.0)
    off_dc = f.copy()
    off_dc[0, 0] = 0
    assert np.abs(off_dc).max() < 1e-14


def test_inverse_forward_roundtrip(rng):
    x = crandn(rng, (8, 8))
    back = dft2(dft2(x, "forward"), "inverse")
    assert np.abs(back - x).max() / np.abs(x).max() < 1e-12


def test_parseval(rng):
    x = crandn(rng, (16, 16))
    assert np.linalg.norm(dft2(x, "forward")) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_dft2_linearity(rng):
    x, y = crandn(rng, (8, 8)), crandn(rng, (8, 8))
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    lhs = dft2(a * x + b * y, "forward")
    rhs = a * dft2(x, "forward") + b * dft2(y, "forward")
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_dft2_inner_product_preserved(seed):
    rng = np.random.default_rng(seed)
    x, y = crandn(rng, (16, 16)), crandn(rng, (16, 16))
    lhs = np.vdot(dft2(x, "forward"), dft2(y, "forward"))
    rhs = np.vdot(x, y)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


@pytest.mark.parametrize("shape", [(5, 8), (8, 12), (6, 6)])
def test_dft2_rejects_non_pow2(shape):
    with pytest.raises(ValueError):
        dft2(np.zeros(shape), "forward")


@pytest.mark.parametrize("x", [[[1, 2], [3, 4]], [[1.0, 0.5j], [0.0, 2.0]]])
def test_dft2_converts_a_nested_list(x):
    assert_allclose(dft2(x, "forward"), np.fft.fft2(np.asarray(x)) / 2, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("x", [np.zeros(4), np.float64(1.0), [1.0, 2.0]])
def test_dft2_rejects_fewer_than_two_dimensions(x):
    with pytest.raises(ValueError, match="at least 2 dimensions"):
        dft2(x, "forward")


@pytest.mark.parametrize("shape", [(4, 4), (2, 16, 8), (3, 32, 32), (2, 1, 64)])
@pytest.mark.parametrize("direction,reference", [("forward", np.fft.fft2), ("inverse", np.fft.ifft2)])
def test_dft2_writes_into_out_the_bytes_it_returns(rng, shape, direction, reference):
    x = crandn(rng, shape)
    fresh = dft2(x, direction)
    assert fresh.tobytes() == reference(x, axes=(-2, -1), norm="ortho").tobytes()
    out = crandn(rng, shape)  # stale contents must not leak into the result
    assert dft2(x, direction, out=out) is out
    assert out.tobytes() == fresh.tobytes()


def test_dft2_out_is_checked(rng):
    x = crandn(rng, (2, 8, 8))
    for bad, why in [
        (np.empty((2, 8, 4), complex), "shape"),
        (np.empty((2, 8, 8)), "complex128"),
        (x, "share memory"),
        (np.empty((2, 8, 16), complex)[..., ::2], "C-contiguous"),
    ]:
        for direction in ("forward", "inverse"):
            with pytest.raises(ValueError, match=why):
                dft2(x, direction, out=bad)


def test_as_complex_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        as_complex_tensor([1.0, np.inf * 1j])


def test_grad_spatial_constant_is_zero():
    assert np.abs(grad_spatial(np.ones((3, 4, 4)))).max() == 0.0


def test_grad_spatial_ramp_wraps():
    s = np.tile(np.arange(4.0)[:, None], (1, 1, 4)).reshape(1, 4, 4)
    gh = grad_spatial(s)[0]
    assert_allclose(gh[0, :3, :], 1.0)
    assert_allclose(gh[0, 3, :], -3.0)


@pytest.mark.parametrize("seed", range(20))
def test_grad_spatial_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    x = crandn(rng, (2, 4, 4))
    y = crandn(rng, (2, 2, 4, 4))
    # brute-force inner products
    lhs = np.vdot(grad_spatial(x), y)
    rhs = np.vdot(x, grad_spatial_adjoint(y))
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_grad_temporal_constant_frames():
    s = np.tile(crandn(np.random.default_rng(0), (1, 4, 4)), (5, 1, 1))
    assert np.abs(grad_temporal(s)).max() < 1e-14


def test_grad_temporal_alternating():
    a, b = 1.0, 4.0
    s = np.empty((4, 2, 2))
    s[0::2] = a
    s[1::2] = b
    g = grad_temporal(s)
    assert_allclose(g[0::2], b - a)
    assert_allclose(g[1::2], a - b)


@pytest.mark.parametrize("seed", range(20))
def test_grad_temporal_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    x, y = crandn(rng, (4, 4, 4)), crandn(rng, (4, 4, 4))
    lhs = np.vdot(grad_temporal(x), y)
    rhs = np.vdot(x, grad_temporal_adjoint(y))
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_difference_out_is_checked(rng):
    x, g = crandn(rng, (3, 4, 4)), crandn(rng, (2, 3, 4, 4))
    for op, arg, bad in [
        (grad_spatial, x, np.empty((3, 4, 4), complex)),  # wrong shape
        (grad_temporal, x, np.empty((3, 4, 4))),  # real
        (grad_temporal, x, x),  # the input itself
        (grad_temporal_adjoint, x, x[::-1]),  # overlaps the input
        (grad_spatial_adjoint, g, g[1]),
        (grad_temporal, x, np.empty((3, 4, 8), complex)[..., ::2]),  # not contiguous
    ]:
        with pytest.raises(ValueError, match="out"):
            op(arg, out=bad)
    out = np.empty((3, 4, 4), complex)
    with pytest.raises(ValueError, match="share memory"):
        grad_spatial_adjoint(g, out=out, work=out)


def test_spatial_differences_take_frames_of_a_larger_stack(rng):
    """out of grad_spatial and the input of its adjoint may be a run of frames
    of a [k,T,H,W] stack: contiguous per slice, not as a whole."""
    x, stack = crandn(rng, (6, 4, 8)).astype(np.complex64), np.zeros((3, 6, 4, 8), np.complex64)
    grad_spatial(x[2:5], out=stack[1:3, 2:5])
    assert stack[1:3, 2:5].tobytes() == grad_spatial(x[2:5]).tobytes()
    assert not np.any(stack[0]) and not np.any(stack[1:3, :2]) and not np.any(stack[1:3, 5:])
    out, work = np.empty((3, 4, 8), np.complex64), np.empty((3, 4, 8), np.complex64)
    adjoint = grad_spatial_adjoint(stack[1:3, 2:5], out=out, work=work)
    assert adjoint.tobytes() == grad_spatial_adjoint(stack[1:3, 2:5].copy()).tobytes()
    with pytest.raises(ValueError, match="C-contiguous in each slice"):
        grad_spatial(x, out=np.empty((2, 6, 4, 16), np.complex64)[..., ::2])


@pytest.mark.parametrize("t", [2, 3, 5, 16])
def test_temporal_differences_over_runs_of_frames_fill_the_whole_volume_operators(rng, t):
    """Each call writes only its run of frames of out; two runs that split the
    frames give the whole-volume result, bit for bit."""
    x = crandn(rng, (t, 4, 4)).astype(np.complex64)
    for op in (grad_temporal, grad_temporal_adjoint):
        out = np.zeros_like(x)
        op(x, out=out, frames=slice(0, t // 2))
        assert not np.any(out[t // 2:])
        op(x, out=out, frames=slice(t // 2, None))
        assert out.tobytes() == op(x).tobytes()


@pytest.mark.parametrize("frames", [slice(0, 4, 2), slice(2, 2), slice(3, 1)])
def test_temporal_differences_refuse_frames_that_are_not_a_run(frames):
    for op in (grad_temporal, grad_temporal_adjoint):
        with pytest.raises(ValueError, match="frames must pick a run of frames"):
            op(np.zeros((4, 4, 4)), frames=frames)


def test_differences_leave_input_unchanged(rng):
    x, g = crandn(rng, (3, 4, 4)), crandn(rng, (2, 3, 4, 4))
    x0, g0 = x.copy(), g.copy()
    grad_spatial(x), grad_temporal(x), grad_temporal_adjoint(x)
    grad_spatial_adjoint(g, out=np.empty((3, 4, 4), complex), work=np.empty((3, 4, 4), complex))
    assert np.array_equal(x, x0) and np.array_equal(g, g0)


def test_re_dot_and_norm_match_numpy(rng):
    ints = np.arange(1, 13).reshape(3, 4)
    big = crandn(rng, (4, 64, 64))  # beyond the size at which BLAS sums in threads
    cases = [  # real, complex, integer, mixed, non-contiguous
        (rng.standard_normal((3, 5)), rng.standard_normal((3, 5))),
        (crandn(rng, (2, 8, 8)), crandn(rng, (2, 8, 8))),
        (ints, ints[::-1] * 3),
        (ints, crandn(rng, (3, 4))),
        (rng.standard_normal((6, 8))[:, ::2], crandn(rng, (4, 6)).T),
        (big[:, ::2], big[:, 1::2]),
        (big, big),
    ]
    for a, b in cases:
        expected = np.vdot(np.asarray(a, dtype=complex), b).real  # vdot conjugates its first argument
        assert re_dot(a, b) == pytest.approx(expected, rel=1e-12)
        assert norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-12)
        assert isinstance(re_dot(a, b), float) and isinstance(norm(b), float)


def test_re_dot_converts_integers_before_viewing_their_bits():
    x = np.arange(1, 13).reshape(3, 4)
    assert re_dot(x, x) == 650.0
    assert norm([3, 4]) == 5.0
    assert norm(np.zeros((2, 2))) == 0.0


def test_re_dot_rejects_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        re_dot(np.ones((2, 3)), np.ones((3, 2)))


def test_dft2_refuses_an_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction 'backward'"):
        dft2(np.zeros((2, 4, 4)), "backward")


@pytest.mark.parametrize("op", [grad_spatial, grad_temporal, grad_temporal_adjoint])
def test_differences_refuse_a_volume_that_is_not_three_dimensional_or_too_small(op):
    with pytest.raises(ValueError, match=r"expected a T,H,W volume, got shape \(4, 4\)"):
        op(np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"volume too small for differencing: \(2, 1, 4\)"):
        op(np.zeros((2, 1, 4)))


def test_temporal_differences_need_two_frames():
    with pytest.raises(ValueError, match="volume too small"):
        grad_temporal(np.zeros((1, 4, 4)))


@pytest.mark.parametrize("shape", [(3, 2, 4, 4), (2, 4, 4)])
def test_spatial_adjoint_refuses_a_stack_that_is_not_two_volumes(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a 2,T,H,W stack, got shape {shape}")):
        grad_spatial_adjoint(np.zeros(shape))


EPS32 = np.finfo(np.float32).eps


def test_complex64_transforms_stay_complex64_within_float32_rounding(rng):
    x, g = crandn(rng, (3, 16, 8)).astype(np.complex64), crandn(rng, (2, 3, 16, 8)).astype(np.complex64)
    for op, arg in [(lambda v, **kw: dft2(v, "forward", **kw), x), (lambda v, **kw: dft2(v, "inverse", **kw), x),
                    (grad_spatial, x), (grad_temporal, x), (grad_temporal_adjoint, x),
                    (grad_spatial_adjoint, g)]:
        single, double = op(arg), op(arg.astype(np.complex128))  # measured 0.23 to 0.80 epsilons
        assert single.dtype == np.complex64 and double.dtype == np.complex128
        assert np.linalg.norm(single - double) < 2 * EPS32 * np.linalg.norm(double)
        out = np.empty_like(single)
        assert op(arg, out=out) is out and out.tobytes() == single.tobytes()


def test_out_must_have_the_inputs_dtype(rng):
    x = crandn(rng, (3, 8, 8))
    for arg, bad in [(x, np.empty(x.shape, np.complex64)), (x.astype(np.complex64), np.empty(x.shape, complex))]:
        for op in (lambda v, out: dft2(v, "forward", out=out), lambda v, out: dft2(v, "inverse", out=out),
                   grad_temporal, grad_temporal_adjoint):
            with pytest.raises(ValueError, match=f"out must be {arg.dtype}"):
                op(arg, out=bad)
        with pytest.raises(ValueError, match=f"out must be {arg.dtype}"):
            grad_spatial(arg, out=np.empty((2, *x.shape), bad.dtype))
        with pytest.raises(ValueError, match=f"out must be {arg.dtype}"):
            grad_spatial_adjoint(np.stack([arg, arg]), out=bad)


def test_re_dot_of_complex64_matches_its_complex128_widening_without_a_whole_copy(rng):
    for shape in [(5,), (3, 4), (16, 64, 64)]:  # the last beyond einsum's buffer
        a, b = crandn(rng, shape).astype(np.complex64), crandn(rng, shape).astype(np.complex64)
        for x, y in [(a, b), (a.real, b.imag)]:  # complex64, and non-contiguous float32
            wide = re_dot(x.astype(np.complex128 if x.dtype == np.complex64 else np.float64), y.astype(
                np.complex128 if y.dtype == np.complex64 else np.float64))
            assert re_dot(x, y) == pytest.approx(wide, rel=1e-14)
            assert isinstance(re_dot(x, y), float)
    tracemalloc.start()
    try:
        re_dot(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2  # a float64 copy of one operand would take 2 * a.nbytes
