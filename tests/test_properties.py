"""Property-based checks of the linear operators the solvers rely on, and
of the tensor container.

Shapes are drawn as powers of two and masks as random 0/1 patterns that
sample DC in every frame. The CS line search scores a trial point s + a d
from img(s) + a img(d), which holds only because encode, grad_spatial and
grad_temporal are linear. Containers must round-trip every rank from 0 to 4
and turn any damage into ContainerError. derandomize=True keeps every run on
the same examples. A radial mask either meets its +-15% acceleration contract
or is refused as unachievable. Every conv product is one im2col + GEMM, so
the input and weight gradients must satisfy their adjoint identities against
the forward conv, and im2col must equal the np.pad + sliding_window_view
patch matrix it replaced, bit for bit. The periodic difference operators and
their adjoints subtract slices into an optional out=; with or without it they
must equal the np.roll formulas they replaced, bit for bit. The package's
cumulative trapezoid integral must equal scipy's, bit for bit; scipy is the
tests' reference only.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

from ktsecret.container import ContainerError, load_tensor, save_tensor
from ktsecret.encoding import KtData, SamplingMask, adjoint, encode, make_radial_mask, normal_op
from ktsecret.net import _conv_backward, _conv_forward, _im2col
from ktsecret.numerics import (
    cumulative_trapezoid,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
)
from conftest import crandn

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
COEFFICIENTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw):
    """(mask, rng) for a T,H,W power-of-two shape with T >= 2 and H, W >= 2."""
    t, h, w = (2 ** draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 5), (1, 5)))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = (rng.random((t, h, w)) < density).astype(np.uint8)
    bits[:, 0, 0] = 1
    return SamplingMask(bits=bits, accel_nominal=bits.size / int(bits.sum())), rng


def _inner_bound(*arrays):
    return 1e-10 * np.prod([max(np.linalg.norm(a), 1.0) for a in arrays])


@PROPERTY
@given(problems())
def test_encode_adjoint_identity(problem):
    mask, rng = problem
    x = crandn(rng, mask.shape)
    y = crandn(rng, mask.shape) * mask.bits
    lhs = np.vdot(encode(x, mask).samples, y)
    rhs = np.vdot(x, adjoint(KtData(samples=y, mask=mask)))
    assert abs(lhs - rhs) <= _inner_bound(x, y)


@PROPERTY
@given(problems(), st.floats(0.0, 10.0))
def test_normal_op_is_hermitian_psd(problem, lam):
    mask, rng = problem
    x = crandn(rng, mask.shape)
    quad = np.vdot(x, normal_op(x, mask, lam))
    assert abs(quad.imag) <= _inner_bound(x, x)
    assert quad.real >= lam * np.vdot(x, x).real - _inner_bound(x, x)


@PROPERTY
@given(problems(), COEFFICIENTS, COEFFICIENTS)
def test_objective_images_are_linear(problem, a, b):
    mask, rng = problem
    x, z = crandn(rng, mask.shape), crandn(rng, mask.shape)
    for op in (lambda s: encode(s, mask).samples, grad_spatial, grad_temporal):
        combined = op(a * x + b * z)
        scale = max(abs(a), abs(b), 1.0) * max(np.linalg.norm(x), np.linalg.norm(z))
        assert np.linalg.norm(combined - (a * op(x) + b * op(z))) <= 1e-12 * scale


@st.composite
def tensors(draw):
    """A float64 or complex128 array of rank 0-4 with sides 0..3."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.standard_normal(shape)
    return arr + 1j * rng.standard_normal(shape) if draw(st.booleans()) else arr


@pytest.fixture(scope="module")
def container_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "t.ktsr"


@PROPERTY
@given(tensors())
def test_container_round_trip(container_path, arr):
    save_tensor(container_path, arr)
    back = load_tensor(container_path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert np.array_equal(back, arr)


@PROPERTY
@given(tensors(), st.data())
def test_damaged_container_loads_original_or_raises_container_error(container_path, arr, data):
    save_tensor(container_path, arr)
    blob = bytearray(container_path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] = data.draw(st.integers(0, 255), label="byte")
    container_path.write_bytes(bytes(blob))
    try:
        back = load_tensor(container_path)
    except ContainerError:
        return
    assert back.dtype == arr.dtype and back.shape == arr.shape and np.array_equal(back, arr)


@settings(PROPERTY, max_examples=200)
@given(st.integers(2, 6), st.integers(2, 6), st.floats(1.0, 40.0), st.integers(0, 2 ** 32 - 1))
def test_radial_mask_meets_acceleration_or_is_unachievable(log_h, log_w, accel, seed):
    try:
        mask = make_radial_mask(2, 2 ** log_h, 2 ** log_w, accel, seed)
    except ValueError as exc:
        assert "acceleration unachievable" in str(exc)
        return
    assert 0.85 * accel <= mask.achieved_accel <= 1.15 * accel


@st.composite
def conv_cases(draw):
    """(x, w, gy, rng): a 'same' conv with k in {1, 3}, 1..5 channels each way
    and sides 1..9, odd and size 1 included."""
    k = draw(st.sampled_from([1, 3]))
    cin, cout, h, w = (draw(st.integers(1, hi)) for hi in (5, 5, 9, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, gy = rng.standard_normal((cin, h, w)), rng.standard_normal((cout, h, w))
    return x, rng.standard_normal((cout, cin, k, k)), gy, rng


@PROPERTY
@given(conv_cases())
def test_conv_input_gradient_is_adjoint(case):
    x, w, gy, _ = case
    y = _conv_forward(x, w, np.zeros(w.shape[0]))
    _, _, gx = _conv_backward(gy, x, w)
    assert gx.shape == x.shape
    assert abs(np.vdot(y, gy) - np.vdot(x, gx)) <= _inner_bound(y, gy)


@PROPERTY
@given(conv_cases())
def test_conv_weight_gradient_is_adjoint(case):
    x, w, gy, rng = case
    dw, db = rng.standard_normal(w.shape), rng.standard_normal(w.shape[0])
    gw, gb, _ = _conv_backward(gy, x, w)
    y_d = _conv_forward(x, dw, db)  # the conv is linear in (w, b)
    assert abs(np.vdot(gw, dw) + np.vdot(gb, db) - np.vdot(y_d, gy)) <= _inner_bound(y_d, gy)


@PROPERTY
@given(conv_cases())
def test_im2col_matches_padded_sliding_window(case):
    x, w, _, _ = case
    c, h, wd = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    reference = sliding_window_view(xp, (h, wd), axis=(1, 2)).reshape(c * k * k, h * wd)
    assert np.array_equal(_im2col(x, k), reference)


@PROPERTY
@given(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
def test_differences_match_roll_reference(t, h, w, seed):
    rng = np.random.default_rng(seed)
    x, g = crandn(rng, (t, h, w)), crandn(rng, (2, t, h, w))
    cases = [
        (grad_spatial, (x,), np.stack([np.roll(x, -1, axis=1) - x, np.roll(x, -1, axis=2) - x])),
        (grad_spatial_adjoint, (g,), (np.roll(g[0], 1, axis=1) - g[0]) + (np.roll(g[1], 1, axis=2) - g[1])),
        (grad_temporal, (x,), np.roll(x, -1, axis=0) - x),
        (grad_temporal_adjoint, (x,), np.roll(x, 1, axis=0) - x),
    ]
    for op, args, reference in cases:
        assert np.array_equal(op(*args), reference)
        out = crandn(rng, reference.shape)  # stale contents must not leak into the result
        assert op(*args, out=out) is out
        assert np.array_equal(out, reference)
    work = crandn(rng, (t, h, w))
    assert np.array_equal(grad_spatial_adjoint(g, out=crandn(rng, (t, h, w)), work=work), cases[1][2])


@st.composite
def sampled_curves(draw):
    """(y, x): 1 to 64 samples of a curve at strictly increasing points."""
    n = draw(st.integers(1, 64))
    y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-100.0, 100.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    return y, x


@PROPERTY
@given(sampled_curves())
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(curve):
    y, x = curve
    assert np.all(np.diff(x) > 0)
    ours, reference = cumulative_trapezoid(y, x), scipy_cumulative_trapezoid(y, x, initial=0.0)
    assert ours.dtype == reference.dtype and ours.tobytes() == reference.tobytes()
