"""Property-based checks of the linear operators the solvers rely on, and
of the tensor container.

Shapes are drawn as powers of two and masks as random 0/1 patterns that
sample DC in every frame. The CS line search scores a trial point s + a d
from img(s) + a img(d), which holds only because encode, grad_spatial and
grad_temporal are linear. Containers must round-trip every rank from 0 to 4
and turn any damage into ContainerError. derandomize=True keeps every run on
the same examples. A radial mask either meets its +-15% acceleration contract
or is refused as unachievable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsecret.container import ContainerError, load_tensor, save_tensor
from ktsecret.encoding import KtData, SamplingMask, adjoint, encode, make_radial_mask, normal_op
from ktsecret.numerics import grad_spatial, grad_temporal
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
def tensors(draw, min_side=0):
    """A float64 or complex128 array of rank 0-4 with sides min_side..3."""
    shape = tuple(draw(st.lists(st.integers(min_side, 3), max_size=4)))
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
@given(tensors(min_side=1), st.data())  # empty tensors: see test_container's xfail on their dims
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
