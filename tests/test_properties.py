"""Property-based checks of the linear operators the solvers rely on.

Shapes are drawn as powers of two and masks as random 0/1 patterns that
sample DC in every frame. The CS line search scores a trial point s + a d
from img(s) + a img(d), which holds only because encode, grad_spatial and
grad_temporal are linear. derandomize=True keeps every run on the same
examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsecret.encoding import KtData, SamplingMask, adjoint, encode, normal_op
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
