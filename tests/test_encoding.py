from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ktsecret.encoding import KtData, SamplingMask, adjoint, encode, make_radial_mask, normal_op
from ktsecret.numerics import dft2
from conftest import crandn


def test_r1_mask_is_full():
    mask = make_radial_mask(4, 32, 32, 1.0, seed=3)
    assert mask.bits.min() == 1
    assert mask.achieved_accel == pytest.approx(1.0)


def test_mask_determinism():
    a = make_radial_mask(2, 32, 32, 4.0, seed=11)
    b = make_radial_mask(2, 32, 32, 4.0, seed=11)
    assert np.array_equal(a.bits, b.bits)


def test_mask_r10_achieved_acceleration():
    mask = make_radial_mask(8, 64, 64, 10.0, seed=0)
    assert 8.5 <= mask.achieved_accel <= 11.5


@pytest.mark.parametrize("accel", [3.0, 6.0, 10.0])
def test_mask_achieved_within_tolerance(accel):
    mask = make_radial_mask(8, 64, 64, accel, seed=1)
    assert 0.85 * accel <= mask.achieved_accel <= 1.15 * accel
    assert np.all(mask.bits[:, 0, 0] == 1)


def test_mask_unachievable_acceleration():
    with pytest.raises(ValueError, match="unachievable"):
        make_radial_mask(2, 32, 32, 200.0, seed=0)
    with pytest.raises(ValueError, match="unachievable"):  # 1 sample of 16 per frame is 16x
        make_radial_mask(2, 4, 4, 11.0, seed=0)


def test_mask_frames_differ_when_undersampled():
    mask = make_radial_mask(4, 64, 64, 8.0, seed=2)
    for f in range(3):
        assert not np.array_equal(mask.bits[f], mask.bits[f + 1])


@pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4)])
def test_mask_rejects_empty_shape(shape):
    with pytest.raises(ValueError, match="at least one frame"):
        SamplingMask(bits=np.zeros(shape), accel_nominal=2.0)


@pytest.mark.parametrize("t", [0, -1])
def test_radial_mask_rejects_fewer_than_one_frame(t):
    with pytest.raises(ValueError, match="at least one frame"):
        make_radial_mask(t, 8, 8, 2.0, 0)


def test_mask_rejects_missing_dc():
    bits = np.ones((2, 8, 8), dtype=np.uint8)
    bits[0, 0, 0] = 0
    with pytest.raises(ValueError, match="DC"):
        SamplingMask(bits=bits, accel_nominal=1.0)


def test_mask_rejects_fractional_bits_before_cast():
    bits = np.ones((2, 8, 8))
    bits[1, 3, 3] = 0.5  # a uint8 cast would silently make this 0
    with pytest.raises(ValueError, match="0/1"):
        SamplingMask(bits=bits, accel_nominal=1.0)


def test_encode_full_mask_is_dft(rng):
    mask = make_radial_mask(3, 16, 16, 1.0, seed=0)
    s = crandn(rng, (3, 16, 16))
    assert_allclose(encode(s, mask).samples, dft2(s, "forward"), rtol=1e-12, atol=1e-12)


def test_encode_zero_image(rng):
    mask = make_radial_mask(2, 16, 16, 2.0, seed=0)
    assert np.abs(encode(np.zeros((2, 16, 16)), mask).samples).max() == 0.0


def test_encode_matches_masked_dft_oracle(rng):
    mask = make_radial_mask(2, 16, 16, 3.0, seed=5)
    s = crandn(rng, (2, 16, 16))
    d = encode(s, mask).samples
    full = dft2(s, "forward")
    on = mask.bits == 1
    assert_allclose(d[on], full[on], rtol=1e-12)
    assert np.abs(d[~on]).max() == 0.0


def test_adjoint_full_mask_roundtrip(rng):
    mask = make_radial_mask(2, 16, 16, 1.0, seed=0)
    s = crandn(rng, (2, 16, 16))
    assert_allclose(adjoint(encode(s, mask)), s, rtol=1e-12, atol=1e-12)


def test_adjoint_zero_data():
    mask = make_radial_mask(2, 16, 16, 2.0, seed=0)
    d = KtData(samples=np.zeros((2, 16, 16), dtype=complex), mask=mask)
    assert np.abs(adjoint(d)).max() == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_encode_adjoint_pair(seed):
    rng = np.random.default_rng(seed)
    mask = make_radial_mask(2, 16, 16, 2.0 + (seed % 5), seed=seed)
    x = crandn(rng, (2, 16, 16))
    y = crandn(rng, (2, 16, 16)) * mask.bits
    lhs = np.vdot(encode(x, mask).samples, y)
    rhs = np.vdot(x, adjoint(KtData(samples=y, mask=mask)))
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_mask_idempotent(rng):
    mask = make_radial_mask(2, 16, 16, 3.0, seed=1)
    d = encode(crandn(rng, (2, 16, 16)), mask)
    assert_allclose(d.samples * mask.bits, d.samples, rtol=0, atol=0)


def test_normal_op_full_mask_identity(rng):
    mask = make_radial_mask(2, 16, 16, 1.0, seed=0)
    s = crandn(rng, (2, 16, 16))
    out = normal_op(s, mask, 0.0)
    assert np.abs(out - s).max() / np.abs(s).max() < 1e-12


def test_normal_op_zero_mask_is_scaled_identity(rng):
    # the lam*I branch in isolation; a genuine SamplingMask cannot be empty
    stub = SimpleNamespace(bits=np.zeros((2, 16, 16), dtype=np.uint8))
    s = crandn(rng, (2, 16, 16))
    assert_allclose(normal_op(s, stub, 1.0), s, rtol=1e-12, atol=1e-14)


def test_normal_op_rejects_negative_lam(rng):
    mask = make_radial_mask(2, 16, 16, 2.0, seed=0)
    with pytest.raises(ValueError):
        normal_op(crandn(rng, (2, 16, 16)), mask, -0.1)


@pytest.mark.parametrize("seed", range(5))
def test_normal_op_self_adjoint_psd(seed):
    rng = np.random.default_rng(seed)
    mask = make_radial_mask(2, 16, 16, 3.0, seed=seed)
    x, y = crandn(rng, (2, 16, 16)), crandn(rng, (2, 16, 16))
    lhs = np.vdot(normal_op(x, mask, 0.3), y)
    rhs = np.vdot(x, normal_op(y, mask, 0.3))
    assert abs(lhs - rhs) / abs(lhs) < 1e-12
    assert np.vdot(x, normal_op(x, mask, 0.0)).real >= -1e-12
