import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ktsecret import net
from ktsecret.net import (
    AdamState,
    NetConfig,
    _conv_backward,
    _conv_forward,
    _pad_flat,
    _sum2x2,
    _upsample_into,
    adam_step,
    init_params,
    net_backward,
    net_forward,
)
from conftest import crandn

MICRO = NetConfig(frames=2, depth_levels=2, base_channels=2)


def _micro_setup(seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(MICRO, seed=seed)
    s = crandn(rng, (2, 8, 8))
    target = crandn(rng, (2, 8, 8))
    return rng, params, s, target


def _loss(s, params, target):
    out, _ = net_forward(s, params, MICRO)
    d = out - target
    return np.vdot(d, d).real


def test_zero_params_reduce_to_residual_path(rng):
    params = init_params(MICRO, seed=1)
    zero = params.from_flat(np.zeros(params.size))
    s = crandn(rng, (2, 8, 8))
    out, _ = net_forward(s, zero, MICRO)
    assert_allclose(out, np.broadcast_to(s.mean(axis=0), s.shape), rtol=1e-14)


def test_forward_deterministic(rng):
    params = init_params(NetConfig(frames=4), seed=9)
    s = crandn(rng, (4, 16, 16))
    a, _ = net_forward(s, params, NetConfig(frames=4))
    b, _ = net_forward(s, params, NetConfig(frames=4))
    assert np.array_equal(a, b)


def test_forward_shape_contract(rng):
    cfg = NetConfig(frames=8)
    s = crandn(rng, (8, 32, 32))
    out, _ = net_forward(s, init_params(cfg, 0), cfg)
    assert out.shape == (8, 32, 32)


def test_forward_rejects_bad_dims(rng):
    cfg = NetConfig(frames=2)
    with pytest.raises(ValueError):
        net_forward(crandn(rng, (2, 6, 6)), init_params(cfg, 0), cfg)


def test_zero_grad_out_gives_zero_grads():
    _, params, s, _ = _micro_setup()
    _, cache = net_forward(s, params, MICRO)
    g_theta, g_in = net_backward(np.zeros_like(s), cache, params)
    assert np.abs(g_theta).max() == 0.0
    assert np.abs(g_in).max() == 0.0


def _nan_filled_empty(monkeypatch):
    """Makes np.empty return float and complex arrays filled with NaN, so a buffer
    entry that is read before it is written shows in the result."""
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if np.issubdtype(out.dtype, np.inexact):
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)


@pytest.mark.parametrize("cfg,n", [(NetConfig(frames=8), 32), (MICRO, 8)], ids=["default", "micro"])
def test_net_backward_writes_every_entry_of_its_fresh_buffers(monkeypatch, cfg, n):
    rng = np.random.default_rng(5)
    params = init_params(cfg, seed=5)
    s, g = crandn(rng, (cfg.frames, n, n)), crandn(rng, (cfg.frames, n, n))

    def grads():
        return net_backward(g, net_forward(s, params, cfg)[1], params)

    expected = grads()
    _nan_filled_empty(monkeypatch)
    assert [a.tobytes() for a in grads()] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("cfg,n", [(NetConfig(frames=8), 32), (MICRO, 8)], ids=["default", "micro"])
def test_float32_path_stays_within_float32_rounding_of_the_float64_path(monkeypatch, cfg, n):
    rng = np.random.default_rng(8)
    params = init_params(cfg, seed=8)
    s, g = crandn(rng, (cfg.frames, n, n)), crandn(rng, (cfg.frames, n, n))

    def run():  # (output, parameter gradient, input gradient)
        out, cache = net_forward(s, params, cfg)
        return (out,) + net_backward(g, cache, params)

    f32 = run()
    monkeypatch.setattr(net, "ACT_DTYPE", np.float64)
    f64 = run()
    eps32 = np.finfo(np.float32).eps
    for a, b in zip(f32, f64):
        assert 0 < np.linalg.norm(a - b) < 16 * eps32 * np.linalg.norm(b)  # 9.3e-8 to 3.2e-7 measured


@pytest.mark.parametrize("cfg,n", [(NetConfig(frames=8), 32), (MICRO, 8)], ids=["default", "micro"])
def test_dtype_contract_float32_activations_float64_parameters_and_gradients(monkeypatch, cfg, n):
    rng = np.random.default_rng(9)
    params = init_params(cfg, seed=9)
    s, g = crandn(rng, (cfg.frames, n, n)), crandn(rng, (cfg.frames, n, n))
    empty, fresh = np.empty, []

    def recording_empty(*args, **kwargs):
        fresh.append(empty(*args, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(np, "empty", recording_empty)
    out, cache = net_forward(s, params, cfg)
    assert {x.dtype for _, x in cache["tape"] if x is not None} == {np.dtype(np.float32)}
    g_theta, g_in = net_backward(g, cache, params)
    assert params.flat.dtype == g_theta.dtype == np.float64
    assert out.dtype == g_in.dtype == np.complex128
    # upcat's buffer, the weight gradients and the pool's reverse: every fresh buffer but the gradient vector
    buffers = [b for b in fresh if b is not g_theta]
    assert len(buffers) == len(fresh) - 1 > 0 and {b.dtype for b in buffers} == {np.dtype(np.float32)}
    _, state = adam_step(params.flat, g_theta, AdamState.zeros(params.size), lr=1e-3)
    assert state.m.dtype == state.v.dtype == np.float64


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 4, 4), (3, 2, 8), (2, 8, 2), (1, 5, 3)])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_pad_flat_matches_the_np_pad_reference(monkeypatch, shape, p):
    x = np.random.default_rng(0).standard_normal(shape)
    reference = np.pad(np.pad(x, ((0, 0), (p, p), (p, p))).reshape(shape[0], -1), ((0, 0), (0, 2 * p)))
    _nan_filled_empty(monkeypatch)
    assert np.array_equal(_pad_flat(x, p), reference)


@pytest.mark.usefixtures("float64_net")
def test_directional_derivative():
    rng = np.random.default_rng(3)
    cfg = NetConfig(frames=4, depth_levels=2, base_channels=4)
    params = init_params(cfg, seed=3)
    s = crandn(rng, (4, 16, 16))
    target = crandn(rng, (4, 16, 16))
    out, cache = net_forward(s, params, cfg)
    g_theta, _ = net_backward(2.0 * (out - target), cache, params)
    theta = params.to_flat()
    v = rng.standard_normal(theta.size)
    v /= np.linalg.norm(v)
    h = 1e-4

    def loss_at(th):
        o, _ = net_forward(s, params.from_flat(th), cfg)
        d = o - target
        return np.vdot(d, d).real

    fd = (loss_at(theta + h * v) - loss_at(theta - h * v)) / (2 * h)
    assert abs(fd - g_theta @ v) / abs(fd) < 1e-5


def test_residual_path_input_gradient(rng):
    # zero network: only the average-image path carries input gradient
    params = init_params(MICRO, seed=2)
    zero = params.from_flat(np.zeros(params.size))
    s = crandn(rng, (2, 8, 8))
    _, cache = net_forward(s, zero, MICRO)
    g_out = crandn(rng, (2, 8, 8))
    _, g_in = net_backward(g_out, cache, zero)
    expected = np.broadcast_to(g_out.sum(axis=0) / 2, s.shape)
    assert_allclose(g_in, expected, rtol=1e-13)


@pytest.mark.usefixtures("float64_net")
def test_full_jacobian_micro_net():
    rng, params, s, target = _micro_setup(seed=5)
    out, cache = net_forward(s, params, MICRO)
    g_theta, _ = net_backward(2.0 * (out - target), cache, params)
    theta = params.to_flat()
    h = 1e-5
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (_loss(s, params.from_flat(theta + e), target)
              - _loss(s, params.from_flat(theta - e), target)) / (2 * h)
        assert abs(fd - g_theta[i]) / max(abs(fd), 1e-6) < 1e-5, f"param {i}"


@pytest.mark.parametrize("k", [1, 3])
def test_conv_forward_matches_direct_tap_sum(rng, k):
    # pins the [out, in, dy, dx] weight orientation that saved weight files rely on
    x = rng.standard_normal((3, 4, 6))
    w = rng.standard_normal((5, 3, k, k))
    b = rng.standard_normal(5)
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    expected = b[:, None, None] + sum(np.tensordot(w[:, :, dy, dx], xp[:, dy:dy + 4, dx:dx + 6], axes=1)
                                      for dy in range(k) for dx in range(k))
    assert_allclose(_conv_forward(x, w, b), expected, rtol=0, atol=1e-12)


def test_conv_peak_memory_stays_below_one_patch_matrix(rng):
    # the largest 3x3 layer of the default net at 32x32: an im2col patch matrix would be [9*48, 32*32]
    x, gy = rng.standard_normal((48, 32, 32)), rng.standard_normal((16, 32, 32))
    w, b = rng.standard_normal((16, 48, 3, 3)), rng.standard_normal(16)
    patch_matrix_bytes = 9 * 48 * 32 * 32 * 8
    for conv in (lambda: _conv_forward(x, w, b), lambda: _conv_backward(gy, x, w)):
        tracemalloc.start()
        try:
            conv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_matrix_bytes


@pytest.mark.usefixtures("float64_net")
def test_input_gradient_finite_differences():
    # non-zero weights: the conv path carries input gradient too, as MoDL with K > 1 needs
    rng = np.random.default_rng(6)
    params = init_params(MICRO, seed=6)
    s = crandn(rng, (2, 8, 12))
    target = crandn(rng, (2, 8, 12))
    out, cache = net_forward(s, params, MICRO)
    _, g_in = net_backward(2.0 * (out - target), cache, params)
    h = 1e-5
    for idx in np.ndindex(s.shape):
        for comp, pick in ((1.0, np.real), (1j, np.imag)):
            e = np.zeros_like(s)
            e[idx] = comp * h
            fd = (_loss(s + e, params, target) - _loss(s - e, params, target)) / (2 * h)
            assert abs(fd - pick(g_in[idx])) / max(abs(fd), 1e-6) < 1e-5, (idx, comp)


@pytest.mark.usefixtures("float64_net")
def test_piecewise_linearity_in_input(rng):
    params = init_params(MICRO, seed=7)
    s = crandn(rng, (2, 8, 8))
    delta = 1e-6 * crandn(rng, (2, 8, 8))
    f0, _ = net_forward(s, params, MICRO)
    f1, _ = net_forward(s + delta, params, MICRO)
    f2, _ = net_forward(s + 2 * delta, params, MICRO)
    # sign pattern unchanged for tiny perturbations -> exactly linear response
    assert_allclose(f2 - f1, f1 - f0, atol=1e-12)


def test_parameter_count_pinned_default_config():
    assert init_params(NetConfig(frames=8), 0).size == 120400


def test_config_refuses_more_pooling_levels_than_an_indexable_frame_allows():
    # H and W are multiples of 2**depth_levels, so a 32-level frame holds at least 4**32 pixels
    assert NetConfig(frames=8, depth_levels=31).depth_levels == 31
    with pytest.raises(ValueError, match="depth_levels"):
        NetConfig(frames=8, depth_levels=32)


def test_from_flat_layers_are_views_of_the_vector():
    params = init_params(MICRO, seed=4)
    v = np.arange(params.size, dtype=np.float64)
    aliased = params.from_flat(v)
    for layer in aliased.layers:
        assert np.shares_memory(layer.weight, v) and np.shares_memory(layer.bias, v)
    v[-1] = -1.0  # the final 1x1 layer's last bias
    assert aliased.layers[-1].bias[-1] == -1.0
    for bad in (v[:-1], v.reshape(1, -1)):
        with pytest.raises(ValueError, match="parameter count"):
            params.from_flat(bad)


@pytest.mark.parametrize("cfg", [NetConfig(frames=8), MICRO], ids=["default", "micro"])
def test_to_flat_is_each_layer_weight_then_bias_in_plan_order(cfg):
    # pins the weight-file layout
    params = init_params(cfg, seed=5)
    expected = np.concatenate([part for l in params.layers for part in (l.weight.ravel(), l.bias)])
    assert np.array_equal(params.to_flat(), expected)
    if cfg == MICRO:
        assert [l.weight.shape for l in params.layers] == [
            (2, 4, 3, 3), (2, 2, 3, 3), (4, 2, 3, 3), (4, 4, 3, 3), (8, 4, 3, 3), (8, 8, 3, 3),
            (4, 12, 3, 3), (4, 4, 3, 3), (2, 6, 3, 3), (2, 2, 3, 3), (4, 2, 1, 1)]


def test_net_backward_peak_memory_stays_below_three_parameter_vectors(rng):
    # the gradient is written into one vector through the layer views, not concatenated
    cfg = NetConfig(frames=8)
    params = init_params(cfg, seed=0)
    s = crandn(rng, (8, 32, 32))
    out, cache = net_forward(s, params, cfg)
    tracemalloc.start()
    try:
        net_backward(out, cache, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * params.to_flat().nbytes


def test_net_forward_holds_each_activation_once(rng):
    # the ReLU rectifies its conv output in place, and only conv inputs and ReLU outputs are
    # taped: 2,743 KiB with the output when each ReLU and upsampling kept its own copy
    cfg = NetConfig(frames=8)
    params = init_params(cfg, seed=0)
    s = crandn(rng, (8, 32, 32))
    tracemalloc.start()
    try:
        out, cache = net_forward(s, params, cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1800 * 1024


def test_net_backward_refuses_a_consumed_cache():
    _, params, s, target = _micro_setup()
    out, cache = net_forward(s, params, MICRO)
    g_theta, _ = net_backward(2.0 * (out - target), cache, params)
    assert np.abs(g_theta).max() > 0
    with pytest.raises(ValueError, match="cache already consumed"):
        net_backward(2.0 * (out - target), cache, params)
    assert cache["cfg"] == MICRO and cache["shape"] == s.shape


def test_net_forward_names_the_shapes_of_a_series_that_is_not_three_dimensional():
    cfg = NetConfig(frames=8)
    with pytest.raises(ValueError, match=r"series of shape \(8, 32\), expected \(8, H, W\)"):
        net_forward(np.zeros((8, 32)), init_params(cfg, 0), cfg)


@pytest.mark.parametrize("shape", [(8, 32, 32, 1), (4, 32, 32), (8, 30, 32), (8, 32, 2)])
def test_check_fits_refuses_a_series_of_other_frames_or_a_size_its_pooling_does_not_divide(shape):
    cfg = NetConfig(frames=8)
    cfg.check_fits((8, 32, 4))
    with pytest.raises(ValueError, match=r"expected \(8, H, W\), H and W multiples of 4$"):
        cfg.check_fits(shape)
    with pytest.raises(ValueError, match=rf"series of shape \({', '.join(map(str, shape))}\)"):
        net_forward(np.zeros(shape, dtype=complex), init_params(cfg, 0), cfg)


def test_net_forward_refuses_a_config_that_is_not_the_parameters():
    _, params, s, _ = _micro_setup()
    other = NetConfig(frames=2, depth_levels=2, base_channels=4)
    message = f"{other!r} is not the parameters' {MICRO!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        net_forward(s, params, other)
    out, _ = net_forward(s, params, NetConfig(frames=2, depth_levels=2, base_channels=2))  # an equal config
    assert np.array_equal(out, net_forward(s, params, MICRO)[0])


def test_net_backward_names_the_shapes_of_a_mismatched_gradient():
    _, params, s, _ = _micro_setup()
    out, cache = net_forward(s, params, MICRO)
    with pytest.raises(ValueError, match=r"grad_out of shape \(2, 8, 4\), expected the forward's \(2, 8, 8\)"):
        net_backward(out[:, :, :4], cache, params)
    net_backward(out, cache, params)  # the refused call left the tape in place


POOL_SHAPES = [(16, 32, 32), (32, 16, 16), (64, 8, 8), (3, 4, 4)]  # the default net's levels at 32², odd C


def _wide_range(rng, shape):
    return rng.standard_normal(shape) * np.exp(rng.uniform(-15, 15, shape))


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_pooling_helpers_are_bit_equal_to_the_reshape_and_repeat_references(rng, shape):
    c, h, w = shape
    x = _wide_range(rng, shape)
    blocks = x.reshape(c, h // 2, 2, w // 2, 2)
    assert np.array_equal(_sum2x2(x).view(np.int64), blocks.sum(axis=(2, 4)).view(np.int64))
    pooled = _sum2x2(x)
    pooled /= 4.0  # the forward's pool
    assert np.array_equal(pooled.view(np.int64), blocks.mean(axis=(2, 4)).view(np.int64))
    y = _wide_range(rng, (c, h // 2, w // 2))
    up = _upsample_into(np.empty(shape), y)
    assert np.array_equal(up.view(np.int64), np.repeat(np.repeat(y, 2, axis=1), 2, axis=2).view(np.int64))


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_upsampling_is_the_adjoint_of_the_2x2_block_sum(rng, shape):
    c, h, w = shape
    x, y = rng.standard_normal(shape), rng.standard_normal((c, h // 2, w // 2))
    lhs = np.sum(_upsample_into(np.empty(shape), y) * x)
    rhs = np.sum(y * _sum2x2(x))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _adam_reference(theta, grad, state, lr):
    """The allocating textbook step, with bias-corrected moments; adam_step's m and v are its bits."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = state.step + 1
    m = beta1 * state.m + (1 - beta1) * grad
    v = beta2 * state.v + (1 - beta2) * grad ** 2
    m_hat = m / (1 - beta1 ** step)
    v_hat = v / (1 - beta2 ** step)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m=m, v=v, step=step)


def _adam_folded_reference(theta, grad, state, lr):
    """The allocating folded step of Kingma & Ba (ICLR 2015, section 2), whose bits adam_step's theta is."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = state.step + 1
    m = beta1 * state.m + (1 - beta1) * grad
    v = beta2 * state.v + (1 - beta2) * grad ** 2
    alpha_t = lr * np.sqrt(1 - beta2 ** step) / (1 - beta1 ** step)
    eps_t = eps * np.sqrt(1 - beta2 ** step)
    return theta - alpha_t * (m / (np.sqrt(v) + eps_t)), AdamState(m=m, v=v, step=step)


def test_adam_in_place_step_is_bit_equal_to_the_allocating_formula(rng):
    # m and v are the textbook step's bits and theta the folded step's. From one theta and state the
    # two steps differ by the update's round-off (each rounds it about six times) and one rounding of
    # theta - update, measured at most spacing + 3.3 eps |update| over 100 seeds
    eps = np.finfo(np.float64).eps
    for size in (257, 1, 16_383, 16_384, 16_385, 120_400):
        theta = rng.standard_normal(size)
        ref_state, state = AdamState.zeros(theta.size), AdamState.zeros(theta.size)
        for _ in range(20):
            grad = rng.standard_normal(theta.size) * rng.uniform(1e-6, 1e3)
            folded_theta, _ = _adam_folded_reference(theta, grad, ref_state, lr=1e-3)
            ref_theta, ref_state = _adam_reference(theta, grad, ref_state, lr=1e-3)
            new_theta, state = adam_step(theta, grad, state, lr=1e-3)
            for a, b in ((new_theta, folded_theta), (state.m, ref_state.m), (state.v, ref_state.v)):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            gap = np.spacing(np.abs(ref_theta)) + 8 * eps * np.abs(theta - ref_theta)
            assert np.all(np.abs(new_theta - ref_theta) <= gap)
            theta = new_theta
        assert state.step == ref_state.step == 20


def test_adam_refuses_vectors_of_other_shapes_or_more_than_one_axis():
    with pytest.raises(ValueError, match="vectors of one shape"):
        adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), lr=1e-3)
    with pytest.raises(ValueError, match="vectors of one shape"):
        adam_step(np.zeros((2, 3)), np.zeros((2, 3)), AdamState(np.zeros((2, 3)), np.zeros((2, 3))), lr=1e-3)


def test_adam_leaves_theta_unwritten():
    # training keeps the best epoch's parameters as views of an earlier theta
    theta = np.array([1.0, -2.0, 3.0])
    kept = theta.copy()
    adam_step(theta, np.array([0.5, 0.5, -0.5]), AdamState.zeros(3), lr=1e-1)
    assert np.array_equal(theta, kept)


def test_init_deterministic():
    a = init_params(NetConfig(frames=2), seed=11).to_flat()
    b = init_params(NetConfig(frames=2), seed=11).to_flat()
    assert np.array_equal(a, b)


def test_adam_zero_grad_no_move():
    theta = np.array([1.0, -2.0, 3.0])
    out, state = adam_step(theta, np.zeros(3), AdamState.zeros(3), lr=1e-2)
    assert_allclose(out, theta)
    assert state.step == 1


def test_adam_advances_the_state_it_is_given():
    state = AdamState.zeros(3)
    m, v = state.m, state.v
    _, returned = adam_step(np.zeros(3), np.ones(3), state, lr=1e-2)
    assert returned is state and state.step == 1 and state.m is m and state.v is v


def test_adam_first_step_is_signed_lr():
    g = np.array([0.3, -4.0, 1e-3])
    theta = np.zeros(3)
    out, _ = adam_step(theta, g, AdamState.zeros(3), lr=1e-4)
    assert_allclose(out, -1e-4 * np.sign(g), rtol=1e-3)


def test_adam_quadratic_bowl_converges():
    theta = np.ones(16)
    state = AdamState.zeros(16)
    for _ in range(2000):
        theta, state = adam_step(theta, 2 * theta, state, lr=1e-2)
    assert float(theta @ theta) < 1e-3
