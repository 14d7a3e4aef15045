import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ktsecret.encoding import KtData, adjoint, encode, make_radial_mask, normal_op
from ktsecret.kinetics import psnr
from ktsecret.net import NetConfig, init_params, net_forward
from ktsecret.numerics import dft2, norm
from ktsecret.phantom import PhantomSpec, corrupt, synthesize
from ktsecret.recon import (
    ModlConfig,
    SecretConfig,
    TrainingDiverged,
    dc_solve,
    modl_forward,
    modl_train,
    secret_infer,
    secret_loss,
    secret_train,
)
from ktsecret import recon
from ktsecret.recon import _sample_loss
from conftest import at_1_and_4_blas_threads, crandn

MICRO = NetConfig(frames=2, depth_levels=2, base_channels=2)


def _micro_data(seed, t=2, n=8, accel=2.0):
    rng = np.random.default_rng(seed)
    mask = make_radial_mask(t, n, n, accel, seed=seed)
    img = crandn(rng, (t, n, n))
    return rng, KtData(samples=dft2(img, "forward") * mask.bits, mask=mask)


def test_dc_solve_small_lam_is_zero_filled():
    rng, d = _micro_data(1, n=16, accel=1.0)
    z = crandn(rng, (2, 16, 16))
    s, info = dc_solve(z, d, lam=1e-8)
    assert np.linalg.norm(s - adjoint(d)) / np.linalg.norm(adjoint(d)) < 1e-4


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
def test_dc_solve_rejects_lam_that_is_not_positive_and_finite(lam):
    _, d = _micro_data(0)
    with pytest.raises(ValueError, match="lam"):
        dc_solve(np.zeros((2, 8, 8)), d, lam)


def test_dc_solve_large_lam_returns_prior():
    rng, d = _micro_data(2, n=16)
    z = crandn(rng, (2, 16, 16))
    s, _ = dc_solve(z, d, lam=1e8)
    assert np.linalg.norm(s - z) / np.linalg.norm(z) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_dc_solve_normal_equation_residual(seed):
    rng, d = _micro_data(seed, n=16, accel=3.0)
    z = crandn(rng, (2, 16, 16))
    s, info = dc_solve(z, d, lam=0.05)
    rhs = adjoint(d) + 0.05 * z
    res = np.linalg.norm(normal_op(s, d.mask, 0.05) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-6
    assert info.residual < 1e-6


def _dense_normal(mask, lam):
    """E^H E + lam*I as a dense matrix, built column by column from normal_op."""
    n = int(np.prod(mask.shape))
    return np.stack([normal_op(e.reshape(mask.shape), mask, lam).ravel() for e in np.eye(n, dtype=complex)],
                    axis=1)


@pytest.mark.parametrize("accel", [1.0, 3.0])
@pytest.mark.parametrize("lam", [1e-8, 0.05, 1.0, 1e8])
def test_dc_solve_matches_dense_solve(lam, accel):
    rng, d = _micro_data(10, accel=accel)
    z = crandn(rng, (2, 8, 8))
    s, info = dc_solve(z, d, lam)
    dense, rhs = _dense_normal(d.mask, lam), (adjoint(d) + lam * z).ravel()
    expected = np.linalg.solve(dense, rhs)
    # measured through the dense matrix: at lam=1e-8 with unsampled entries the
    # dense solve itself is only cond*eps ~ 1e-8 accurate in the solution
    assert np.linalg.norm(dense @ (s.ravel() - expected)) <= 1e-10 * np.linalg.norm(rhs)
    assert info.converged and info.iterations == 0 and info.residual < 1e-12


def test_modl_implicit_gradient_matches_dense_inverse(monkeypatch):
    import ktsecret.recon as recon

    rng, d = _micro_data(11, accel=3.0)
    params = init_params(MICRO, 6)
    target = crandn(rng, (2, 8, 8))
    cfg = ModlConfig(K=1, lam=0.05)
    seen = []
    backward = recon.net_backward
    monkeypatch.setattr(recon, "net_backward", lambda gz, *rest: seen.append(gz) or backward(gz, *rest))
    _sample_loss((d, target), params, MICRO, cfg.K, cfg.lam, grad=True)
    g = 2.0 * (modl_forward(adjoint(d), d, params, cfg, MICRO) - target)
    expected = cfg.lam * np.linalg.solve(_dense_normal(d.mask, cfg.lam), g.ravel())
    assert np.linalg.norm(seen[0].ravel() - expected) <= 1e-10 * np.linalg.norm(expected)


def test_modl_forward_k1_zero_net():
    rng, d = _micro_data(4, n=16)
    params = init_params(MICRO, 0)
    zero = params.from_flat(np.zeros(params.size))
    cfg = ModlConfig(K=1, lam=0.05)
    out = modl_forward(adjoint(d), d, zero, cfg, MICRO)
    avg = np.broadcast_to(adjoint(d).mean(axis=0), (2, 16, 16))
    expected, _ = dc_solve(avg, d, 0.05)
    assert_allclose(out, expected, atol=1e-10)


def test_modl_forward_k10_differs_from_k1():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=1))
    mask = make_radial_mask(8, 32, 32, 10.0, seed=1)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg_net = NetConfig(frames=8)
    params = init_params(cfg_net, 3)
    s1 = modl_forward(adjoint(d), d, params, ModlConfig(K=1), cfg_net)
    s10 = modl_forward(adjoint(d), d, params, ModlConfig(K=10), cfg_net)
    assert np.linalg.norm(s10 - s1) > 1e-6


def test_modl_forward_memory_does_not_grow_with_K():
    # inference keeps no tape past its network pass: 26.3 against 5.9 MiB when every tape was kept
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=1))
    d = corrupt(truth, make_radial_mask(8, 32, 32, 10.0, seed=1), 0.0, seed=0)
    cfg_net = NetConfig(frames=8)
    params, s_u = init_params(cfg_net, 3), adjoint(d)
    peaks = {}
    for K in (2, 10):
        tracemalloc.start()
        try:
            modl_forward(s_u, d, params, ModlConfig(K=K), cfg_net)
            peaks[K] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10] - peaks[2] < 0.5 * 2 ** 20


def test_modl_forward_full_mask_recovers_reference():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=2))
    mask = make_radial_mask(8, 32, 32, 1.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg_net = NetConfig(frames=8)
    params = init_params(cfg_net, 1)
    cfg = ModlConfig(K=1, lam=1e-6)
    out = modl_forward(adjoint(d), d, params, cfg, cfg_net)
    assert np.linalg.norm(out - truth.ref_images) / np.linalg.norm(truth.ref_images) < 1e-4


def test_modl_train_smoke_single_phantom():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=3))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg_net = NetConfig(frames=8, base_channels=4)
    params, log = modl_train([(d, truth.ref_images)], ModlConfig(K=1, epochs=1), cfg_net)
    assert len(log.train_loss) == 1
    assert np.isfinite(log.train_loss[0])


def test_modl_implicit_gradient_matches_finite_differences():
    rng, d = _micro_data(6)
    params = init_params(MICRO, 5)
    target = crandn(rng, (2, 8, 8))
    cfg = ModlConfig(K=2, lam=0.05)
    _, g = _sample_loss((d, target), params, MICRO, cfg.K, cfg.lam, grad=True)
    theta = params.to_flat()
    h = 1e-5

    def loss_at(th):
        sk = modl_forward(adjoint(d), d, params.from_flat(th), cfg, MICRO)
        diff = sk - target
        return np.vdot(diff, diff).real

    for i in np.random.default_rng(0).choice(theta.size, 25, replace=False):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (loss_at(theta + e) - loss_at(theta - e)) / (2 * h)
        assert abs(fd - g[i]) / max(abs(fd), 1e-8) < 1e-4


def test_modl_k1_epoch_cheaper_than_k10():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=4))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg_net = NetConfig(frames=8, base_channels=4)
    _, log1 = modl_train([(d, truth.ref_images)], ModlConfig(K=1, epochs=2), cfg_net)
    _, log10 = modl_train([(d, truth.ref_images)], ModlConfig(K=10, epochs=2), cfg_net)
    assert np.mean(log1.seconds) < np.mean(log10.seconds)


def test_secret_loss_zero_net_matches_direct_oracle():
    rng, d = _micro_data(7)
    params = init_params(MICRO, 0)
    zero = params.from_flat(np.zeros(params.size))
    loss, _ = secret_loss(d, zero, MICRO)
    s_u = adjoint(d)
    broadcast = np.broadcast_to(s_u.mean(axis=0), s_u.shape)
    oracle = np.sum(np.abs(np.fft.fft2(broadcast, norm="ortho") * d.mask.bits - d.samples) ** 2)
    assert loss == pytest.approx(oracle, rel=1e-12)


def test_secret_gradient_matches_finite_differences():
    rng, d = _micro_data(8)
    params = init_params(MICRO, 2)
    _, g = secret_loss(d, params, MICRO)
    theta = params.to_flat()
    h = 1e-5
    for i in np.random.default_rng(1).choice(theta.size, 40, replace=False):
        e = np.zeros_like(theta)
        e[i] = h
        lp, _ = secret_loss(d, params.from_flat(theta + e), MICRO)
        lm, _ = secret_loss(d, params.from_flat(theta - e), MICRO)
        fd = (lp - lm) / (2 * h)
        assert abs(fd - g[i]) / max(abs(fd), 1e-8) < 1e-5


def test_secret_train_reduces_loss_and_enforces_data_consistency():
    cfg_net = NetConfig(frames=8, base_channels=8)
    data = []
    for i in range(2):
        truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=20 + i))
        mask = make_radial_mask(8, 16, 16, 6.0, seed=i)
        data.append(corrupt(truth, mask, 0.0, seed=i))
    params, log = secret_train(data, SecretConfig(epochs=30, seed=0), cfg_net)
    assert log.train_loss[-1] < log.train_loss[0]
    # sampled k-space residual beats the zero-network baseline on every sample
    zero = params.from_flat(np.zeros(params.size))
    for d in data:
        trained, _ = secret_loss(d, params, cfg_net)
        baseline, _ = secret_loss(d, zero, cfg_net)
        assert trained < baseline


def test_secret_train_accepts_reference_free_dataset():
    # the dataset is a bare sequence of KtData: reference images do not exist
    class NoReferenceDataset(list):
        pass

    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=30))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    ds = NoReferenceDataset([corrupt(truth, mask, 0.0, seed=0)])
    cfg_net = NetConfig(frames=8, base_channels=4)
    params, log = secret_train(ds, SecretConfig(epochs=2, seed=0), cfg_net)
    assert len(log.train_loss) == 2


def _grad_norm_case():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=30))
    data = [corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=i), 0.0, seed=i) for i in range(2)]
    return data, NetConfig(frames=8, base_channels=4)


def test_train_log_grad_norm_is_mean_minibatch_norm(monkeypatch):
    data, cfg_net = _grad_norm_case()
    norms = []

    sample_loss = recon._sample_loss

    def recorded(*args, grad):
        loss, g = sample_loss(*args, grad=grad)
        norms.append(norm(g))  # batch 1: the minibatch gradient is g
        return loss, g

    monkeypatch.setattr(recon, "_sample_loss", recorded)
    _, log = secret_train(data, SecretConfig(epochs=3, batch=1, seed=0), cfg_net)
    assert len(log.grad_norm) == 3 and len(norms) == 6
    assert np.all(np.isfinite(log.grad_norm))
    assert log.grad_norm == [np.mean(norms[i:i + 2]) for i in (0, 2, 4)]


def test_training_does_not_depend_on_the_blas_thread_count():
    # a 16x32x32 residual has more elements than BLAS sums in one thread
    truth = synthesize(PhantomSpec(h=32, w=32, t=16, seed=32))
    data = [corrupt(truth, make_radial_mask(16, 32, 32, 6.0, seed=i), 0.02, seed=i) for i in range(3)]
    net_cfg = NetConfig(frames=16, base_channels=4)

    def train():
        params, log = secret_train(data[:2], SecretConfig(epochs=3, seed=0), net_cfg, val_dataset=data[2:])
        return params.to_flat().tobytes(), log.train_loss, log.val_loss, log.grad_norm

    one, four = at_1_and_4_blas_threads(train)
    assert one == four


def test_train_log_grad_norm_of_zero_gradient_is_zero(monkeypatch):
    data, cfg_net = _grad_norm_case()
    monkeypatch.setattr(recon, "_sample_loss", lambda sample, params, *args, grad: (1.0, np.zeros(params.size)))
    _, log = secret_train(data, SecretConfig(epochs=2, seed=0), cfg_net)
    assert log.grad_norm == [0.0, 0.0]


def test_secret_train_divergence_aborts():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=31))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    ds = [corrupt(truth, mask, 0.0, seed=0)]
    cfg_net = NetConfig(frames=8, base_channels=4)
    with pytest.raises(TrainingDiverged) as err:
        secret_train(ds, SecretConfig(epochs=8, lr=1e150, seed=0), cfg_net)
    assert len(err.value.log.train_loss) >= 1


def test_secret_train_divergence_in_validation_aborts():
    # the last step's huge weights first meet a forward pass in validation
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=31))
    ds = [corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)]
    with pytest.raises(TrainingDiverged) as err:
        secret_train(ds, SecretConfig(epochs=8, lr=1e150, seed=0), NetConfig(frames=8, base_channels=4),
                     val_dataset=ds)
    assert err.value.log.train_loss == []


def test_value_error_in_a_training_loss_is_not_relabelled(monkeypatch):
    def broken(*args, grad):
        raise ValueError("programming error")

    monkeypatch.setattr(recon, "_sample_loss", broken)
    with pytest.raises(ValueError, match="programming error"):
        secret_train([_micro_data(0)[1]], SecretConfig(epochs=1, seed=0), MICRO)


def test_non_finite_validation_loss_diverges(monkeypatch):
    _, d = _micro_data(0)
    sample_loss = recon._sample_loss
    monkeypatch.setattr(recon, "_sample_loss",
                        lambda *args, grad: sample_loss(*args, grad=grad) if grad else np.nan)
    pairs = [(d, adjoint(d))]
    with pytest.raises(TrainingDiverged, match="validation") as err:
        modl_train(pairs, ModlConfig(epochs=2, seed=0), MICRO, val_dataset=pairs)
    assert err.value.log.train_loss == []


def test_secret_loss_constructs_no_ktdata(monkeypatch):
    _, d = _micro_data(0)
    built = []
    monkeypatch.setattr(KtData, "__post_init__", lambda self: built.append(self))
    secret_loss(d, init_params(MICRO, seed=0), MICRO)
    assert built == []


def test_secret_train_rejects_mixed_frame_counts():
    # a bad dataset is a ValueError naming the sample, not a TrainingDiverged
    ds = [corrupt(synthesize(PhantomSpec(h=16, w=16, t=t, seed=32)), make_radial_mask(t, 16, 16, 4.0, seed=0),
                  0.0, seed=0) for t in (8, 10)]
    with pytest.raises(ValueError, match=r"dataset\[1\] has k-space shape \(10, 16, 16\)"):
        secret_train(ds, SecretConfig(epochs=1, seed=0), NetConfig(frames=8, base_channels=4))


def test_modl_train_rejects_misshaped_target():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=33))
    d_u = corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)
    pairs = [(d_u, truth.ref_images), (d_u, truth.ref_images[:, :8])]
    with pytest.raises(ValueError, match=r"val_dataset\[1\] has target shape \(8, 8, 16\)"):
        modl_train(pairs[:1], ModlConfig(epochs=1, seed=0), NetConfig(frames=8, base_channels=4), val_dataset=pairs)


def test_secret_infer_deterministic_and_total():
    rng, d = _micro_data(9, n=16)
    params = init_params(MICRO, 4)
    a = secret_infer(d, params, MICRO)
    b = secret_infer(d, params, MICRO)
    assert np.array_equal(a, b)
    zero_data = KtData(samples=np.zeros_like(d.samples), mask=d.mask)
    out = secret_infer(zero_data, params, MICRO)
    assert np.all(np.isfinite(out.view(np.float64)))


def test_secret_infer_desk_scale_under_one_second():
    cfg_net = NetConfig(frames=8)
    mask = make_radial_mask(8, 64, 64, 6.0, seed=0)
    truth = synthesize(PhantomSpec(h=64, w=64, t=8, seed=5))
    d = corrupt(truth, mask, 0.0, seed=0)
    params = init_params(cfg_net, 0)
    t0 = time.perf_counter()
    secret_infer(d, params, cfg_net)
    assert time.perf_counter() - t0 < 1.0


def test_secret_checkpoint_selection_uses_validation():
    cfg_net = NetConfig(frames=8, base_channels=4)
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=32))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    train = [corrupt(truth, mask, 0.0, seed=0)]
    val = [corrupt(truth, mask, 0.0, seed=1)]
    params, log = secret_train(train, SecretConfig(epochs=5, seed=0), cfg_net, val_dataset=val)
    assert len(log.val_loss) == 5
    assert np.all(np.isfinite(log.val_loss))


def test_dc_solve_zero_input_returns_at_once():
    mask = make_radial_mask(2, 8, 8, 2.0, seed=0)
    zero = KtData(samples=np.zeros((2, 8, 8), dtype=complex), mask=mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, info = dc_solve(np.zeros((2, 8, 8)), zero, 0.05)
    assert np.array_equal(s, np.zeros((2, 8, 8)))
    assert info.converged and info.iterations == 0


@pytest.mark.parametrize("kwargs", [dict(epochs=0), dict(lr=0.0), dict(lr=-1.0), dict(batch=-3)])
def test_modl_config_rejects_bad_training_settings(kwargs):
    with pytest.raises(ValueError):
        ModlConfig(**kwargs)


def _checkpoint_case(method):
    net_cfg = NetConfig(frames=8, base_channels=4)
    truths = [synthesize(PhantomSpec(h=16, w=16, t=8, seed=40 + i)) for i in range(2)]
    data = [corrupt(p, make_radial_mask(8, 16, 16, 4.0, seed=i), 0.0, seed=i) for i, p in enumerate(truths)]
    if method == "secret":
        return secret_train, lambda epochs: SecretConfig(epochs=epochs, lr=1e-2, seed=0), net_cfg, data
    pairs = [(d, p.ref_images) for d, p in zip(data, truths)]
    return modl_train, lambda epochs: ModlConfig(epochs=epochs, lr=1e-2, seed=0), net_cfg, pairs


@pytest.mark.parametrize("method", ["secret", "modl"])
def test_validation_selects_lowest_validation_loss_checkpoint(method):
    train_fn, make_cfg, net_cfg, samples = _checkpoint_case(method)
    epochs = 6
    params, log = train_fn(samples[:1], make_cfg(epochs), net_cfg, val_dataset=samples[1:])
    best = int(np.argmin(log.val_loss))
    assert best < epochs - 1  # precondition: the last epoch is not the best one
    expected, _ = train_fn(samples[:1], make_cfg(best + 1), net_cfg)
    assert np.array_equal(params.to_flat(), expected.to_flat())


@pytest.mark.parametrize("method", ["secret", "modl"])
def test_training_looks_up_losses_at_call_time_and_validates_forward_only(method, monkeypatch):
    import ktsecret.recon as recon

    train_fn, make_cfg, net_cfg, samples = _checkpoint_case(method)
    calls = {}

    def counting(name):
        original = getattr(recon, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(recon, name, wrapper)

    for name in ("dc_solve", "net_backward"):
        counting(name)
    grads = []
    sample_loss = recon._sample_loss
    monkeypatch.setattr(recon, "_sample_loss",
                        lambda *args, grad: grads.append(grad) or sample_loss(*args, grad=grad))
    train_fn(samples[:1], make_cfg(2), net_cfg, val_dataset=samples[1:])
    # one backward per training sample and epoch: validation runs forward only
    assert grads == [True, False, True, False]
    assert calls["net_backward"] == 2
    assert calls.get("dc_solve", 0) == (0 if method == "secret" else 4)


@pytest.mark.parametrize("method", ["secret", "modl"])
@pytest.mark.parametrize("where", ["dataset", "val_dataset"])
def test_training_refuses_a_sample_of_the_other_kind(method, where):
    # one loss serves both kinds of sample, so a pair would train SECRET on its reference
    train_fn, make_cfg, net_cfg, samples = _checkpoint_case(method)
    other = _checkpoint_case("modl" if method == "secret" else "secret")[3]
    data = {"dataset": samples[:1], "val_dataset": samples[1:]}
    data[where] = data[where] + other[:1]
    want = "a bare KtData" if method == "secret" else r"a \(KtData, target\) pair"
    with pytest.raises(ValueError, match=rf"^{where}\[1\] is not {want}"):
        train_fn(data["dataset"], make_cfg(1), net_cfg, val_dataset=data["val_dataset"])


@pytest.mark.parametrize("method", ["secret", "modl"])
@pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
def test_training_refuses_an_empty_dataset(method, make, monkeypatch):
    train_fn, make_cfg, net_cfg, _ = _checkpoint_case(method)
    monkeypatch.setattr(recon, "init_params", lambda *args: pytest.fail("an epoch began"))
    with pytest.raises(ValueError, match="dataset is empty"):
        train_fn(make([]), make_cfg(2), net_cfg)


@pytest.mark.parametrize("method", ["secret", "modl"])
def test_generator_validation_set_equals_list(method):
    train_fn, make_cfg, net_cfg, samples = _checkpoint_case(method)
    p_list, log_list = train_fn(samples[:1], make_cfg(3), net_cfg, val_dataset=samples[1:])
    p_gen, log_gen = train_fn(samples[:1], make_cfg(3), net_cfg, val_dataset=(s for s in samples[1:]))
    assert min(log_list.val_loss) > 0
    assert (log_gen.train_loss, log_gen.val_loss, log_gen.grad_norm) == \
        (log_list.train_loss, log_list.val_loss, log_list.grad_norm)
    assert np.array_equal(p_gen.to_flat(), p_list.to_flat())


@pytest.mark.parametrize("infer", ["secret_infer", "modl_forward"])
def test_inference_refuses_a_config_that_is_not_the_parameters(infer):
    _, d = _micro_data(3)
    params = init_params(MICRO, seed=0)
    other = NetConfig(frames=2, depth_levels=1, base_channels=2)
    run = {"secret_infer": lambda cfg: secret_infer(d, params, cfg),
           "modl_forward": lambda cfg: modl_forward(adjoint(d), d, params, ModlConfig(K=2), cfg)}[infer]
    with pytest.raises(ValueError, match=r"NetConfig\(frames=2, depth_levels=1, .* is not the parameters' "
                                         r"NetConfig\(frames=2, depth_levels=2, base_channels=2\)"):
        run(other)
    assert run(MICRO).shape == d.samples.shape
