"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion output.
The SECRET training fixture is shared between the self-supervision, kinetics
and scoreboard criteria; everything is seeded and deterministic.
"""

import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from ktsecret.cs import CsConfig, cs_gradient, cs_objective, cs_reconstruct
from ktsecret.encoding import KtData, adjoint, encode, make_radial_mask, normal_op
from ktsecret.kinetics import nrmse, patlak_fit, psnr, ssim
from ktsecret.net import NetConfig, init_params
from ktsecret.numerics import dft2
from ktsecret.phantom import PhantomSpec, corrupt, gamma_variate_aif, synthesize
from ktsecret.recon import (
    ModlConfig,
    SecretConfig,
    dc_solve,
    modl_forward,
    modl_train,
    secret_infer,
    secret_loss,
    secret_train,
)
from ktsecret.recon import _sample_loss
from conftest import crandn

# regression pin for the SECRET-at-10x K^Trans map (criterion 7); recorded
# from the first seeded run of this suite
SECRET_KTRANS_NRMSE_PIN = 0.7390817754936406


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def secret_setup():
    """Six training phantoms at 10x, one held-out phantom at 6x and 10x."""
    t, h, w = 8, 32, 32
    net_cfg = NetConfig(frames=t)
    phantoms = [synthesize(PhantomSpec(h=h, w=w, t=t, dt=4.0, seed=100 + i)) for i in range(7)]
    train = [corrupt(p, make_radial_mask(t, h, w, 10.0, seed=i), 0.0, seed=i)
             for i, p in enumerate(phantoms[:6])]
    held = phantoms[6]
    held10 = corrupt(held, make_radial_mask(t, h, w, 10.0, seed=6), 0.0, seed=6)
    held6 = corrupt(held, make_radial_mask(t, h, w, 6.0, seed=40), 0.0, seed=40)
    t0 = time.perf_counter()
    params, log = secret_train(train, SecretConfig(epochs=100, lr=1e-4, batch=1, seed=0), net_cfg)
    train_seconds = time.perf_counter() - t0
    return {
        "net_cfg": net_cfg,
        "params": params,
        "log": log,
        "held": held,
        "held10": held10,
        "held6": held6,
        "train_seconds": train_seconds,
    }


def test_criterion_1_operator_adjoints():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 5))
        n = int(rng.choice([16, 32, 64]))
        mask = make_radial_mask(t, n, n, float(rng.choice([2, 4, 8])), seed=seed)
        x = crandn(rng, (t, n, n))
        y = crandn(rng, (t, n, n)) * mask.bits
        lhs = np.vdot(encode(x, mask).samples, y)
        rhs = np.vdot(x, adjoint(KtData(samples=y, mask=mask)))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"adjoint identity, 20 seeds, worst rel err {worst:.2e}, {elapsed:.1f} s")


@pytest.mark.usefixtures("float64_net")
def test_criterion_2_differentiation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    h = 1e-5

    # (a) cs_objective gradient on 2x8x8
    mask = make_radial_mask(2, 8, 8, 2.0, seed=1)
    img = crandn(rng, (2, 8, 8))
    d = KtData(samples=dft2(img, "forward") * mask.bits, mask=mask)
    s = crandn(rng, (2, 8, 8))
    cfg = CsConfig(lambda1=1e-2, lambda2=2e-2)
    g = cs_gradient(s, d, cfg)
    worst_a = 0.0
    for _ in range(10):
        ti, y, x = rng.integers(2), rng.integers(8), rng.integers(8)
        for comp, pick in ((1.0, np.real), (1j, np.imag)):
            e = np.zeros_like(s)
            e[ti, y, x] = comp
            fd = (cs_objective(s + h * e, d, cfg) - cs_objective(s - h * e, d, cfg)) / (2 * h)
            worst_a = max(worst_a, abs(fd - pick(g[ti, y, x])) / max(abs(fd), 1e-12))
    assert worst_a < 1e-4

    # (b) full SECRET loss w.r.t. theta on a micro net (T=2, 8x8)
    micro = NetConfig(frames=2, depth_levels=2, base_channels=2)
    params = init_params(micro, seed=2)
    _, g_theta = secret_loss(d, params, micro)
    theta = params.to_flat()
    worst_b = 0.0
    for i in rng.choice(theta.size, 60, replace=False):
        e = np.zeros_like(theta)
        e[i] = h
        lp, _ = secret_loss(d, params.from_flat(theta + e), micro)
        lm, _ = secret_loss(d, params.from_flat(theta - e), micro)
        fd = (lp - lm) / (2 * h)
        worst_b = max(worst_b, abs(fd - g_theta[i]) / max(abs(fd), 1e-8))
    assert worst_b < 1e-4

    # (c) MoDL implicit DC gradient, K=2, 16x16, T=4
    net4 = NetConfig(frames=4, depth_levels=2, base_channels=2)
    params4 = init_params(net4, seed=3)
    mask4 = make_radial_mask(4, 16, 16, 3.0, seed=4)
    img4 = crandn(rng, (4, 16, 16))
    d4 = KtData(samples=dft2(img4, "forward") * mask4.bits, mask=mask4)
    target = crandn(rng, (4, 16, 16))
    mcfg = ModlConfig(K=2, lam=0.05)
    _, g_m = _sample_loss((d4, target), params4, net4, mcfg.K, mcfg.lam, grad=True)
    theta4 = params4.to_flat()

    def modl_loss(th):
        sk = modl_forward(adjoint(d4), d4, params4.from_flat(th), mcfg, net4)
        diff = sk - target
        return np.vdot(diff, diff).real

    worst_c = 0.0
    for i in rng.choice(theta4.size, 20, replace=False):
        e = np.zeros_like(theta4)
        e[i] = h
        fd = (modl_loss(theta4 + e) - modl_loss(theta4 - e)) / (2 * h)
        worst_c = max(worst_c, abs(fd - g_m[i]) / max(abs(fd), 1e-8))
    assert worst_c < 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"gradients: cs {worst_a:.2e}, secret {worst_b:.2e}, modl {worst_c:.2e}, {elapsed:.1f} s")


def test_criterion_3_cs_behavior():
    t0 = time.perf_counter()
    truth = synthesize(PhantomSpec(h=64, w=64, t=16, dt=2.0, seed=7))
    mask = make_radial_mask(16, 64, 64, 10.0, seed=1)
    d = corrupt(truth, mask, 0.0, seed=2)
    s, log = cs_reconstruct(d, CsConfig())
    obj = log.objective
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(obj, obj[1:]))
    gain = psnr(s, truth.ref_images) - psnr(adjoint(d), truth.ref_images)
    assert gain >= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(3, f"CS monotone, PSNR gain over zero-filled {gain:.2f} dB, {elapsed:.1f} s")


def test_criterion_4_secret_self_supervision(secret_setup):
    st = secret_setup
    ratio = st["log"].train_loss[-1] / st["log"].train_loss[0]
    assert ratio <= 0.5
    held = st["held"]
    gains = {}
    for tag, d in (("R6", st["held6"]), ("R10", st["held10"])):
        zf = psnr(adjoint(d), held.ref_images)
        sec = psnr(secret_infer(d, st["params"], st["net_cfg"]), held.ref_images)
        assert sec > zf
        gains[tag] = sec - zf
    assert st["train_seconds"] < 900.0
    _report(4, f"loss ratio {ratio:.3f}, held-out PSNR gain R6 {gains['R6']:.2f} dB / "
               f"R10 {gains['R10']:.2f} dB, trained in {st['train_seconds']:.0f} s")


def test_criterion_5_no_reference_guarantee():
    # the self-supervised path consumes a dataset that physically lacks
    # reference images: a bare sequence of KtData
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=50))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    dataset = [corrupt(truth, mask, 0.0, seed=0)]
    assert all(isinstance(d, KtData) for d in dataset)
    assert not any(hasattr(d, "target") or hasattr(d, "reference") for d in dataset)
    net_cfg = NetConfig(frames=8, base_channels=4)
    params, log = secret_train(dataset, SecretConfig(epochs=2, seed=0), net_cfg)
    assert len(log.train_loss) == 2
    _report(5, "SECRET trains on a reference-free dataset type")


def test_criterion_6_modl_baseline():
    t0 = time.perf_counter()
    t, h, w = 8, 32, 32
    net_cfg = NetConfig(frames=t)
    phantoms = [synthesize(PhantomSpec(h=h, w=w, t=t, dt=4.0, seed=100 + i)) for i in range(6)]
    dataset = [(corrupt(p, make_radial_mask(t, h, w, 10.0, seed=i), 0.0, seed=i), p.ref_images)
               for i, p in enumerate(phantoms)]
    # dc residual contract on representative calls
    rng = np.random.default_rng(0)
    for d_u, _ in dataset[:3]:
        z = crandn(rng, (t, h, w))
        s, info = dc_solve(z, d_u, lam=0.05)
        rhs = adjoint(d_u) + 0.05 * z
        res = np.linalg.norm(normal_op(s, d_u.mask, 0.05) - rhs) / np.linalg.norm(rhs)
        assert res < 1e-6
    params, log = modl_train(dataset, ModlConfig(K=1, epochs=20, batch=1, seed=0), net_cfg)
    drop = 1.0 - log.train_loss[-1] / log.train_loss[0]
    assert drop >= 0.30
    d0 = dataset[0][0]
    s1 = modl_forward(adjoint(d0), d0, params, ModlConfig(K=1), net_cfg)
    s10 = modl_forward(adjoint(d0), d0, params, ModlConfig(K=10), net_cfg)
    assert np.linalg.norm(s10 - s1) > 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    _report(6, f"dc residuals < 1e-6, K1/K10 distinct, loss drop {100 * drop:.0f}%, {elapsed:.0f} s")


def test_criterion_7_kinetics_round_trip(secret_setup):
    # exact recovery on noiseless synthetic curves
    t_axis = np.arange(20) * 2.0
    aif = gamma_variate_aif(t_axis, t0=4.0, alpha=2.0, beta=5.0, scale=3.0)
    int_aif = cumulative_trapezoid(aif, t_axis / 60.0, initial=0.0)
    curve = 0.3 * int_aif + 0.1 * aif
    series = np.tile(curve[:, None, None], (1, 4, 4)).astype(complex)
    pmap = patlak_fit(series, aif, 2.0, np.ones((4, 4), dtype=bool))
    assert np.abs(pmap.ktrans - 0.3).max() <= 1e-8
    assert np.abs(pmap.vp - 0.1).max() <= 1e-8

    # map from reference phantom images
    truth = synthesize(PhantomSpec(h=64, w=64, t=16, dt=2.0, seed=7))
    pm = patlak_fit(truth.ref_images, truth.aif_signal, 2.0, truth.tissue_roi)
    roi = truth.tissue_roi
    ref_err = np.linalg.norm(pm.ktrans[roi] - truth.ktrans_map[roi]) / np.linalg.norm(truth.ktrans_map[roi])
    assert ref_err < 0.05

    # SECRET reconstruction at 10x on the held-out phantom: finite, pinned
    st = secret_setup
    held = st["held"]
    recon = secret_infer(st["held10"], st["params"], st["net_cfg"])
    pm_s = patlak_fit(recon, held.aif_signal, held.dt, held.tissue_roi)
    roi_h = held.tissue_roi
    sec_err = np.linalg.norm(pm_s.ktrans[roi_h] - held.ktrans_map[roi_h]) / np.linalg.norm(held.ktrans_map[roi_h])
    assert np.isfinite(sec_err)
    assert sec_err == pytest.approx(SECRET_KTRANS_NRMSE_PIN, rel=0.05)
    _report(7, f"Patlak exact; reference-map NRMSE {ref_err:.2e}; SECRET@10x map NRMSE {sec_err:.4f}")


def test_criterion_8_metric_unit_cases():
    ref = np.zeros((1, 8, 8))
    ref[0, 0, 0] = 1.0
    assert abs(psnr(ref + 0.1, ref) - 20.0) <= 1e-12
    x = np.random.default_rng(0).uniform(size=(2, 16, 16))
    assert abs(ssim(x, x) - 1.0) <= 1e-12
    r = np.random.default_rng(1).uniform(0.5, 1.0, size=(2, 8, 8))
    assert abs(nrmse(1.1 * r, r) - 0.1) <= 1e-12
    _report(8, "PSNR 20 dB closed form, SSIM(x,x)=1, NRMSE scaling exact")


def test_criterion_9_pipeline_determinism(tmp_path):
    import json

    from ktsecret.cli import main

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name / "out"
        cfg = {
            "seed": 5,
            "phantom": {"h": 32, "w": 32, "t": 8, "dt": 2.0, "n_tissue_regions": 2,
                        "noise_sigma": 0.02, "seed": 5},
            "mask": {"accel": 6.0, "seed": 1},
            "method": "cs",
            "method_params": {"iters": 10},
            "output_dir": str(out),
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 0
        outputs.append(out)
    a, b = outputs
    compared = 0
    for f in sorted(a.rglob("*.ktsr")):
        rel = f.relative_to(a)
        assert f.read_bytes() == (b / rel).read_bytes(), rel
        compared += 1
    assert compared >= 6
    _report(9, f"{compared} containers byte-identical across two seeded runs")


@pytest.mark.parametrize("method", ["secret", "modl"])
def test_criterion_9_learned_pipeline_determinism(tmp_path, monkeypatch, method):
    from ktsecret.pipeline import run_pipeline
    from ktsecret.container import save_params

    monkeypatch.setenv("KTSECRET_THREADS", "2")  # both accelerations on the worker pool at once
    params = {"epochs": 2}  # the pipeline trains SECRET on the scan; MoDL reads saved weights
    if method == "modl":
        net_cfg = NetConfig(frames=8, base_channels=4)
        save_params(tmp_path / "w.ktsr", init_params(net_cfg, 0))
        params = {"weights": str(tmp_path / "w.ktsr")}
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline({
            "seed": 5,
            "phantom": {"h": 16, "w": 16, "t": 8, "dt": 2.0, "n_tissue_regions": 2,
                        "noise_sigma": 0.02, "seed": 5},
            "mask": {"accel": [4.0, 8.0], "seed": 1},
            "method": method,
            "method_params": params,
            "output_dir": str(out),
        })
        outputs.append(out)
    a, b = outputs
    compared = 0
    for f in sorted(a.rglob("*.ktsr")):
        assert f.read_bytes() == (b / f.relative_to(a)).read_bytes(), f.relative_to(a)
        compared += 1
    assert compared >= 12
    _report(9, f"{method}: {compared} containers byte-identical across two seeded runs")


def test_criterion_10_seed_swept_scoreboard(secret_setup):
    """The paper's comparison on six held-out phantoms at 6x and 10x, noiseless.

    Each cell is the median [min, max] over the seeds. The last column is the
    paper's speed claim: for each learned method, the smallest CS max_iters in
    1...20 whose median gain reaches the method's. Only the orderings that hold
    on every seed are asserted: CS and SECRET each beat zero-filled.
    """
    st = secret_setup
    methods = {
        "zero-filled": adjoint,
        "SECRET": lambda d: secret_infer(d, st["params"], st["net_cfg"]),
        "SECRET + one DC step": lambda d: dc_solve(secret_infer(d, st["params"], st["net_cfg"]), d, 1e-6)[0],
        "CS (defaults)": lambda d: cs_reconstruct(d, CsConfig())[0],
    }
    learned, accels = ("SECRET", "SECRET + one DC step"), (6, 10)
    gain = {(m, a): [] for m in methods for a in accels}
    ktrans = {(m, a): [] for m in methods for a in accels}
    problems = {a: [] for a in accels}  # (measurement, reference, zero-filled PSNR) per seed
    for s in range(106, 112):
        truth = synthesize(PhantomSpec(h=32, w=32, t=8, dt=4.0, seed=s))
        roi = truth.tissue_roi
        for a in accels:
            d = corrupt(truth, make_radial_mask(8, 32, 32, a, seed=s + a), 0.0, seed=s)
            zf_psnr = psnr(adjoint(d), truth.ref_images)
            problems[a].append((d, truth.ref_images, zf_psnr))
            for m, recon_fn in methods.items():
                recon = recon_fn(d)
                gain[m, a].append(psnr(recon, truth.ref_images) - zf_psnr)
                pm = patlak_fit(recon, truth.aif_signal, truth.dt, roi)
                ktrans[m, a].append(np.linalg.norm(pm.ktrans[roi] - truth.ktrans_map[roi])
                                    / np.linalg.norm(truth.ktrans_map[roi]))
    iters_to_match = {}
    for a in accels:
        for k in range(1, 21):
            cs_gain = np.median([psnr(cs_reconstruct(d, CsConfig(max_iters=k))[0], ref) - zf_psnr
                                 for d, ref, zf_psnr in problems[a]])
            for m in learned:
                if cs_gain >= np.median(gain[m, a]):
                    iters_to_match.setdefault((m, a), k)
            if all((m, a) in iters_to_match for m in learned):
                break

    def cell(values, digits):
        return f"{np.median(values):.{digits}f} [{min(values):.{digits}f}, {max(values):.{digits}f}]"

    lines = ["| method | 6×: gain over ZF, dB | 6×: K^Trans NRMSE | 10×: gain, dB | 10×: K^Trans NRMSE "
             "| CS iterations to match, 6× / 10× |", "|---|---|---|---|---|---|"]
    for m in methods:
        row = [f"{'—' if m == 'zero-filled' else cell(gain[m, a], 2)} | {cell(ktrans[m, a], 3)}" for a in accels]
        match = " / ".join(str(iters_to_match.get((m, a), "> 20")) for a in accels) if m in learned else "—"
        lines.append(f"| {m} | {' | '.join(row)} | {match} |")
    print("\n" + "\n".join(lines))
    for a in accels:
        assert min(gain["CS (defaults)", a]) > 0.0
        assert min(gain["SECRET", a]) > 0.0
    _report(10, "CS and SECRET beat zero-filled on all 6 held-out seeds at 6x and 10x")
