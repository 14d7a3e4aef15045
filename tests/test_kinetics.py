import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve

from ktsecret.kinetics import _ssim_frame, evaluate_series, nrmse, patlak_fit, psnr, ssim
from ktsecret.phantom import PhantomSpec, gamma_variate_aif, synthesize
from conftest import at_1_and_4_blas_threads


def _aif(t=20, dt=2.0):
    t_axis = np.arange(t) * dt
    return gamma_variate_aif(t_axis, t0=4.0, alpha=2.0, beta=5.0, scale=3.0), dt


def test_patlak_exact_on_synthetic_linear_curves():
    aif, dt = _aif()
    t_min = np.arange(len(aif)) * dt / 60.0
    int_aif = cumulative_trapezoid(aif, t_min, initial=0.0)
    curve = 0.3 * int_aif + 0.1 * aif
    series = np.tile(curve[:, None, None], (1, 4, 4)).astype(complex)
    pmap = patlak_fit(series, aif, dt, np.ones((4, 4), dtype=bool))
    assert_allclose(pmap.ktrans, 0.3, atol=1e-8)
    assert_allclose(pmap.vp, 0.1, atol=1e-8)
    assert np.all(pmap.fit_r2 >= 1 - 1e-10)


def test_patlak_zero_series():
    aif, dt = _aif()
    series = np.zeros((len(aif), 4, 4), dtype=complex)
    pmap = patlak_fit(series, aif, dt, np.ones((4, 4), dtype=bool))
    assert np.abs(pmap.ktrans).max() == 0.0
    assert np.abs(pmap.vp).max() == 0.0


def test_patlak_phantom_round_trip():
    spec = PhantomSpec(h=64, w=64, t=16, dt=2.0, seed=7)
    truth = synthesize(spec)
    pmap = patlak_fit(truth.ref_images, truth.aif_signal, spec.dt, truth.tissue_roi)
    roi = truth.tissue_roi
    err = np.linalg.norm(pmap.ktrans[roi] - truth.ktrans_map[roi]) / np.linalg.norm(truth.ktrans_map[roi])
    assert err < 0.05
    assert not np.any(np.isnan(pmap.ktrans[pmap.mask_roi]))


def test_patlak_singular_design_flags_pixels():
    # only one usable frame: the design matrix cannot be rank 2
    aif = np.zeros(10)
    aif[-1] = 1.0
    series = np.ones((10, 2, 2), dtype=complex)
    pmap = patlak_fit(series, aif, 2.0, np.ones((2, 2), dtype=bool))
    assert np.all(np.isnan(pmap.ktrans))
    assert not pmap.mask_roi.any()


def test_patlak_rejects_zero_aif():
    with pytest.raises(ValueError):
        patlak_fit(np.ones((5, 2, 2), dtype=complex), np.zeros(5), 1.0, np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize("dt", [-2.0, 0.0, float("nan"), float("inf")])
def test_patlak_rejects_non_positive_or_non_finite_dt(dt):
    aif, _ = _aif()
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        patlak_fit(np.ones((20, 4, 4), dtype=complex), aif, dt, np.ones((4, 4), dtype=bool))


@pytest.mark.parametrize("shape", [(20,), (20, 4), (20, 4, 4, 1)])
def test_series_functions_reject_a_series_of_another_rank(shape):
    aif, dt = _aif()
    series = np.ones(shape)
    msg = re.escape(f"expected a [T,H,W] series, got shape {shape}")
    with pytest.raises(ValueError, match=msg):
        patlak_fit(series, aif, dt, np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError, match=msg):
        evaluate_series(series, series)
    if len(shape) != 2:  # ssim also takes one [H,W] frame
        with pytest.raises(ValueError, match=msg):
            ssim(series, series)


@pytest.mark.parametrize("roi_shape, aif_len", [((4, 5), 20), ((4, 4), 19)])
def test_patlak_rejects_mismatched_roi_or_aif(roi_shape, aif_len):
    aif, dt = _aif()
    series = np.ones((20, 4, 4), dtype=complex)
    with pytest.raises(ValueError, match=r"roi of shape \(4, 4\).*aif of shape \(20,\)"):
        patlak_fit(series, aif[:aif_len], dt, np.ones(roi_shape, dtype=bool))


def test_psnr_identical_is_inf(rng):
    x = rng.uniform(size=(3, 8, 8))
    assert psnr(x, x) == float("inf")


def test_psnr_closed_form_20db():
    ref = np.zeros((1, 8, 8))
    ref[0, 0, 0] = 1.0  # peak 1
    x = ref + 0.1
    assert psnr(x, ref) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_direct_formula(rng):
    x = rng.uniform(size=(2, 8, 8))
    ref = rng.uniform(size=(2, 8, 8))
    expected = 10 * np.log10(ref.max() ** 2 / np.mean((x - ref) ** 2))
    assert psnr(x, ref) == pytest.approx(expected, rel=1e-12)


def test_ssim_self_is_one(rng):
    x = rng.uniform(size=(2, 16, 16))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_affine_distortion_below_one(rng):
    ref = rng.uniform(size=(1, 32, 32))
    x = 1.5 * ref + 0.1
    assert ssim(x, ref) < 1.0


def test_ssim_constant_patch_hand_value():
    a, b = 0.5, 0.25
    x = np.full((8, 8), a)
    ref = np.full((8, 8), b)
    L = b
    c1 = (0.01 * L) ** 2
    # variances are zero, so the structure/contrast term cancels
    expected = (2 * a * b + c1) / (a * a + b * b + c1)
    assert ssim(x, ref) == pytest.approx(expected, rel=1e-12)


def test_ssim_symmetric_with_shared_data_range(rng):
    x = rng.uniform(size=(1, 16, 16))
    y = rng.uniform(size=(1, 16, 16))
    assert ssim(x, y, data_range=1.0) == pytest.approx(ssim(y, x, data_range=1.0), rel=1e-12)


def _ssim_frame_fftconvolve(x, ref, data_range):
    """SSIM of one frame with the 2-D window applied by scipy's fftconvolve."""
    c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
    size = min(11, min(x.shape))
    if size % 2 == 0:
        size -= 1
    ax = np.arange(size) - size // 2
    g = np.exp(-(ax ** 2) / (2 * 1.5 ** 2))
    win = np.outer(g, g) / np.outer(g, g).sum()
    mu_x, mu_y, exx, eyy, exy = (fftconvolve(a, win, mode="valid") for a in (x, ref, x * x, ref * ref, x * ref))
    num = (2 * mu_x * mu_y + c1) * (2 * (exy - mu_x * mu_y) + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * ((exx - mu_x ** 2) + (eyy - mu_y ** 2) + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (1, 16), (5, 3), (10, 12), (11, 11), (16, 16),
                                   (32, 64), (64, 64)])
def test_ssim_frame_matches_fftconvolve_reference(rng, shape):
    ref = rng.uniform(size=shape)
    for x in (ref, np.abs(ref + 0.1 * rng.standard_normal(shape)), 1.5 * ref + 0.1):
        assert _ssim_frame(x, ref, ref.max()) == pytest.approx(
            _ssim_frame_fftconvolve(x, ref, ref.max()), rel=1e-12, abs=0)


def test_nrmse_basics(rng):
    ref = rng.uniform(0.5, 1.0, size=(2, 8, 8))
    assert nrmse(ref, ref) == 0.0
    assert nrmse(np.zeros_like(ref), ref) == pytest.approx(1.0, rel=1e-12)
    assert nrmse(1.1 * ref, ref) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        nrmse(ref, np.zeros_like(ref))
    ints = np.arange(1, 13).reshape(3, 4)  # converted before summing, not reinterpreted
    assert nrmse(ints, ints + 1) == pytest.approx(np.sqrt(12 / np.sum((ints + 1) ** 2)), rel=1e-12)


def test_nrmse_refuses_a_reference_whose_squared_norm_underflows():
    # the peak 1e-200 is positive and finite, so the peak check passes; its square 1e-400 is 0
    ref = np.full((2, 8, 8), 1e-200)
    with pytest.raises(ValueError, match="^zero reference$"):
        nrmse(np.zeros_like(ref), ref)


def test_psnr_nrmse_monotone_relation(rng):
    ref = rng.uniform(0.2, 1.0, size=(2, 16, 16))
    candidates = [ref + eps * rng.standard_normal(ref.shape) for eps in (0.01, 0.05, 0.2)]
    psnrs = [psnr(c, ref) for c in candidates]
    nrmses = [nrmse(np.abs(c), ref) for c in candidates]
    assert np.argsort(psnrs).tolist() == np.argsort(nrmses)[::-1].tolist()


def test_evaluate_series_aggregates_are_frame_means(rng):
    x = rng.uniform(size=(4, 16, 16))
    ref = rng.uniform(size=(4, 16, 16))
    report = evaluate_series(x, ref)
    assert len(report.psnr_frames) == 4
    assert report.psnr == pytest.approx(np.mean(report.psnr_frames))
    assert report.ssim == pytest.approx(np.mean(report.ssim_frames))
    assert report.nrmse == pytest.approx(np.mean(report.nrmse_frames))


def test_metrics_do_not_depend_on_the_blas_thread_count(rng):
    # a 128² frame has more elements than BLAS sums in one thread
    x, ref = rng.uniform(size=(16, 128, 128)), rng.uniform(size=(16, 128, 128))

    def metrics():
        report = evaluate_series(x, ref)
        return report.psnr_frames.tobytes(), report.ssim_frames.tobytes(), report.nrmse_frames.tobytes(), \
            nrmse(x, ref)

    one, four = at_1_and_4_blas_threads(metrics)
    assert one == four


def test_evaluate_series_nrmse_skips_zero_reference_frames(rng):
    ref = rng.uniform(0.5, 1.0, size=(3, 8, 8))
    ref[0] = 0.0  # every synthesized phantom starts with an all-zero frame
    report = evaluate_series(1.1 * ref, ref)
    assert np.isnan(report.nrmse_frames[0])
    assert report.nrmse == pytest.approx(0.1, rel=1e-12)


def test_metrics_reject_mismatched_shapes_and_ssim_promotes_one_frame(rng):
    x, ref = rng.uniform(size=(2, 16, 16)), rng.uniform(size=(2, 16, 16))
    for metric in (psnr, ssim, evaluate_series):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 16, 16\) vs \(2, 16, 8\)"):
            metric(x, ref[..., :8])
    assert ssim(x[0], ref[0]) == ssim(x[:1], ref[:1])


@pytest.mark.parametrize("data_range", [-1.0, 0.0, float("nan"), float("inf"), True, "1"])
def test_ssim_rejects_a_data_range_that_is_not_positive_and_finite(rng, data_range):
    x = rng.uniform(size=(2, 8, 8))
    message = f"data_range must be positive and finite, got {data_range}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ssim(x, x, data_range=data_range)


def test_ssim_takes_a_numpy_or_integer_data_range(rng):
    x, y = rng.uniform(size=(2, 8, 8)), rng.uniform(size=(2, 8, 8))
    assert ssim(x, y, data_range=np.float32(2.0)) == ssim(x, y, data_range=2) == ssim(x, y, data_range=2.0)


def test_evaluate_series_rejects_all_zero_reference(rng):
    ref = np.zeros((3, 8, 8))
    for metric in (psnr, ssim, evaluate_series):
        with pytest.raises(ValueError, match="reference peak must be > 0"):
            metric(rng.uniform(size=ref.shape), ref)


def test_patlak_fit_needs_three_frames():
    with pytest.raises(ValueError, match="need at least 3 frames"):
        patlak_fit(np.ones((2, 4, 4)), np.ones(2), 2.0, np.ones((4, 4), bool))


def test_nrmse_refuses_a_shape_mismatch(rng):
    with pytest.raises(ValueError, match="shape mismatch"):
        nrmse(rng.uniform(size=(2, 4, 4)), rng.uniform(size=(2, 4, 8)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metrics_refuse_a_reference_whose_peak_is_not_finite(rng, bad):
    ref = rng.uniform(size=(2, 8, 8))
    ref[1, 2, 3] = bad
    for metric in (psnr, ssim, evaluate_series):
        with pytest.raises(ValueError, match="reference peak must be > 0"):
            metric(rng.uniform(size=ref.shape), ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nrmse_refuses_a_reference_whose_peak_is_not_finite(rng, bad):
    ref = rng.uniform(size=(2, 8, 8)) + 0j
    ref[1, 2, 3] = bad
    with pytest.raises(ValueError, match="reference peak must be > 0"):
        nrmse(rng.uniform(size=ref.shape), ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ssim_with_a_data_range_refuses_a_reference_whose_peak_is_not_finite(rng, bad):
    ref = rng.uniform(size=(2, 8, 8))
    ref[1, 2, 3] = bad
    with pytest.raises(ValueError, match="reference peak must be > 0"):
        ssim(rng.uniform(size=ref.shape), ref, data_range=1.0)
