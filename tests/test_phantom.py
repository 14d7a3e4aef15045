import numpy as np
import pytest
from numpy.testing import assert_allclose

from ktsecret.encoding import adjoint, make_radial_mask
from ktsecret.kinetics import psnr
from ktsecret.phantom import PhantomSpec, corrupt, gamma_variate_aif, synthesize


def test_aif_zero_before_arrival():
    t = np.linspace(0, 60, 121)
    c = gamma_variate_aif(t, t0=10.0, alpha=2.0, beta=4.0, scale=1.0)
    assert np.all(c[t <= 10.0] == 0.0)


def test_aif_peak_is_scale():
    # peak sits at t0 + alpha*beta by construction
    c = gamma_variate_aif(np.array([0.0, 5.0 + 8.0, 40.0]), t0=5.0, alpha=2.0, beta=4.0, scale=3.5)
    assert c[1] == pytest.approx(3.5, rel=1e-12)


def test_aif_integral_matches_quadrature_oracle():
    # frozen value from a fine trapezoid oracle over [0, 60] s
    t = np.linspace(0, 60, 60001)
    c = gamma_variate_aif(t, t0=5.0, alpha=2.0, beta=4.0, scale=1.0)
    assert np.trapezoid(c, t) == pytest.approx(14.776388, abs=1e-3)


def test_aif_rejects_non_monotone_axis():
    with pytest.raises(ValueError):
        gamma_variate_aif(np.array([0.0, 2.0, 1.0]), 0.0, 2.0, 4.0, 1.0)


_AIF_ARGS = {"t_axis": np.arange(8.0), "t0": 1.0, "alpha": 2.0, "beta": 4.0, "scale": 1.0}


@pytest.mark.parametrize("name, value", [
    ("t0", np.nan), ("t0", np.inf), ("alpha", np.nan), ("alpha", True), ("beta", np.inf),
    ("beta", -np.inf), ("scale", np.nan), ("scale", "1"),
    ("t_axis", np.array([0.0, np.nan, 2.0])), ("t_axis", np.array([0.0, 1.0, np.inf])),
], ids=["t0-nan", "t0-inf", "alpha-nan", "alpha-bool", "beta-inf", "beta-minus-inf", "scale-nan", "scale-str",
        "t_axis-nan", "t_axis-inf"])
def test_aif_refuses_non_finite_or_non_real_arguments(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        gamma_variate_aif(**{**_AIF_ARGS, name: value})


def test_synthesize_deterministic():
    spec = PhantomSpec(h=32, w=32, t=8, seed=7)
    a, b = synthesize(spec), synthesize(spec)
    assert np.array_equal(a.ref_images, b.ref_images)
    assert np.array_equal(a.ktrans_map, b.ktrans_map)
    assert np.array_equal(a.aif, b.aif)


def test_background_curve_is_flat():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=1))
    bg = truth.region_labels == 0
    curves = truth.ref_images[:, bg].real
    assert np.abs(curves - curves[0]).max() < 1e-14


def test_pure_plasma_region_tracks_aif():
    spec = PhantomSpec(h=32, w=32, t=8, n_tissue_regions=1,
                       ktrans_range=(0.0, 0.0), vp_range=(1.0, 1.0), seed=2)
    truth = synthesize(spec)
    tissue = truth.region_labels == 2
    curve = truth.ref_images[:, tissue].real[:, 0]
    assert_allclose(curve, truth.aif_signal, rtol=1e-10, atol=1e-14)


def test_images_normalized_and_maps_zero_outside_tissue():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=3))
    assert truth.ref_images.real.min() == pytest.approx(0.0)
    assert truth.ref_images.real.max() == pytest.approx(1.0)
    outside = ~truth.tissue_roi
    assert np.abs(truth.ktrans_map[outside]).max() == 0.0
    assert np.abs(truth.vp_map[outside]).max() == 0.0
    assert np.all(truth.aif >= 0)


def test_corrupt_noiseless_full_mask_roundtrip():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=6))
    mask = make_radial_mask(8, 32, 32, 1.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    assert np.abs(adjoint(d) - truth.ref_images).max() < 1e-12


def test_corrupt_seed_reproducible():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=6))
    mask = make_radial_mask(8, 32, 32, 6.0, seed=1)
    a = corrupt(truth, mask, 0.05, seed=9)
    b = corrupt(truth, mask, 0.05, seed=9)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("sigma", [float("nan"), -0.5, float("inf")])
def test_corrupt_rejects_negative_or_non_finite_noise(sigma):
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=6))
    with pytest.raises(ValueError, match=f"noise_sigma must be >= 0 and finite, got {sigma}"):
        corrupt(truth, make_radial_mask(8, 16, 16, 2.0, seed=0), sigma, seed=0)


def test_corrupt_zero_filled_psnr_regression():
    # pinned pipeline baseline: noiseless 10x undersampling of the seed-7 phantom
    truth = synthesize(PhantomSpec(h=64, w=64, t=16, dt=2.0, seed=7))
    mask = make_radial_mask(16, 64, 64, 10.0, seed=1)
    d = corrupt(truth, mask, 0.0, seed=2)
    assert psnr(adjoint(d), truth.ref_images) == pytest.approx(23.3926, abs=0.1)


def test_patlak_linearity_of_tissue_curves():
    # noiseless tissue curves are exactly Patlak-linear in the AIF regressors
    spec = PhantomSpec(h=32, w=32, t=12, seed=8)
    truth = synthesize(spec)
    from scipy.integrate import cumulative_trapezoid

    t_min = np.arange(spec.t) * spec.dt / 60.0
    int_aif = cumulative_trapezoid(truth.aif_signal, t_min, initial=0.0)
    for lbl in range(2, 2 + spec.n_tissue_regions):
        pix = truth.region_labels == lbl
        curve = truth.ref_images[:, pix].real[:, 0]
        kt = truth.ktrans_map[pix][0]
        vp = truth.vp_map[pix][0]
        assert_allclose(curve, kt * int_aif + vp * truth.aif_signal, atol=1e-12)


@pytest.mark.parametrize("ranges", [{"ktrans_range": (0.6, 0.1)}, {"vp_range": (-0.01, 0.1)}],
                         ids=["max-below-min", "negative"])
def test_spec_refuses_a_parameter_range_that_is_inverted_or_negative(ranges):
    with pytest.raises(ValueError, match="parameter ranges must be non-negative with max >= min"):
        PhantomSpec(h=16, w=16, t=8, **ranges)


@pytest.mark.parametrize("name", ["alpha", "beta", "scale"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_aif_refuses_a_shape_parameter_that_is_not_positive(name, value):
    with pytest.raises(ValueError, match="alpha, beta, scale must be positive"):
        gamma_variate_aif(**{**_AIF_ARGS, name: value})


def test_corrupt_refuses_a_mask_of_another_shape():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=1))
    with pytest.raises(ValueError, match=r"phantom shape \(8, 16, 16\) != mask shape \(8, 16, 32\)"):
        corrupt(truth, make_radial_mask(8, 16, 32, 2.0, seed=0), 0.0, seed=0)


@pytest.mark.parametrize("h, w", [(2, 4), (4, 4), (8, 4), (4, 128)])
def test_spec_refuses_a_side_synthesize_cannot_draw(h, w):
    # at 4x4 a tissue region overflowed the image; at 2x4 every pixel was NaN
    with pytest.raises(ValueError, match="need h, w >= 8"):
        PhantomSpec(h=h, w=w, t=8, n_tissue_regions=1)


SIDES = (8, 16, 32, 64, 128)


def test_every_drawable_spec_has_finite_images_a_ventricle_and_a_tissue_region():
    drawn = 0
    for h in SIDES:
        for w in SIDES:
            for n in range(1, 13):
                spec = PhantomSpec(h=h, w=w, t=8, n_tissue_regions=n)
                try:
                    truth = synthesize(spec)
                except ValueError as exc:
                    assert "would draw no pixel" in str(exc), (h, w, n)
                    continue
                drawn += 1
                assert np.all(np.isfinite(truth.ref_images)), (h, w, n)
                assert np.any(truth.region_labels == 1) and np.any(truth.region_labels == 2), (h, w, n)
                counts = np.bincount(truth.region_labels.ravel(), minlength=n + 2)
                assert np.all(counts[2:n + 2] > 0), (h, w, n)  # every tissue label 2..n+1
    assert drawn > 250


@pytest.mark.parametrize("h, w, regions, label", [(8, 8, 7, 8), (128, 8, 5, 5)])
def test_synthesize_refuses_a_spec_that_would_draw_an_empty_region_label(h, w, regions, label):
    spec = PhantomSpec(h=h, w=w, t=8, n_tissue_regions=regions)
    with pytest.raises(ValueError, match=f"^n_tissue_regions={regions} does not fit {h}x{w}: "
                                         f"region label {label} would draw no pixel$"):
        synthesize(spec)
