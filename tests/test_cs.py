import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ktsecret import cs as cs_module
from ktsecret.cs import SMOOTH_EPS, CsConfig, cs_gradient, cs_objective, cs_reconstruct
from ktsecret.encoding import KtData, adjoint, encode, make_radial_mask
from ktsecret.kinetics import psnr
from ktsecret.numerics import dft2
from ktsecret.phantom import PhantomSpec, corrupt, synthesize
from conftest import crandn


def _random_problem(seed, t=2, n=8, accel=2.0):
    rng = np.random.default_rng(seed)
    mask = make_radial_mask(t, n, n, accel, seed=seed)
    img = crandn(rng, (t, n, n))
    return rng, KtData(samples=dft2(img, "forward") * mask.bits, mask=mask)


def test_objective_closed_form_at_zero():
    mask = make_radial_mask(2, 8, 8, 2.0, seed=0)
    d = KtData(samples=np.zeros((2, 8, 8), dtype=complex), mask=mask)
    cfg = CsConfig(lambda1=1e-3, lambda2=5e-3)
    n = 2 * 8 * 8
    expected = n * (2 * cfg.lambda1 + cfg.lambda2) * np.sqrt(SMOOTH_EPS)
    assert cs_objective(np.zeros((2, 8, 8), dtype=complex), d, cfg) == pytest.approx(expected, rel=1e-12)


def test_objective_zero_at_truth_full_mask():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=1))
    mask = make_radial_mask(8, 32, 32, 1.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg = CsConfig(lambda1=0.0, lambda2=0.0)
    assert cs_objective(truth.ref_images, d, cfg) < 1e-10


def test_objective_matches_duplicate_formula_oracle():
    rng, d = _random_problem(3)
    s = crandn(rng, (2, 8, 8))
    cfg = CsConfig(lambda1=2e-3, lambda2=7e-3)

    # independent straightforward re-implementation
    k = np.fft.fft2(s, norm="ortho") * d.mask.bits
    val = np.sum(np.abs(k - d.samples) ** 2)
    gh = np.roll(s, -1, axis=1) - s
    gw = np.roll(s, -1, axis=2) - s
    gt = np.roll(s, -1, axis=0) - s
    val += cfg.lambda1 * (np.sqrt(np.abs(gh) ** 2 + SMOOTH_EPS).sum()
                          + np.sqrt(np.abs(gw) ** 2 + SMOOTH_EPS).sum())
    val += cfg.lambda2 * np.sqrt(np.abs(gt) ** 2 + SMOOTH_EPS).sum()
    assert cs_objective(s, d, cfg) == pytest.approx(val, rel=1e-12)


def test_gradient_matches_central_differences():
    rng, d = _random_problem(5)
    s = crandn(rng, (2, 8, 8))
    cfg = CsConfig(lambda1=1e-2, lambda2=2e-2)
    g = cs_gradient(s, d, cfg)
    h = 1e-6
    for _ in range(10):
        t, y, x = rng.integers(2), rng.integers(8), rng.integers(8)
        for comp, pick in ((1.0, np.real), (1j, np.imag)):
            e = np.zeros_like(s)
            e[t, y, x] = comp
            fd = (cs_objective(s + h * e, d, cfg) - cs_objective(s - h * e, d, cfg)) / (2 * h)
            assert abs(fd - pick(g[t, y, x])) / max(abs(fd), 1e-12) < 1e-6


@pytest.mark.usefixtures("complex128_cs")
def test_solver_fixed_point_without_regularization():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=2))
    mask = make_radial_mask(8, 32, 32, 1.0, seed=0)
    d = corrupt(truth, mask, 0.0, seed=0)
    cfg = CsConfig(lambda1=0.0, lambda2=0.0, max_iters=20)
    s, log = cs_reconstruct(d, cfg)
    assert_allclose(s, adjoint(d), atol=1e-10)
    assert log.objective[-1] < 1e-10


def test_solver_objective_monotone_at_r6():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=3))
    mask = make_radial_mask(8, 32, 32, 6.0, seed=1)
    d = corrupt(truth, mask, 0.0, seed=0)
    _, log = cs_reconstruct(d, CsConfig(max_iters=30))
    obj = log.objective
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(obj, obj[1:]))
    assert not log.line_search_failed


def test_solver_beats_zero_filled_at_r10():
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=4))
    mask = make_radial_mask(8, 32, 32, 10.0, seed=1)
    d = corrupt(truth, mask, 0.0, seed=0)
    s, _ = cs_reconstruct(d, CsConfig(max_iters=60))
    assert psnr(s, truth.ref_images) > psnr(adjoint(d), truth.ref_images) + 3.0


def _reference_nlcg(d_u, cfg):
    """Plain Fletcher-Reeves NLCG that calls cs_objective for every Armijo trial."""
    s = adjoint(d_u)
    objective, backtracks = [cs_objective(s, d_u, cfg)], []
    g = cs_gradient(s, d_u, cfg)
    d = -g
    gg = np.vdot(g, g).real
    step0 = 1.0
    for _ in range(cfg.max_iters):
        if gg < 1e-30:
            break
        slope = np.vdot(g, d).real
        if slope >= 0:
            d, slope = -g, -gg
        a = step0
        for rejected in range(50):
            f_new = cs_objective(s + a * d, d_u, cfg)
            if f_new <= objective[-1] + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            break
        s = s + a * d
        step0 = min(1.0, a * 2.0)
        objective.append(f_new)
        backtracks.append(rejected)
        if abs(objective[-2] - f_new) <= cfg.tol * max(abs(objective[-2]), 1e-30):
            break
        g_new = cs_gradient(s, d_u, cfg)
        gg_new = np.vdot(g_new, g_new).real
        d = -g_new + (gg_new / gg) * d
        g, gg = g_new, gg_new
    return s, objective, backtracks


def _phantom_problem(accel, seed):
    truth = synthesize(PhantomSpec(h=32, w=32, t=8, seed=seed))
    return corrupt(truth, make_radial_mask(8, 32, 32, accel, seed=1), 0.0, seed=0)


@pytest.mark.usefixtures("complex128_cs")
def test_solver_matches_plain_nlcg_at_r6():
    d = _phantom_problem(6.0, 3)
    cfg = CsConfig()
    s, log = cs_reconstruct(d, cfg)
    s_ref, objective, backtracks = _reference_nlcg(d, cfg)
    assert len(log.objective) == len(objective)
    assert_allclose(log.objective, objective, rtol=1e-10, atol=0)
    assert log.backtracks == backtracks
    assert sum(backtracks) > 0
    assert_allclose(s, s_ref, rtol=0, atol=1e-8 * np.abs(s_ref).max())


def _allocating_images(x, mask, samples):
    """The objective's images in x's dtype, one fresh array per operation (np.roll
    differences); the samples are complex128, so the residual is rounded once."""
    return [(dft2(x, "forward") * mask.bits - samples).astype(x.dtype),
            np.stack([np.roll(x, -1, axis=1) - x, np.roll(x, -1, axis=2) - x]),
            np.roll(x, -1, axis=0) - x]


def _frame_blocks(t):
    """The solver's FRAME_BLOCKS contiguous runs of frames (fewer for fewer frames),
    the first holding t // 2 of them at two blocks."""
    n = min(cs_module.FRAME_BLOCKS, t)
    return [slice(t * k // n, t * (k + 1) // n) for k in range(n)]


def _re_dot(a, b):
    """Re<a, b> as a sum of float64 partial sums over the frame blocks, added in
    block order; each by numpy's einsum loop in float64 over the real views,
    which no BLAS thread count changes."""
    real, total = a.real.dtype, 0.0
    for f in _frame_blocks(len(a)):
        total += float(np.einsum("i,i->", a[f].view(real).ravel(), b[f].view(real).ravel(), dtype=np.float64))
    return total


def _allocating_value(images, cfg):
    """Each term a sum of per-block partial sums in block order; a spatial
    block's is one sum over both difference images' frames of the block."""
    r, gs, gt = images
    ms, mt = (np.sqrt(np.abs(im) ** 2 + SMOOTH_EPS) for im in (gs, gt))
    tv_s = tv_t = 0.0
    for f in _frame_blocks(len(r)):
        tv_s += float(ms[:, f].sum(dtype=np.float64))
        tv_t += float(mt[f].sum(dtype=np.float64))
    return float(_re_dot(r, r) + cfg.lambda1 * tv_s + cfg.lambda2 * tv_t)


def _allocating_gradient(images, cfg):
    r, gs, gt = images
    g = 2.0 * dft2(r, "inverse")
    ws = gs / np.sqrt(np.abs(gs) ** 2 + SMOOTH_EPS)
    g = g + cfg.lambda1 * ((np.roll(ws[0], 1, axis=1) - ws[0]) + (np.roll(ws[1], 1, axis=2) - ws[1]))
    wt = gt / np.sqrt(np.abs(gt) ** 2 + SMOOTH_EPS)
    return g + cfg.lambda2 * (np.roll(wt, 1, axis=0) - wt)


def _allocating_nlcg(d_u, cfg, dtype):
    """The solver's arithmetic in the same order, allocating a new array for
    every operation: x + a*y for each trial, a masked DFT for each direction. The
    images, direction and gradient are in dtype, the iterate s is complex128,
    and every sum is accumulated in float64."""
    s = adjoint(d_u)
    img = _allocating_images(s.astype(dtype), d_u.mask, d_u.samples)
    objective, backtracks = [_allocating_value(img, cfg)], []
    d = gg = None
    step0 = 1.0
    for _ in range(cfg.max_iters):
        g, gg_prev = _allocating_gradient(img, cfg), gg
        gg = _re_dot(g, g)
        if gg < 1e-30:
            break
        d = -g if d is None else -g + (gg / gg_prev) * d
        slope = _re_dot(g, d)
        if slope >= 0:
            d, slope = -g, -gg
        img_d = _allocating_images(d, d_u.mask, 0.0)
        a = step0
        for rejected in range(50):
            f_new = _allocating_value([x + a * y for x, y in zip(img, img_d)], cfg)
            if f_new <= objective[-1] + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            break
        s = s + a * d
        img = [x + a * y for x, y in zip(img, img_d)]
        step0 = min(1.0, a * 2.0)
        objective.append(f_new)
        backtracks.append(rejected)
        if abs(objective[-2] - f_new) <= cfg.tol * max(abs(objective[-2]), 1e-30):
            break
    return s, objective, backtracks


SOLVE_CASES = pytest.mark.parametrize("accel,seed,cfg,stops_on_tol", [
    (10.0, 4, CsConfig(max_iters=100, tol=1e-12), False),
    (6.0, 3, CsConfig(), True),
], ids=["r10-all-iterations", "r6-stops-on-tol"])


def _assert_bit_identical_to_allocating_reference(d, cfg):
    """Solves d both ways in the workspace dtype, the solver on one thread and
    on two; returns the reference's log."""
    s, log = cs_reconstruct(d, cfg)
    s_threaded, log_threaded = cs_reconstruct(d, cfg, threads=2)
    assert s.tobytes() == s_threaded.tobytes() and log == log_threaded
    s_ref, objective, backtracks = _allocating_nlcg(d, cfg, cs_module.WORK_DTYPE)
    assert np.array_equal(s, s_ref)
    assert log.objective == objective
    assert log.backtracks == backtracks
    return objective, backtracks


@SOLVE_CASES
def test_solver_is_bit_identical_to_allocating_reference(accel, seed, cfg, stops_on_tol):
    objective, backtracks = _assert_bit_identical_to_allocating_reference(_phantom_problem(accel, seed), cfg)
    assert sum(backtracks) > 0
    assert (len(objective) <= cfg.max_iters) == stops_on_tol


@pytest.mark.usefixtures("complex128_cs")
@SOLVE_CASES
def test_solver_is_bit_identical_to_allocating_reference_in_complex128(accel, seed, cfg, stops_on_tol):
    test_solver_is_bit_identical_to_allocating_reference(accel, seed, cfg, stops_on_tol)


# two frames (one per block), odd counts (unequal blocks) and four
DRAWN_PROBLEMS = given(seed=st.integers(0, 2 ** 16), accel=st.sampled_from([2.0, 3.0, 6.0]),
                       l1=st.floats(0.0, 1e-2), l2=st.floats(0.0, 1e-2), iters=st.integers(1, 12),
                       t=st.sampled_from([2, 3, 4, 5]))


def _drawn_problem(seed, accel, t):
    ref = synthesize(PhantomSpec(h=16, w=16, t=8, seed=seed)).ref_images[:t]
    return encode(ref, make_radial_mask(t, 16, 16, accel, seed=seed))


@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWN_PROBLEMS
def test_solver_is_bit_identical_to_allocating_reference_on_drawn_problems(seed, accel, l1, l2,
                                                                             iters, t):
    """The accepted trial's images and moduli become the next point's; over
    drawn phantoms, masks and weights that must equal recomputing them."""
    _assert_bit_identical_to_allocating_reference(
        _drawn_problem(seed, accel, t), CsConfig(lambda1=l1, lambda2=l2, max_iters=iters))


@pytest.mark.usefixtures("complex128_cs")
@settings(derandomize=True, deadline=None, max_examples=60)
@DRAWN_PROBLEMS
def test_solver_is_bit_identical_to_allocating_reference_on_drawn_problems_in_complex128(
        seed, accel, l1, l2, iters, t):
    _assert_bit_identical_to_allocating_reference(
        _drawn_problem(seed, accel, t), CsConfig(lambda1=l1, lambda2=l2, max_iters=iters))


def test_frame_blocks_split_at_half_and_shrink_to_the_frame_count():
    assert cs_module.FRAME_BLOCKS == 2
    assert cs_module._blocks(16) == [slice(0, 8), slice(8, 16)]
    assert cs_module._blocks(5) == [slice(0, 2), slice(2, 5)]
    assert cs_module._blocks(1) == [slice(0, 1)]


@pytest.mark.parametrize("threads", [True, 0, -1, 2.0])
def test_solver_refuses_a_thread_count_that_is_not_a_positive_integer(threads):
    _, d = _random_problem(7)
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        cs_reconstruct(d, CsConfig(max_iters=2), threads=threads)


def test_solver_clamps_its_threads_to_the_frame_blocks_before_starting_any(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            # refuse, rather than start, a helper past the blocks' count
            assert len(started) < cs_module.FRAME_BLOCKS, "a helper thread per further block at most"
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    d, cfg = _phantom_problem(6.0, 3), CsConfig(max_iters=5)
    s, log = cs_reconstruct(d, cfg, threads=10 ** 6)
    assert len(started) == cs_module.FRAME_BLOCKS - 1
    s_one, log_one = cs_reconstruct(d, cfg)
    assert s.tobytes() == s_one.tobytes() and log == log_one


@pytest.mark.parametrize("failing_block", [0, 1])
def test_an_exception_in_one_block_surfaces_as_itself_and_leaves_no_thread(monkeypatch, failing_block):
    """Block 0 is the calling thread's, block 1 the helper's; the other thread
    is waiting at a barrier or about to, and must not be left there. The start
    transforms the whole volume on the caller's thread alone; a block's DFT
    fails."""
    d, error = _phantom_problem(6.0, 3), ZeroDivisionError(f"a DFT of block {failing_block}")
    caller, raised = [], []

    def failing_dft2(x, direction, **kwargs):
        if len(x) < len(d.samples) and (threading.get_ident() == caller[0]) == (failing_block == 0):
            raise error
        return dft2(x, direction, **kwargs)

    def solve():
        caller.append(threading.get_ident())
        try:
            cs_reconstruct(d, CsConfig(max_iters=5), threads=2)
        except BaseException as exc:  # handed to the test's thread
            raised.append(exc)

    monkeypatch.setattr(cs_module, "dft2", failing_dft2)
    before = set(threading.enumerate())
    runner = threading.Thread(target=solve, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the solve hangs"
    assert len(raised) == 1 and raised[0] is error
    assert set(threading.enumerate()) <= before


def _cores_held(spare):
    """How many cores the semaphore holds; takes them all."""
    n = 0
    while spare.acquire(blocking=False):
        n += 1
    return n


@pytest.mark.parametrize("spare_cores, frees_at_dft, helpers", [
    (0, None, 0),  # no spare core: the solve runs alone
    (3, None, 1),  # more than its blocks take
    (0, 0, 1),  # one frees during the start, taken by the first iteration
    (0, 7, 1),  # one frees in the fourth iteration, taken by the fifth
])
def test_solver_takes_spare_cores_while_alone_and_gives_them_back(monkeypatch, spare_cores, frees_at_dft,
                                                                  helpers):
    """Given a semaphore of spare cores, the solve starts a helper at the top of
    an iteration once it can acquire one, at most one per further block; the
    image and the log are those of a one-thread solve, and every core it took
    is back when it returns."""
    d, cfg = _phantom_problem(6.0, 3), CsConfig(max_iters=10)
    s_one, log_one = cs_reconstruct(d, cfg)
    spare, started, dfts = threading.Semaphore(spare_cores), [], []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def freeing_dft2(x, direction, **kwargs):
        if len(dfts) == frees_at_dft:
            spare.release()
        dfts.append(threading.get_ident())
        return dft2(x, direction, **kwargs)

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(cs_module, "dft2", freeing_dft2)
    s, log = cs_reconstruct(d, cfg, threads=spare)
    assert len(started) == helpers
    assert s.tobytes() == s_one.tobytes() and log == log_one
    assert _cores_held(spare) == spare_cores + (frees_at_dft is not None)
    if frees_at_dft == 7:  # the start's DFT and two per iteration, on the caller's thread alone
        assert len(set(dfts[:9])) == 1 and len(set(dfts[9:])) == 2


EPS32 = np.finfo(np.float32).eps


@SOLVE_CASES
def test_complex64_solve_stays_within_float32_rounding_of_the_complex128_solve(monkeypatch, accel, seed,
                                                                              cfg, stops_on_tol):
    d = _phantom_problem(accel, seed)
    s, log = cs_reconstruct(d, cfg)
    monkeypatch.setattr(cs_module, "WORK_DTYPE", np.complex128)
    s_ref, log_ref = cs_reconstruct(d, cfg)
    assert log.backtracks == log_ref.backtracks
    # measured 1.2e-6 (r10) and 5.2e-7 (r6): 10.2 and 4.3 float32 epsilons
    assert 0 < np.linalg.norm(s - s_ref) < 16 * EPS32 * np.linalg.norm(s_ref)
    # the logged objective follows the point's images, not s: measured 6.6e-8 and 4.1e-9
    f = cs_objective(s, d, cfg)
    assert abs(log.objective[-1] - f) < 4 * EPS32 * f


def test_dtype_contract_complex64_workspace_complex128_iterate_and_float_log(monkeypatch):
    d = _phantom_problem(6.0, 3)
    empty, fresh = np.empty, []

    def recording_empty(*args, **kwargs):
        fresh.append(empty(*args, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(np, "empty", recording_empty)
    s, log = cs_reconstruct(d, CsConfig(max_iters=10))
    assert s.dtype == np.complex128 and any(b is s for b in fresh)
    shape = d.mask.shape  # the direction, the point's, direction's and trial's images, the moduli
    assert sorted((b.dtype.name, b.shape) for b in fresh if b is not s) == sorted(
        [("complex64", shape)] + 3 * [("complex64", (4, *shape))] + [("float32", (3, *shape))])
    assert len(log.objective) == 11 and all(type(f) is float for f in log.objective)
    assert all(type(b) is int for b in log.backtracks)


def test_stalled_complex64_solve_returns_the_complex128_start():
    d = _phantom_problem(4.0, 1)
    cfg = CsConfig(lambda1=1e14, max_iters=10)
    s, log = cs_reconstruct(d, cfg)
    assert log.line_search_failed and log.backtracks == []
    assert s.dtype == np.complex128 and np.array_equal(s, adjoint(d))
    f = cs_objective(s, d, cfg)
    assert abs(log.objective[0] - f) < 4 * EPS32 * f


@pytest.mark.parametrize("scale", [1e30, 1e200])
def test_solver_refuses_samples_past_the_float32_range_before_the_first_iteration(monkeypatch, scale):
    """At 1e30 the samples fit float32 but their squares do not; at 1e200 the
    cast of the start overflows. Both happen inside the solver's errstate."""
    _, d = _random_problem(7)
    huge = KtData(samples=scale * d.samples, mask=d.mask)
    if scale == 1e30:  # finite in float64
        assert np.isfinite(cs_objective(adjoint(huge), huge, CsConfig()))

    def no_gradient(*args):
        raise AssertionError("an iteration started")

    monkeypatch.setattr(cs_module, "_gradient", no_gradient)
    for threads in (1, 2):  # each thread enters the solve's errstate, which is thread-local
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="starting objective"):
                cs_reconstruct(huge, CsConfig(max_iters=3), threads=threads)


def _solve_peak_bytes(d, iters):
    """tracemalloc peak of one solve that runs all iters iterations."""
    tracemalloc.start()
    try:
        _, log = cs_reconstruct(d, CsConfig(max_iters=iters, tol=1e-12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.objective) == iters + 1
    return peak


def test_solver_workspace_does_not_grow_with_iterations():
    d = _phantom_problem(10.0, 4)
    one_image = np.empty(d.mask.shape, np.complex128).nbytes
    assert _solve_peak_bytes(d, 60) - _solve_peak_bytes(d, 3) < one_image


def test_solver_transforms_into_its_workspace(monkeypatch):
    """Every DFT of a solve writes into a slice of one of the workspace's
    [4,T,H,W] image arrays; a tracemalloc peak cannot tell this apart from a
    fresh output per call, which the entry's adjoint outweighs."""
    d = _phantom_problem(10.0, 4)
    outs = []

    def recording_dft2(x, direction, **kwargs):
        outs.append(kwargs.get("out"))
        return dft2(x, direction, **kwargs)

    monkeypatch.setattr(cs_module, "dft2", recording_dft2)
    _, log = cs_reconstruct(d, CsConfig(max_iters=20, tol=1e-12))
    assert len(outs) == 1 + 2 * len(log.backtracks)
    assert all(out is not None and out.base is not None and out.base.shape == (4, *d.mask.shape)
               for out in outs)
    assert len({id(out.base) for out in outs}) <= 3


@pytest.mark.usefixtures("complex128_cs")
def test_solver_refuses_non_finite_start():
    _, d = _random_problem(7)
    huge = KtData(samples=1e200 * d.samples, mask=d.mask)
    with pytest.raises(FloatingPointError, match="starting objective"):
        cs_reconstruct(huge, CsConfig(max_iters=3))


@pytest.mark.usefixtures("complex128_cs")
def test_solver_logged_objective_does_not_drift_at_r10():
    d = _phantom_problem(10.0, 4)
    cfg = CsConfig(max_iters=100, tol=1e-12)
    s, log = cs_reconstruct(d, cfg)
    assert len(log.objective) == cfg.max_iters + 1
    assert log.objective[-1] == pytest.approx(cs_objective(s, d, cfg), rel=1e-10)


def test_solver_logs_backtracks_per_accepted_step():
    _, log = cs_reconstruct(_phantom_problem(6.0, 3), CsConfig(max_iters=30))
    assert len(log.backtracks) == len(log.objective) - 1
    assert all(isinstance(b, int) and 0 <= b < 50 for b in log.backtracks)


@pytest.mark.parametrize("l1,l2", [(0.0, 0.0), (1e-3, 5e-3), (1.0, 1.0)])
def test_solver_output_finite_for_any_lambda(l1, l2):
    _, d = _random_problem(7)
    s, _ = cs_reconstruct(d, CsConfig(lambda1=l1, lambda2=l2, max_iters=15))
    assert np.all(np.isfinite(s.view(np.float64)))


def test_config_rejects_negative_weights():
    with pytest.raises(ValueError):
        CsConfig(lambda1=-1.0)


@pytest.mark.usefixtures("complex128_cs")
def test_stalled_line_search_returns_the_last_accepted_iterate():
    # on the piecewise-constant phantom most differences are 0, where the smoothed
    # modulus curves by lambda1 / sqrt(SMOOTH_EPS): at this lambda1 even the 50th
    # halving of the first step overshoots, so no trial is accepted
    d = _phantom_problem(4.0, 1)
    cfg = CsConfig(lambda1=1e14, max_iters=10)
    s, log = cs_reconstruct(d, cfg)
    assert log.line_search_failed
    assert log.backtracks == [] and len(log.objective) == 1
    assert np.array_equal(s, adjoint(d))  # the start is the last accepted iterate
    assert log.objective[0] == pytest.approx(cs_objective(s, d, cfg), rel=1e-12)
