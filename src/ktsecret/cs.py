"""Compressed-sensing baseline: data fidelity + smoothed spatial/temporal TV.

Solved by nonlinear conjugate gradient (Fletcher-Reeves) with Armijo
backtracking on the smoothed objective

    ||d_u - E s||^2 + l1 * sum sqrt(|grad_s s|^2 + eps)
                    + l2 * sum sqrt(|grad_t s|^2 + eps)

where the square root is applied per difference component of the complex
modulus and eps is the module constant SMOOTH_EPS.

The objective sees s only through four affine images, held in one complex
[4,T,H,W] array: E s - d_u, grad_s s (two slices) and grad_t s. Its value and
gradient are computed from them. E, grad_s and grad_t are linear, so the images
of a trial point s + a d are img(s) + a img(d) (the line search of Lustig,
Donoho & Pauly's SparseMRI): an iteration encodes its search direction once
(one forward DFT), scores every Armijo trial by one elementwise expression and
takes the next gradient from the accepted trial's images (one inverse DFT),
however many backtracks it needs. The ConvergenceLog records the objective
after every accepted step and the backtracks it took.

cs_reconstruct allocates its workspace at entry: the direction d, the images
of the point, of the direction and of the trial (the trial's residual slice
doubles as the gradient, its TV slices as the TV weights), and the smoothed
moduli of the three TV slices, one real [3,T,H,W] array. The search stops at
the first accepted trial, so the last trial scored is the new point: its
images rotate in by swapping references with the point's, the moduli already
are its own, and only the iterate s is updated, s += a d. The direction's
images serve as the next gradient's scratch. Every step writes with ufunc out=
or in place, in the same order as the plain expressions, so nothing is
allocated per iteration: each DFT writes through dft2's out= into a slice of
the images it belongs to, and the gradient's TV weights multiply by the
moduli's reciprocals, formed in the moduli array.

Frame blocks. The frames are split into FRAME_BLOCKS fixed contiguous blocks
(min(FRAME_BLOCKS, T) of them; the first holds T // 2 frames at two). Every
sum the solve takes is a float64 partial sum over one block: the data term
re_dot(r, r), the moduli sums of grad_s's two slices (one sum over both) and
of grad_t's, ||g||^2 and the Armijo slope re_dot(g, d). A scalar is its
blocks' partial sums added left to right in block order, so the objective is
data + l1 tv_s + l2 tv_t; cs_objective takes the same sums.

Threads. cs_reconstruct's threads are the threads it runs on, at most one
per block: an integer, or a threading.Semaphore of spare cores (the pipeline
passes its sweep's). The start (its cast, images, moduli and objective) runs
on the caller's thread alone. Helper threads join at the top of an iteration,
and only while the solve runs alone: for an integer, threads - 1 of them at
the first; from a semaphore, one per core it acquires without waiting, at the
first iteration that finds one. They start from that iteration's state (its
index, ||g||^2, the objective, the first step, and which images buffer holds
the point's), and the blocks are split again, each thread owning a contiguous
run of them. Every thread runs the same control flow: both DFTs, the mask,
the spatial differences, and the trial, moduli and update passes are each one
call over its own frames, and the partial sums of its blocks go into a shared
list. The threads meet only at barriers, about five per iteration:
- after each reduction (||g||^2, the slope, each Armijo trial's value), every
  thread adds all the blocks' sums in block order, so every thread takes the
  same branch. Two lists of sums are used in turn, so one is rewritten only
  after the barrier that follows its reading;
- grad_t and its adjoint read one edge frame of the neighbouring block, so
  they run after a barrier: the direction's grad_t after the slope's (a
  restart on steepest descent adds one), the adjoint after one that follows
  the TV weights.
The blocks do not depend on the threads, and the elementwise passes and
per-frame DFTs give the same bits however the frames are split, so neither
the image nor the log depends on how many threads join, or when. Each helper
enters the caller's np.errstate (thread-local in numpy 2). An exception in
one thread aborts the barrier, so the others stop at their next one; the
helpers are joined and the cores given back before cs_reconstruct returns,
and the first exception that is not the barrier's own surfaces as itself.

Precision is mixed, set by the module constant WORK_DTYPE (complex64). In
WORK_DTYPE run the workspace: the images of the point, of the direction and of
the trial, the direction, the gradient and its scratch, and so both DFTs of an
iteration; the smoothed moduli are its real counterpart (float32). In double
precision stay:
- the iterate s, complex128, updated by s += a d: the start, and a stalled
  solve's result, is exactly adjoint(d_u), and the returned image needs no
  final copy;
- every reduction: the block sums above, by numerics.re_dot and
  sum(dtype=float64), the same at any BLAS thread count;
- the step sizes and the ConvergenceLog, whose entries are Python floats;
- cs_objective and cs_gradient, which validate s, allocate their own
  complex128 buffers, and are the oracles the solver is tested against.
The start is cast into the workspace inside the solve's errstate: samples
finite in float64 whose values or squares pass the float32 range give a
starting objective that is not finite, which raises before the first
iteration, and no RuntimeWarning escapes. The logged objective is
that of the point's images, which move by img + a img_d rather than being
encoded from s again, so it follows cs_objective(s) to float32 rounding.
WORK_DTYPE = complex128 runs the whole solve in double precision.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .encoding import KtData, adjoint, check_image_shape
from .numerics import (
    as_complex_tensor,
    check_fields,
    dft2,
    grad_spatial,
    grad_spatial_adjoint,
    grad_temporal,
    grad_temporal_adjoint,
    is_int,
    re_dot,
)

__all__ = ["SMOOTH_EPS", "CsConfig", "ConvergenceLog", "cs_objective", "cs_gradient",
           "cs_reconstruct"]

SMOOTH_EPS = 1e-6
WORK_DTYPE = np.complex64  # the workspace's dtype; see the module docstring
FRAME_BLOCKS = 2  # the fixed frame blocks every sum is split into; see the module docstring


@dataclass(frozen=True)
class CsConfig:
    lambda1: float = 1e-3
    lambda2: float = 5e-3
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        check_fields(self)
        if self.lambda1 < 0 or self.lambda2 < 0 or self.tol <= 0 or self.max_iters < 1:
            raise ValueError("lambda1 and lambda2 must be >= 0, tol positive and max_iters >= 1")


@dataclass
class ConvergenceLog:
    objective: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # rejected trials per accepted step
    line_search_failed: bool = False


def _blocks(t: int) -> list:
    """The min(FRAME_BLOCKS, t) contiguous frame blocks of t frames, as slices."""
    n = min(FRAME_BLOCKS, t)
    return [slice(t * k // n, t * (k + 1) // n) for k in range(n)]


def _in_block_order(values) -> float:
    """The sum of per-block values, added left to right."""
    total = 0.0
    for value in values:
        total += value
    return total


def _alone() -> None:
    """A one-thread solve's barrier: there is no one to wait for."""


def _images(x: np.ndarray, mask, samples, out: np.ndarray, f: slice) -> np.ndarray:
    """Writes frames f of the objective's affine images of x into the complex
    [4,T,H,W] out and returns it: E x - samples, then grad_s x (2), then
    grad_t x, which reads the frame after f of x; samples None stands for zero."""
    residual = out[0, f]
    dft2(x[f], "forward", out=residual)
    np.multiply(residual, mask.bits[f], out=residual)
    if samples is not None:
        np.subtract(residual, samples[f], out=residual)
    grad_spatial(x[f], out=out[1:3, f])
    grad_temporal(x, out=out[3], frames=f)
    return out


def _moduli(images: np.ndarray, w: np.ndarray, f: slice) -> None:
    """sqrt(|im|^2 + SMOOTH_EPS) of frames f of the three TV images, written
    into the same frames of the real [3,T,H,W] w."""
    w = w[:, f]
    np.abs(images[1:, f], out=w)
    np.square(w, out=w)
    np.add(w, SMOOTH_EPS, out=w)
    np.sqrt(w, out=w)


def _block_sums(images: np.ndarray, w: np.ndarray, b: slice) -> tuple:
    """The objective's float64 partial sums over block b, from its images and
    their smoothed moduli w: the data term, then the moduli sums of grad_s's
    two slices and of grad_t's."""
    return (re_dot(images[0, b], images[0, b]), float(w[:2, b].sum(dtype=np.float64)),
            float(w[2, b].sum(dtype=np.float64)))


def _value(block_sums: list, cfg: CsConfig) -> float:
    """The objective from its blocks' partial sums, each added in block order."""
    data, tv_s, tv_t = (_in_block_order(column) for column in zip(*block_sums))
    return data + cfg.lambda1 * tv_s + cfg.lambda2 * tv_t


def _weights(images: np.ndarray, w: np.ndarray, out: np.ndarray, f: slice) -> None:
    """Frames f of the TV weights images[1:] / w, formed as images[1:] * (1 / w),
    which numpy's complex-by-real division also computes, up to the sign of an
    exact zero, into the complex [3,T,H,W] out. w is overwritten by its
    reciprocal there: nothing reads the moduli again before the next trial
    rewrites them."""
    np.multiply(images[1:, f], np.divide(1.0, w[:, f], out=w[:, f]), out=out[:, f])


def _gradient(images: np.ndarray, weights: np.ndarray, cfg: CsConfig, g: np.ndarray,
              tv: np.ndarray, work: np.ndarray, f: slice) -> np.ndarray:
    """Frames f of the gradient w.r.t. the real/imag parts of s, packed complex,
    from s's images and TV weights, written into g, which is returned; grad_t's
    adjoint reads the frame before f of the weights. tv and work ([T,H,W]) are
    complex scratch."""
    gf, tvf = g[f], tv[f]
    # E^H r; the residual already lives on the sampled set
    dft2(images[0, f], "inverse", out=gf)
    np.multiply(2.0, gf, out=gf)
    np.multiply(cfg.lambda1, grad_spatial_adjoint(weights[:2, f], out=tvf, work=work[f]), out=tvf)
    np.add(gf, tvf, out=gf)
    np.multiply(cfg.lambda2, grad_temporal_adjoint(weights[2], out=tv, frames=f)[f], out=tvf)
    np.add(gf, tvf, out=gf)
    return g


def _point_images(s: np.ndarray, d_u: KtData) -> tuple:
    """s's images and smoothed moduli, in fresh double-precision arrays."""
    s = as_complex_tensor(s)
    check_image_shape(s, d_u.mask)
    whole = slice(0, len(s))
    images = _images(s, d_u.mask, d_u.samples, np.empty((4, *s.shape), np.complex128), whole)
    w = np.empty((3, *s.shape))
    _moduli(images, w, whole)
    return images, w


def cs_objective(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> float:
    images, w = _point_images(s, d_u)
    return _value([_block_sums(images, w, b) for b in _blocks(w.shape[1])], cfg)


def cs_gradient(s: np.ndarray, d_u: KtData, cfg: CsConfig) -> np.ndarray:
    """Gradient of cs_objective w.r.t. the real/imag parts of s, packed complex."""
    images, w = _point_images(s, d_u)
    shape, whole = w.shape[1:], slice(0, w.shape[1])
    weights = np.empty((3, *shape), np.complex128)
    _weights(images, w, weights, whole)
    return _gradient(images, weights, cfg, np.empty(shape, np.complex128), np.empty(shape, np.complex128),
                     np.empty(shape, np.complex128), whole)


def cs_reconstruct(d_u: KtData, cfg: CsConfig | None = None, threads: int | threading.Semaphore = 1):
    """Nonlinear CG (Fletcher-Reeves) from the zero-filled start.

    threads is the threads it runs on, at most one per frame block: an
    integer >= 1, or a threading.Semaphore of spare cores, of which it takes
    what it can get while it runs alone and gives each back when it returns;
    anything else raises ValueError. See the module docstring.

    Returns (reconstruction, ConvergenceLog), the reconstruction complex128
    whatever WORK_DTYPE is; neither depends on the threads. The logged
    objective sequence is non-increasing; if the Armijo search fails 50
    backtracks in a row the current iterate is returned with the warning flag
    set. A starting objective that is not finite raises FloatingPointError.
    d_u was validated when the KtData was built; the search directions are
    encoded straight into the workspace, so nothing is re-validated per
    iteration.
    """
    if isinstance(threads, threading.Semaphore):
        spare, wanted = threads, 0
    elif is_int(threads) and threads >= 1:
        spare, wanted = None, threads - 1
    else:
        raise ValueError(f"threads must be an integer >= 1 or a threading.Semaphore, got {threads!r}")
    solve = _Solve(d_u, cfg or CsConfig(), spare, wanted)
    try:
        solve.run(0)
    finally:
        for helper in solve.helpers:
            if helper.ident is not None:
                helper.join()
        for _ in range(solve.taken):
            spare.release()
    if solve.errors:
        raise next((e for e in solve.errors if not isinstance(e, threading.BrokenBarrierError)), solve.errors[0])
    return solve.s, solve.log


class _Solve:
    """One cs_reconstruct: the workspace its threads share, and the control
    flow each runs over its own run of blocks (see the module docstring)."""

    def __init__(self, d_u: KtData, cfg: CsConfig, spare, wanted: int):
        self.d_u, self.cfg, self.spare, self.wanted = d_u, cfg, spare, wanted
        self.s = adjoint(d_u)  # the iterate, complex128, updated in place and returned
        # the workspace, in WORK_DTYPE: every step below writes into these buffers
        shape = self.s.shape
        self.d = np.empty(shape, WORK_DTYPE)
        # the point's, the direction's and the trial's images
        self.images = [np.empty((4, *shape), WORK_DTYPE) for _ in range(3)]
        self.moduli = np.empty((3, *shape), np.finfo(WORK_DTYPE).dtype)
        self.blocks = _blocks(shape[0])
        self.sums = [[None] * len(self.blocks) for _ in range(2)]  # two lists, used in turn
        self.threads, self.barrier, self.helpers, self.taken = 1, None, [], 0
        self.errstate = np.geterr()
        self.log = ConvergenceLog()
        self.errors = []

    def run(self, j: int, *state) -> None:
        """Thread j's share of the solve from an iteration's state, the caller's
        (j = 0) from the start; an exception is kept for the caller, and the
        barrier aborted so that no other thread waits for this one."""
        try:
            with np.errstate(**self.errstate):
                self._iterate(j, *(state or self._start()))
        except BaseException as exc:
            self.errors.append(exc)
            if self.barrier is not None:
                self.barrier.abort()

    def _start(self) -> tuple:
        """The start's images, moduli and objective, on the caller's thread
        alone; returns the state of the first iteration."""
        img, whole = self.images[0], slice(0, len(self.s))
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            np.copyto(self.d, self.s)  # the start in WORK_DTYPE, the direction's buffer as scratch
            _images(self.d, self.d_u.mask, self.d_u.samples, img, whole)
            _moduli(img, self.moduli, whole)
            obj = _value([_block_sums(img, self.moduli, b) for b in self.blocks], self.cfg)
        if not np.isfinite(obj):
            raise FloatingPointError(f"the starting objective is {obj}: the samples are too large")
        self.log.objective.append(obj)
        return 0, None, obj, 1.0, img, self.images[2]

    def _share(self, j: int) -> tuple:
        """Thread j's barrier, blocks and frames at the current thread count."""
        n, k = len(self.blocks), self.threads
        own = range(n * j // k, n * (j + 1) // k)
        frames = slice(self.blocks[own.start].start, self.blocks[own.stop - 1].stop)
        return (self.barrier.wait if k > 1 else _alone), own, frames

    def _take_helpers(self, *state) -> bool:
        """While the solve runs alone, at the top of an iteration: starts its
        helpers from that iteration's state, at most one thread per block; the
        wanted ones once, for an integer thread count, else one per spare core
        it acquires without waiting. Whether it started any."""
        n = min(self.wanted, len(self.blocks) - 1)
        self.wanted = 0
        while self.spare is not None and n < len(self.blocks) - 1 and self.spare.acquire(blocking=False):
            n += 1
            self.taken += 1
        if n == 0:
            return False
        self.threads, self.barrier = 1 + n, threading.Barrier(1 + n)
        for j in range(1, 1 + n):
            self.helpers.append(threading.Thread(target=self.run, args=(j, *state), name=f"cs_reconstruct-{j}"))
            self.helpers[-1].start()
        return True

    def _iterate(self, j: int, it: int, gg, obj: float, step0: float, img: np.ndarray, trial: np.ndarray) -> None:
        cfg, mask, s, d, w, img_d = self.cfg, self.d_u.mask, self.s, self.d, self.moduli, self.images[1]
        log = self.log if j == 0 else ConvergenceLog()  # a helper's is dropped
        sync, own, f = self._share(j)
        slot = 0

        def reduced(block_sum) -> list:
            """block_sum(b) of every block b in block order, once each thread
            has stored those of its own blocks."""
            nonlocal slot
            sums = self.sums[slot]
            for k in own:
                sums[k] = block_sum(self.blocks[k])
            sync()
            slot ^= 1
            return list(sums)

        for it in range(it, cfg.max_iters):
            if j == 0 and self.threads == 1 and self._take_helpers(it, gg, obj, step0, img, trial):
                (sync, own, f), slot = self._share(0), 0
            # moduli holds the point's; the trial's and direction's images are scratch
            g = trial[0]
            _weights(img, w, trial[1:], f)
            sync()  # grad_t's adjoint reads the previous block's last frame
            _gradient(img, trial[1:], cfg, g, img_d[0], img_d[1], f)
            gg_prev, gg = gg, _in_block_order(reduced(lambda b: re_dot(g[b], g[b])))
            if gg < 1e-30:
                break
            # Fletcher-Reeves direction -g + (gg / gg_prev) d; the first one is steepest descent
            if it == 0:
                np.negative(g[f], out=d[f])
            else:
                np.subtract(np.multiply(gg / gg_prev, d[f], out=d[f]), g[f], out=d[f])
            # Armijo backtracking: f(s + a d) <= f + c a Re<g, d>; the slope's barrier
            # also lets grad_t read the next block's first frame of d
            slope = _in_block_order(reduced(lambda b: re_dot(g[b], d[b])))
            if slope >= 0:  # not a descent direction; restart on steepest descent
                np.negative(g[f], out=d[f])
                slope = -gg
                sync()  # grad_t reads the next block's first frame of d
            _images(d, mask, None, img_d, f)
            a = step0
            for rejected in range(50):
                np.add(img[:, f], np.multiply(a, img_d[:, f], out=trial[:, f]), out=trial[:, f])
                _moduli(trial, w, f)
                obj_new = _value(reduced(lambda b: _block_sums(trial, w, b)), cfg)
                if obj_new <= obj + 1e-4 * a * slope:
                    break
                a *= 0.5
            else:
                log.line_search_failed = True
                break
            # the last trial scored is the new point: its images rotate in and
            # moduli already holds its moduli
            img, trial = trial, img
            np.add(s[f], np.multiply(a, d[f], out=img_d[0, f]), out=s[f])
            log.backtracks.append(rejected)
            step0 = min(1.0, a * 2.0)
            obj_prev, obj = obj, obj_new
            log.objective.append(obj)
            if abs(obj_prev - obj) <= cfg.tol * max(abs(obj_prev), 1e-30):
                break
