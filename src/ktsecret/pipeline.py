"""The end-to-end pipeline: a run config in; a phantom, one directory of files per
acceleration and metrics.csv out. Also the config checks the subcommands share.

No pipeline reconstruction reads the phantom's reference images: SECRET trains on the
measurement alone, and the supervised MoDL only reads a weight file.

Cores. KTSECRET_THREADS caps the worker threads of the pipeline's acceleration sweep
(default: cpu_count). While that pool runs, OpenBLAS gets at most cpu_count // workers
threads (at least 1), so pool and BLAS threads together do not oversubscribe the
cores; a user-set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS wins, and the previous count
is restored when the sweep ends. The cores no busy worker holds are spare: cpu_count -
workers at the start (none if negative), then one more each time a job ends with no
job left for its worker and no more workers busy than cores. A CS solve takes one
spare core for its one helper thread (cs_reconstruct's spare is the sweep's semaphore)
at the top of an iteration while it runs alone, and gives it back when it returns.
So a freed core starts the next job at once, and once no job is left it joins a
running solve. recon-cs offers its solve cpu_count - 1 spare cores, so it solves on
two threads given two cores or more, else on one. No output depends on these counts.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import cs as cs_mod
from . import kinetics
from .container import load_params, save_mask, save_phantom, save_tensor, write_csv, write_pgm
from .encoding import KtData, adjoint, make_radial_mask, radial_budget
from .net import NetConfig
from .numerics import is_int, is_real
from .phantom import PhantomSpec, PhantomTruth, corrupt, synthesize
from .recon import ModlConfig, SecretConfig, modl_forward, secret_infer, secret_train

logger = logging.getLogger(__name__)

RUN_KEYS = ("seed", "phantom", "mask", "method", "output_dir", "method_params")  # the last is optional
METRICS_HEADER = ["method", "accel", "phantom_id", "frame", "psnr", "ssim", "nrmse"]

# Accepted pipeline method_params keys, per method: key -> config field (None: a
# pretrained weight file, read instead of training). Defaults live in the config dataclass.
TRAINING = {"epochs": "epochs", "lr": "lr"}
METHOD_PARAMS = {
    "zf": (None, {}),
    "cs": (cs_mod.CsConfig, {"l1": "lambda1", "l2": "lambda2", "iters": "max_iters", "tol": "tol"}),
    "secret": (SecretConfig, {**TRAINING, "weights": None}),
    "modl": (ModlConfig, {"K": "K", "lambda": "lam", "weights": None}),  # weights required
}
# The pipeline's SECRET trains on the measurement it reconstructs, from the run seed, for fewer
# epochs than the library's. Its MoDL reads weights: trained here, it would learn the reference.
SECRET_PIPELINE_EPOCHS = 30


class ConfigError(ValueError):
    """A malformed run config or environment setting."""


@dataclass(frozen=True)
class AccelRecord:
    """What one acceleration of a run reports; its images are in its files, not here."""
    accel: float
    report: kinetics.MetricsReport
    cs_log: cs_mod.ConvergenceLog | None = None


def write_metrics(path, method: str, phantom_id: str, records, append: bool = False) -> None:
    """METRICS_HEADER rows of each record: one per frame, then the mean."""
    rows = []
    for rec in records:
        r = rec.report
        for frame, values in [*enumerate(zip(r.psnr_frames, r.ssim_frames, r.nrmse_frames)),
                              ("mean", (r.psnr, r.ssim, r.nrmse))]:
            rows.append([method, rec.accel, phantom_id, frame, *values])
    write_csv(path, METRICS_HEADER, rows, append=append)


def write_convergence(path, log) -> None:
    """Writes a CS ConvergenceLog as CSV; a stalled line search is also logged
    as a warning that names the file."""
    # backtracks[i] is the number of rejected trials on the step to iterate i + 1
    write_csv(path, ["iteration", "objective", "backtracks"],
              zip(range(len(log.objective)), log.objective, ["", *log.backtracks]))
    if log.line_search_failed:
        logger.warning("CS line search stalled (%s): returned the last accepted iterate", path)


def worker_count() -> int:
    cap = os.environ.get("KTSECRET_THREADS")
    if not cap:
        return max(1, os.cpu_count() or 1)
    try:
        n = int(cap)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"KTSECRET_THREADS must be an integer >= 1, got {cap!r}")
    return n


@contextmanager
def _blas_threads_per_worker(workers: int):
    """Caps OpenBLAS at cpu_count // workers threads (at least 1) for the
    duration, then restores the previous count. A no-op when the user set
    OPENBLAS_NUM_THREADS/OMP_NUM_THREADS or numpy's BLAS is not the
    scipy-openblas its wheels bundle."""
    if any(os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        yield
        return
    import ctypes
    from numpy.linalg import _umath_linalg  # linked against numpy's BLAS

    lib = ctypes.CDLL(_umath_linalg.__file__)
    get_n = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_n = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_n is None or set_n is None:
        yield
        return
    get_n.argtypes, get_n.restype = [], ctypes.c_int
    set_n.argtypes, set_n.restype = [ctypes.c_int], None
    before = get_n()
    set_n(max(1, min(before, (os.cpu_count() or 1) // workers)))
    try:
        yield
    finally:
        set_n(before)


def _check(ok, where: str, value) -> None:
    if not ok:
        raise ConfigError(f"{where}: invalid value {value!r}")


def _check_keys(obj, where: str, allowed, required=()) -> None:
    _check(isinstance(obj, dict), where, obj)
    unknown = [key for key in obj if key not in allowed]
    missing = [key for key in required if key not in obj]
    if unknown or missing:
        raise ConfigError(f"{where}: unknown keys {unknown}, missing keys {missing}")


def _build(cls, values, where: str, names=None, **fixed):
    """cls(**fixed, **values), keys renamed to fields by names (default: the field
    names) and lists made tuples; cls checks them, its ValueError a ConfigError."""
    names = names or {f.name: f.name for f in fields(cls)}
    _check_keys(values, where, names)
    for key, value in values.items():
        fixed[names[key]] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**fixed)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _synthesize(spec: PhantomSpec) -> PhantomTruth:
    """synthesize(spec), its ValueError (a spec it cannot draw) a ConfigError("phantom: …")."""
    try:
        return synthesize(spec)
    except ValueError as exc:
        raise ConfigError(f"phantom: {exc}") from exc


def _method_config(method: str, params, seed: int):
    """(config dataclass or None, weights path or None) from method_params."""
    cls, names = METHOD_PARAMS[method]
    _check_keys(params, "method_params", names)
    weights = params.get("weights")
    _check(weights is None or isinstance(weights, str), "method_params.weights", weights)
    if cls is None:
        return None, None
    fixed = {"epochs": SECRET_PIPELINE_EPOCHS, "seed": seed} if method == "secret" else {}
    cfg = _build(cls, {k: v for k, v in params.items() if names[k]}, "method_params", names, **fixed)
    if method == "modl" and weights is None:
        raise ConfigError("method_params.weights: modl needs a weight file, from train-modl on other phantoms")
    ignored = [key for key in TRAINING if key in params]  # nothing trains given weights
    _check(weights is None or not ignored, "method_params (training keys given weights)", ignored)
    return cfg, weights


def _accel_dir(accel) -> str:
    return f"R{accel:g}"


def _load_weights(path, shape, where: str):
    """A weight file's NetworkParams if they fit a [T,H,W] series of `shape`, else ConfigError("<where>: …")."""
    try:
        params = load_params(path)
        params.cfg.check_fits(shape)
    except (ValueError, OSError) as exc:  # ContainerError is a ValueError
        raise ConfigError(f"{where}: {exc}") from exc
    return params


def _parse_config(config):
    """Checks a run config, and loads its pretrained weights, before anything is written; returns
    (PhantomSpec, accels, method config, NetworkParams or None). A missing or unknown key, a value of
    the wrong type or range, two accelerations that name one directory ([4, 4.0]), an acceleration
    radial_budget refuses, or weights that do not load or fit are a ConfigError naming the key."""
    _check_keys(config, "config", RUN_KEYS, RUN_KEYS[:-1])
    _check(is_int(config["seed"]) and config["seed"] >= 0, "seed", config["seed"])
    _check(isinstance(config["output_dir"], str), "output_dir", config["output_dir"])
    spec = _build(PhantomSpec, config["phantom"], "phantom")
    mask = config["mask"]
    _check_keys(mask, "mask", ("accel", "seed"), ("accel", "seed"))
    accels = mask["accel"] if isinstance(mask["accel"], list) else [mask["accel"]]
    _check(accels and all(is_real(a) and a >= 1 for a in accels), "mask.accel", mask["accel"])
    dirs = [_accel_dir(a) for a in accels]  # equal names would have two workers write one directory
    _check(len(set(dirs)) == len(dirs), "mask.accel (duplicate output directory)", mask["accel"])
    _check(is_int(mask["seed"]) and mask["seed"] >= 0, "mask.seed", mask["seed"])
    for accel in accels:  # each worker's mask, refused here before anything is written
        try:
            radial_budget(spec.h, spec.w, accel)
        except ValueError as exc:
            raise ConfigError(f"mask.accel: {exc}") from exc
    _check(config["method"] in METHOD_PARAMS, "method", config["method"])
    cfg, weights = _method_config(config["method"], config.get("method_params", {}), config["seed"])
    shape = (spec.t, spec.h, spec.w)
    return spec, accels, cfg, None if weights is None else _load_weights(weights, shape, "method_params.weights")


def _reconstruct(method: str, d_u: KtData, cfg, params, spare=None):
    """(reconstruction, CS ConvergenceLog or None); spare is cs_reconstruct's."""
    if method == "zf":
        return adjoint(d_u), None
    if method == "cs":
        return cs_mod.cs_reconstruct(d_u, cfg, spare=spare)
    if method == "modl":  # _load_weights has loaded its params
        return modl_forward(adjoint(d_u), d_u, params, cfg, params.cfg), None
    if params is None:  # scan-specific SECRET: trains on the measurement alone
        params, _ = secret_train([d_u], cfg, NetConfig(frames=d_u.samples.shape[0]))
    return secret_infer(d_u, params, params.cfg), None


def run_pipeline(config: dict) -> int:
    """Each job writes its acceleration's .ktsr and PGM files and returns its record;
    convergence.csv and metrics.csv are written from the records once every job has ended."""
    spec, accels, cfg, params = _parse_config(config)
    workers = min(worker_count(), len(accels))
    truth = _synthesize(spec)
    out_dir = Path(config["output_dir"])
    save_phantom(out_dir / "phantom", spec, truth)  # makes out_dir too
    method = config["method"]

    def run_one(accel) -> AccelRecord:
        sub = out_dir / _accel_dir(accel)
        sub.mkdir(exist_ok=True)
        mask = make_radial_mask(spec.t, spec.h, spec.w, accel, config["mask"]["seed"])
        save_mask(sub / "mask.ktsr", mask, config["mask"]["seed"])
        d_u = corrupt(truth, mask, spec.noise_sigma, config["seed"])
        save_tensor(sub / "data.ktsr", d_u.samples)
        recon, cs_log = _reconstruct(method, d_u, cfg, params, spare)
        save_tensor(sub / "recon.ktsr", recon)
        zf = recon if method == "zf" else adjoint(d_u)
        save_tensor(sub / "recon_zf.ktsr", zf)
        report = kinetics.evaluate_series(recon, truth.ref_images)
        # figure-style panel: reference / zero-filled / method / |error| x 5
        mid = spec.t // 2
        err = 5.0 * np.abs(np.abs(recon[mid]) - np.abs(truth.ref_images[mid]))
        panel = np.hstack([np.abs(truth.ref_images[mid]), np.abs(zf[mid]), np.abs(recon[mid]), err])
        write_pgm(sub / "panel.pgm", panel, lo=0.0, hi=1.0)
        pmap = kinetics.patlak_fit(recon, truth.aif_signal, spec.dt, truth.tissue_roi)
        save_tensor(sub / "ktrans_map.ktsr", pmap.ktrans)
        save_tensor(sub / "vp_map.ktsr", pmap.vp)
        hi = max(truth.ktrans_map.max(), 1e-9)
        write_pgm(sub / "ktrans_panel.pgm",
                  np.hstack([truth.ktrans_map, np.nan_to_num(pmap.ktrans)]), lo=0.0, hi=hi)
        return AccelRecord(accel, report, cs_log)

    cores = os.cpu_count() or 1
    spare = threading.Semaphore(max(0, cores - workers))  # see the module docstring
    # the first jobs to end hand their core to a queued job, or to a worker past cpu_count
    keep, lock = [len(accels) - workers + max(0, workers - cores)], threading.Lock()

    def job(accel):
        try:
            return run_one(accel)
        finally:
            with lock:
                if keep[0]:
                    keep[0] -= 1
                else:
                    spare.release()

    with _blas_threads_per_worker(workers), ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(job, accels))
    for rec in records:
        if rec.cs_log is not None:
            write_convergence(out_dir / _accel_dir(rec.accel) / "convergence.csv", rec.cs_log)
    write_metrics(out_dir / "metrics.csv", method, f"phantom{spec.seed}", records)
    return 0
