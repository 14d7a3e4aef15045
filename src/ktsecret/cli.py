"""Command-line front end: phantom generation, masking, reconstruction,
evaluation, quantification and an end-to-end pipeline.

All tensors are exchanged via the KTSR container (see container.py); masks and weights
carry JSON sidecars. Every subcommand is deterministic given its inputs and, if it draws
at random, its --seed: its containers are byte-identical run to run on one machine. For
every method, no container, PGM, metric or logged loss depends on the BLAS thread count
(tested at 1 and 4 threads): every sum of products is numerics.re_dot, not a BLAS reduction. So a pipeline
acceleration's files and metrics.csv rows do not depend on the others in its sweep.
No pipeline reconstruction reads the phantom's reference images: SECRET trains on the
measurement alone, and the supervised MoDL only reads a weight file.

Cores. KTSECRET_THREADS caps the worker threads of the pipeline's acceleration sweep
(default: cpu_count). While that pool runs, OpenBLAS gets at most cpu_count // workers
threads (at least 1), so pool and BLAS threads together do not oversubscribe the
cores; a user-set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS wins, and the previous count
is restored when the sweep ends. The cores no busy worker holds are spare: cpu_count -
workers at the start (none if negative), then one more each time a job ends with no
job left for its worker and no more workers busy than cores. A CS solve takes spare
cores as helper threads (cs_reconstruct's threads is the sweep's semaphore of them)
at the top of an iteration while it runs alone, and gives them back when it returns.
So a freed core starts the next job at once, and once no job is left it joins a
running solve; recon-cs solves on cpu_count threads. No output depends on these counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cs as cs_mod
from . import kinetics
from .container import (ContainerError, load_params, load_tensor, read_json_object, read_sidecar, save_params,
                        save_tensor)
from .encoding import KtData, SamplingMask, adjoint, make_radial_mask, radial_budget
from .net import NetConfig
from .numerics import is_int, is_real
from .phantom import PhantomSpec, PhantomTruth, corrupt, synthesize
from .recon import (
    ModlConfig,
    SecretConfig,
    modl_forward,
    modl_train,
    secret_infer,
    secret_train,
)

logger = logging.getLogger(__name__)

RUN_KEYS = ("seed", "phantom", "mask", "method", "output_dir", "method_params")  # the last is optional
# phantom directory: file stem -> PhantomTruth array (labels are stored as float64)
PHANTOM_FILES = {"ref_images": "ref_images", "ktrans": "ktrans_map", "vp": "vp_map", "aif": "aif",
                 "aif_signal": "aif_signal", "labels": "region_labels"}
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
# Config options of the subcommands, in the same form: key -> config field,
# given as --key with "_" written "-".
SUBCOMMAND_OPTIONS = {
    # noise_sigma is the pipeline's alone: corrupt takes its own --noise
    "phantom": (PhantomSpec, {"regions" if f.name == "n_tissue_regions" else f.name: f.name
                              for f in fields(PhantomSpec) if f.name not in ("seed", "noise_sigma")}),
    "recon-cs": METHOD_PARAMS["cs"],
    "train-secret": (SecretConfig, {**METHOD_PARAMS["secret"][1], "batch": "batch"}),
    "train-modl": (ModlConfig, {**METHOD_PARAMS["modl"][1], **TRAINING, "batch": "batch"}),
}
# The subcommands that read --seed, and its default; the pipeline's None keeps the config's seed.
SEED_DEFAULTS = {"phantom": PhantomSpec.seed, "mask": 0, "corrupt": 0, "train-secret": 0, "train-modl": 0,
                 "pipeline": None}


class ConfigError(ValueError):
    """A malformed run config or environment setting."""


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


def write_pgm(path, image: np.ndarray, lo: float | None = None, hi: float | None = None) -> None:
    """8-bit binary PGM; values clipped to [lo, hi] (default min/max).
    Raises ValueError if the image holds a NaN or infinity, which would blank
    the whole scale."""
    img = np.abs(np.asarray(image, dtype=float))
    if not np.all(np.isfinite(img)):
        raise ValueError("image holds non-finite values")
    lo = img.min() if lo is None else lo
    hi = img.max() if hi is None else hi
    span = hi - lo if hi > lo else 1.0
    pix = np.clip((img - lo) / span * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())


def save_mask(path, mask: SamplingMask, seed: int) -> None:
    save_tensor(path, mask.bits.astype(np.float64))
    Path(str(path) + ".json").write_text(json.dumps({"accel": mask.accel_nominal, "seed": seed}))


def load_mask(path) -> SamplingMask:
    bits = load_tensor(path)
    meta = read_sidecar(path, {"accel": (int, float)})
    return SamplingMask(bits=bits, accel_nominal=float(meta["accel"]))


def load_ktdata(data_path, mask_path) -> KtData:
    return KtData(samples=load_tensor(data_path), mask=load_mask(mask_path))


def save_phantom(out_dir: Path, spec: PhantomSpec, truth: PhantomTruth) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, name in PHANTOM_FILES.items():
        save_tensor(out_dir / f"{stem}.ktsr", getattr(truth, name))
    (out_dir / "spec.json").write_text(json.dumps(spec.__dict__, indent=2))


def load_phantom(out_dir: Path) -> PhantomTruth:
    arrays = {name: load_tensor(out_dir / f"{stem}.ktsr") for stem, name in PHANTOM_FILES.items()}
    arrays["region_labels"] = arrays["region_labels"].astype(np.int64)
    return PhantomTruth(**arrays, dt=float(read_sidecar(out_dir / "spec", {"dt": (int, float)})["dt"]))


def write_csv(path, header, rows, append: bool = False) -> None:
    """The package's one CSV writer: header, then rows. With append the rows go
    after an existing file's, and the header is written only to a new file."""
    new = not (append and Path(path).exists())
    with open(path, "a" if append else "w", newline="") as f:
        writer = csv.writer(f)
        if new:
            writer.writerow(header)
        writer.writerows(rows)


def _metrics_rows(method: str, accel: float, phantom_id: str, report: kinetics.MetricsReport) -> list:
    """METRICS_HEADER rows of one report: one per frame, then the mean."""
    frames = zip(range(len(report.psnr_frames)), report.psnr_frames, report.ssim_frames, report.nrmse_frames)
    return ([[method, accel, phantom_id, *row] for row in frames]
            + [[method, accel, phantom_id, "mean", report.psnr, report.ssim, report.nrmse]])


def write_convergence(path, log) -> None:
    """Writes a CS ConvergenceLog as CSV; a stalled line search is also logged
    as a warning that names the file."""
    # backtracks[i] is the number of rejected trials on the step to iterate i + 1
    write_csv(path, ["iteration", "objective", "backtracks"],
              zip(range(len(log.objective)), log.objective, ["", *log.backtracks]))
    if log.line_search_failed:
        logger.warning("CS line search stalled (%s): returned the last accepted iterate", path)


def _load_dataset(data_dir: Path, supervised: bool):
    samples = []
    for sub in sorted(p for p in Path(data_dir).iterdir() if p.is_dir()):
        d_u = load_ktdata(sub / "data.ktsr", sub / "mask.ktsr")
        if supervised:
            samples.append((d_u, load_tensor(sub / "target.ktsr")))
        else:
            samples.append(d_u)
    if not samples:
        raise FileNotFoundError(f"no sample directories under {data_dir}")
    return samples


# ---------------------------------------------------------------- subcommands

def _options_config(args, **fixed):
    """The subcommand's config dataclass from its SUBCOMMAND_OPTIONS options."""
    cls, names = SUBCOMMAND_OPTIONS[args.command]
    values = {key: getattr(args, key) for key, name in names.items() if name}
    return _build(cls, values, args.command, names, **fixed)


def _synthesize(spec: PhantomSpec) -> PhantomTruth:
    """synthesize(spec), its ValueError (a spec it cannot draw) a ConfigError."""
    try:
        return synthesize(spec)
    except ValueError as exc:
        raise ConfigError(f"phantom: {exc}") from exc


def cmd_phantom(args) -> int:
    spec = _options_config(args, seed=args.seed)
    save_phantom(Path(args.out), spec, _synthesize(spec))
    return 0


def cmd_mask(args) -> int:
    mask = make_radial_mask(args.t, args.h, args.w, args.accel, args.seed)
    save_mask(args.out, mask, args.seed)
    print(f"achieved acceleration: {mask.achieved_accel:.3f}")
    return 0


def cmd_corrupt(args) -> int:
    truth = load_phantom(Path(args.phantom))
    mask = load_mask(args.mask)
    d_u = corrupt(truth, mask, args.noise, args.seed)
    save_tensor(args.out, d_u.samples)
    return 0


def cmd_recon_zf(args) -> int:
    d_u = load_ktdata(args.data, args.mask)
    save_tensor(args.out, adjoint(d_u))
    return 0


def cmd_recon_cs(args) -> int:
    d_u = load_ktdata(args.data, args.mask)
    s, log = cs_mod.cs_reconstruct(d_u, _options_config(args), threads=os.cpu_count() or 1)
    save_tensor(args.out, s)
    write_convergence(Path(args.out).with_suffix(".convergence.csv"), log)
    return 0


def _train(args, train_fn, cfg, supervised: bool) -> int:
    dataset = _load_dataset(args.data_dir, supervised)
    d_u = dataset[0][0] if supervised else dataset[0]
    net_cfg = NetConfig(frames=d_u.samples.shape[0])
    params, log = train_fn(dataset, cfg, net_cfg)
    save_params(args.weights, params)
    write_csv(str(args.weights) + ".trainlog.csv", ["epoch", "train_loss", "val_loss", "seconds", "grad_norm"],
              ([i, *row] for i, row in enumerate(zip(log.train_loss, log.val_loss, log.seconds, log.grad_norm))))
    return 0


def cmd_train_secret(args) -> int:
    return _train(args, secret_train, _options_config(args, seed=args.seed), supervised=False)


def cmd_train_modl(args) -> int:
    return _train(args, modl_train, _options_config(args, seed=args.seed), supervised=True)


def cmd_recon_nn(args) -> int:
    lam = getattr(args, "lambda")
    if args.K < 0:
        raise ValueError(f"--K must be >= 0 (0 = single-pass SECRET inference), got {args.K}")
    if args.K == 0 and lam is not None:
        raise ValueError("--lambda needs --K >= 1: single-pass SECRET inference has no DC block")
    values = {"K": args.K} if lam is None else {"K": args.K, "lambda": lam}
    cfg = _build(ModlConfig, values, args.command, METHOD_PARAMS["modl"][1]) if args.K > 0 else None
    d_u = load_ktdata(args.data, args.mask)
    params = _load_weights(args.weights, d_u.samples.shape, args.command)
    t0 = time.perf_counter()
    s, _ = _reconstruct("secret" if cfg is None else "modl", d_u, cfg, params)
    print(f"inference wall time: {time.perf_counter() - t0:.3f} s")
    save_tensor(args.out, s)
    return 0


def cmd_evaluate(args) -> int:
    recon = load_tensor(args.recon)
    ref = load_tensor(args.ref)
    report = kinetics.evaluate_series(recon, ref)
    rows = _metrics_rows(args.method, args.accel, args.phantom_id, report)
    write_csv(args.out, METRICS_HEADER, rows, append=True)
    print(f"psnr={report.psnr:.3f} dB  ssim={report.ssim:.4f}  nrmse={report.nrmse:.4f}")
    return 0


def cmd_quantify(args) -> int:
    series = load_tensor(args.recon)
    aif = load_tensor(args.aif)
    roi = load_tensor(args.roi) > 0.5
    pmap = kinetics.patlak_fit(series, aif, args.dt, roi)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    save_tensor(str(prefix) + ".ktrans.ktsr", pmap.ktrans)
    save_tensor(str(prefix) + ".vp.ktsr", pmap.vp)
    save_tensor(str(prefix) + ".r2.ktsr", pmap.fit_r2)
    write_pgm(str(prefix) + ".ktrans.pgm", np.nan_to_num(pmap.ktrans))
    return 0


def cmd_profile(args) -> int:
    series_list = [load_tensor(p) for p in args.inputs]
    shapes = {s.shape for s in series_list}
    if len(shapes) != 1:
        raise ValueError("all input series must share one shape")
    if series_list[0].ndim != 3:
        raise ValueError(f"expected [T,H,W] series, got shape {series_list[0].shape}")
    t, h, w = series_list[0].shape
    if not 0 <= args.row < h:
        raise ValueError(f"row {args.row} out of range [0,{h})")
    # x-t strips: rows are the image row over time, one panel per input
    strips = [np.abs(s[:, args.row, :]).T for s in series_list]  # [W, T] each
    gap = np.full((w, 2), np.max([s.max() for s in strips]))
    panel = np.hstack(sum(([s, gap] for s in strips[:-1]), []) + [strips[-1]])
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(str(prefix) + ".pgm", panel)
    write_csv(str(prefix) + ".csv", ["input", "frame", "x", "magnitude"],
              ([idx, fr, x, abs(s[fr, args.row, x])] for idx, s in enumerate(series_list)
               for fr in range(t) for x in range(w)))
    return 0


# ------------------------------------------------------------------- pipeline

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
    """Checks a run config, and loads its pretrained weights; returns (PhantomSpec,
    accels, method config, NetworkParams or None)."""
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


def _reconstruct(method: str, d_u: KtData, cfg, params, threads=1):
    """(reconstruction, CS ConvergenceLog or None); threads is cs_reconstruct's."""
    if method == "zf":
        return adjoint(d_u), None
    if method == "cs":
        return cs_mod.cs_reconstruct(d_u, cfg, threads=threads)
    if method == "modl":  # _load_weights has loaded its params
        return modl_forward(adjoint(d_u), d_u, params, cfg, params.cfg), None
    if params is None:  # scan-specific SECRET: trains on the measurement alone
        params, _ = secret_train([d_u], cfg, NetConfig(frames=d_u.samples.shape[0]))
    return secret_infer(d_u, params, params.cfg), None


def run_pipeline(config: dict) -> int:
    spec, accels, cfg, params = _parse_config(config)
    workers = min(worker_count(), len(accels))
    truth = _synthesize(spec)
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]
    save_phantom(out_dir / "phantom", spec, truth)
    method = config["method"]

    def run_one(accel):
        sub = out_dir / _accel_dir(accel)
        sub.mkdir(exist_ok=True)
        mask = make_radial_mask(spec.t, spec.h, spec.w, accel, config["mask"]["seed"])
        save_mask(sub / "mask.ktsr", mask, config["mask"]["seed"])
        d_u = corrupt(truth, mask, spec.noise_sigma, seed)
        save_tensor(sub / "data.ktsr", d_u.samples)
        recon, cs_log = _reconstruct(method, d_u, cfg, params, spare)
        save_tensor(sub / "recon.ktsr", recon)
        zf = adjoint(d_u)
        save_tensor(sub / "recon_zf.ktsr", zf)
        if cs_log is not None:
            write_convergence(sub / "convergence.csv", cs_log)
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
        return accel, report

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
        results = list(pool.map(job, accels))
    phantom_id = f"phantom{spec.seed}"
    write_csv(out_dir / "metrics.csv", METRICS_HEADER,
              [row for accel, report in results for row in _metrics_rows(method, accel, phantom_id, report)])
    return 0


def cmd_pipeline(args) -> int:
    try:
        config = read_json_object(args.config)
    except ContainerError as exc:
        raise ConfigError(str(exc)) from None
    if args.seed is not None:  # run_pipeline checks it with the rest
        config["seed"] = args.seed
    return run_pipeline(config)


# ------------------------------------------------------------------ arg setup

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ktsecret",
                                     description="Dynamic (k,t)-space reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *required: str):
        """A subcommand: --seed if it reads one (SEED_DEFAULTS), the required
        string options, then the options of SUBCOMMAND_OPTIONS[name], each
        typed and defaulted by its config field (a tuple field takes that
        many floats)."""
        p = sub.add_parser(name, help=summary)
        if name in SEED_DEFAULTS:
            p.add_argument("--seed", type=int, default=SEED_DEFAULTS[name])
        for option in required:
            p.add_argument(f"--{option}", required=True)
        cls, names = SUBCOMMAND_OPTIONS.get(name, (None, {}))
        for key, field_name in names.items():
            if field_name is not None:
                default = getattr(cls, field_name)
                kind, nargs = (float, len(default)) if isinstance(default, tuple) else (type(default), None)
                p.add_argument("--" + key.replace("_", "-"), type=kind, nargs=nargs, default=default)
        p.set_defaults(func=func)
        return p

    command("phantom", cmd_phantom, "generate a synthetic dynamic phantom", "out")

    p = command("mask", cmd_mask, "generate a golden-angle radial (k,t) mask", "out")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--accel", type=float, required=True)

    p = command("corrupt", cmd_corrupt, "undersample phantom k-space with noise", "phantom", "mask")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)

    command("recon-zf", cmd_recon_zf, "zero-filled reconstruction", "data", "mask", "out")
    command("recon-cs", cmd_recon_cs, "compressed-sensing reconstruction", "data", "mask", "out")
    command("train-secret", cmd_train_secret, "self-supervised training (no references)", "data-dir", "weights")
    command("train-modl", cmd_train_modl, "supervised unrolled training", "data-dir", "weights")

    p = command("recon-nn", cmd_recon_nn, "network inference (SECRET or unrolled)", "data", "mask", "weights")
    p.add_argument("--K", type=int, default=0, help="0 = single-pass SECRET inference")
    p.add_argument("--lambda", type=float, help=f"needs --K >= 1 (default {ModlConfig.lam})")
    p.add_argument("--out", required=True)

    p = command("evaluate", cmd_evaluate, "PSNR/SSIM/NRMSE against a reference", "recon", "ref")
    p.add_argument("--method", default="unknown")
    p.add_argument("--accel", type=float, default=0.0)
    p.add_argument("--phantom-id", default="0")
    p.add_argument("--out", required=True)

    p = command("quantify", cmd_quantify, "Patlak parameter maps", "recon", "aif", "roi")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out-prefix", required=True)

    p = command("profile", cmd_profile, "x-t profile strips for visual comparison")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--out-prefix", required=True)

    command("pipeline", cmd_pipeline, "phantom -> mask -> recon -> evaluate -> quantify", "config")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - thin error shim
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
