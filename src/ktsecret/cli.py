"""Command-line front end: phantom generation, masking, reconstruction,
evaluation, quantification and an end-to-end pipeline (ktsecret.pipeline).

All tensors are exchanged via the KTSR container (see container.py); masks and weights
carry JSON sidecars. Every subcommand is deterministic given its inputs and, if it draws
at random, its --seed: its containers are byte-identical run to run on one machine. For
every method, no container, PGM, metric or logged loss depends on the BLAS thread count
(tested at 1 and 4 threads): every sum of products is numerics.re_dot, not a BLAS reduction. So a pipeline
acceleration's files and metrics.csv rows do not depend on the others in its sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cs as cs_mod
from . import kinetics
from .container import (ContainerError, load_dataset, load_ktdata, load_mask, load_phantom, load_tensor,
                        read_json_object, save_mask, save_params, save_phantom, save_tensor, write_csv, write_pgm)
from .encoding import adjoint, make_radial_mask
from .net import NetConfig
from .phantom import PhantomSpec, corrupt
from .pipeline import (METHOD_PARAMS, TRAINING, AccelRecord, ConfigError, _build, _load_weights, _reconstruct,
                       _synthesize, run_pipeline, worker_count, write_convergence, write_metrics)
from .recon import ModlConfig, SecretConfig, modl_train, secret_train

# the benchmark in perfbench/ reads these as attributes of this module
__all__ = ["main", "run_pipeline", "worker_count", "write_pgm"]

# Config options of the subcommands, in the form of pipeline.METHOD_PARAMS: key -> config
# field, given as --key with "_" written "-".
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


# ---------------------------------------------------------------- subcommands

def _options_config(args, **fixed):
    """The subcommand's config dataclass from its SUBCOMMAND_OPTIONS options."""
    cls, names = SUBCOMMAND_OPTIONS[args.command]
    values = {key: getattr(args, key) for key, name in names.items() if name}
    return _build(cls, values, args.command, names, **fixed)


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
    d_u = corrupt(load_phantom(Path(args.phantom)), load_mask(args.mask), args.noise, args.seed)
    save_tensor(args.out, d_u.samples)
    return 0


def cmd_recon_zf(args) -> int:
    d_u = load_ktdata(args.data, args.mask)
    save_tensor(args.out, adjoint(d_u))
    return 0


def cmd_recon_cs(args) -> int:
    d_u = load_ktdata(args.data, args.mask)
    spare = threading.Semaphore((os.cpu_count() or 1) - 1)  # see the ktsecret.pipeline docstring
    s, log = cs_mod.cs_reconstruct(d_u, _options_config(args), spare=spare)
    save_tensor(args.out, s)
    write_convergence(Path(args.out).with_suffix(".convergence.csv"), log)
    return 0


def _train(args, train_fn, cfg, supervised: bool) -> int:
    dataset = load_dataset(args.data_dir, supervised)
    d_u = dataset[0][0] if supervised else dataset[0]
    params, log = train_fn(dataset, cfg, NetConfig(frames=d_u.samples.shape[0]))
    save_params(args.weights, params)
    write_csv(str(args.weights) + ".trainlog.csv", ["epoch", "train_loss", "val_loss", "seconds", "grad_norm"],
              ([i, *row] for i, row in enumerate(zip(log.train_loss, log.val_loss, log.seconds, log.grad_norm))))
    return 0


def cmd_train_secret(args) -> int:
    return _train(args, secret_train, _options_config(args, seed=args.seed), supervised=False)


def cmd_train_modl(args) -> int:
    return _train(args, modl_train, _options_config(args, seed=args.seed), supervised=True)


def cmd_recon_nn(args) -> int:
    """Weights that do not fit the data (pipeline._load_weights) are a ConfigError("recon-nn: …")."""
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
    report = kinetics.evaluate_series(load_tensor(args.recon), load_tensor(args.ref))
    write_metrics(args.out, args.method, args.phantom_id, [AccelRecord(args.accel, report)], append=True)
    print(f"psnr={report.psnr:.3f} dB  ssim={report.ssim:.4f}  nrmse={report.nrmse:.4f}")
    return 0


def cmd_quantify(args) -> int:
    pmap = kinetics.patlak_fit(load_tensor(args.recon), load_tensor(args.aif), args.dt, load_tensor(args.roi) > 0.5)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for suffix, arr in (("ktrans", pmap.ktrans), ("vp", pmap.vp), ("r2", pmap.fit_r2)):
        save_tensor(f"{prefix}.{suffix}.ktsr", arr)
    write_pgm(str(prefix) + ".ktrans.pgm", np.nan_to_num(pmap.ktrans))
    return 0


def cmd_profile(args) -> int:
    series_list = [load_tensor(p) for p in args.inputs]
    if len({s.shape for s in series_list}) != 1:
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


def cmd_pipeline(args) -> int:
    """A config file that is not a UTF-8 JSON object is a ConfigError naming it, before --seed applies."""
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
    for dim in ("t", "h", "w"):
        p.add_argument(f"--{dim}", type=int, required=True)
    p.add_argument("--accel", type=float, required=True)

    p = command("corrupt", cmd_corrupt, "undersample phantom k-space with noise", "phantom", "mask", "out")
    p.add_argument("--noise", type=float, default=0.0)

    command("recon-zf", cmd_recon_zf, "zero-filled reconstruction", "data", "mask", "out")
    command("recon-cs", cmd_recon_cs, "compressed-sensing reconstruction", "data", "mask", "out")
    command("train-secret", cmd_train_secret, "self-supervised training (no references)", "data-dir", "weights")
    command("train-modl", cmd_train_modl, "supervised unrolled training", "data-dir", "weights")

    p = command("recon-nn", cmd_recon_nn, "network inference (SECRET or unrolled)", "data", "mask", "weights", "out")
    p.add_argument("--K", type=int, default=0, help="0 = single-pass SECRET inference")
    p.add_argument("--lambda", type=float, help=f"needs --K >= 1 (default {ModlConfig.lam})")

    p = command("evaluate", cmd_evaluate, "PSNR/SSIM/NRMSE against a reference", "recon", "ref", "out")
    p.add_argument("--method", default="unknown")
    p.add_argument("--accel", type=float, default=0.0)
    p.add_argument("--phantom-id", default="0")

    p = command("quantify", cmd_quantify, "Patlak parameter maps", "recon", "aif", "roi", "out-prefix")
    p.add_argument("--dt", type=float, required=True)

    p = command("profile", cmd_profile, "x-t profile strips for visual comparison", "out-prefix")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--row", type=int, required=True)

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
