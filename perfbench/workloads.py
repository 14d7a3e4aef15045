"""The two benchmark workloads.

Each workload drives ktsecret only through public entry points, looked up on
their modules at call time so that a running Tracer sees every call. Inputs
come from the benchmark seed alone. Phantom anatomy and kinetics are fixed
per workload and the seed draws the sampling masks and noise, so quality
figures compare like with like across seeds instead of tracking how hard a
particular random phantom is.

Each workload has:
    make_inputs()  generate this seed's inputs (the traced part of set-up)
    warm_up()      one reduced pass, so lazy set-up finishes before timing
    run_pass()     the timed work; returns what check() needs
    check(out)     (problems, quality) for one pass, outside the timed region
    infer_times(out, tracer)
                   method -> seconds each reconstruction of one series took
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from time import perf_counter

import numpy as np

import ktsecret.cli as cli
from ktsecret import encoding, kinetics, phantom, recon
# Names bound here are the unwrapped functions: the output checks use them,
# so checking never shows up in a trace.
from ktsecret.container import load_tensor
from ktsecret.encoding import adjoint
from ktsecret.kinetics import evaluate_series, nrmse, psnr
from ktsecret.net import NetConfig
from ktsecret.phantom import PhantomSpec
from ktsecret.recon import ModlConfig, SecretConfig

# Per-size parameters. "full" is what BENCHMARK.json measures; "tiny" runs
# every code path in seconds for the smoke test.
SIZES = {
    "full": {
        # tol is far below what 100 iterations reach, so every solve runs all
        # 100 iterations and pass time does not depend on where the seed's
        # problem happens to converge
        "pipeline_cs": dict(h=64, w=64, t=16, accels=[3, 6, 10], iters=100, tol=1e-12, noise=0.02),
        # SECRET trains 30 epochs at 5x the acceptance fixture's learning rate
        # (the fixture trains 100 epochs at 1e-4): enough to beat zero-filled
        "train": dict(h=32, w=32, t=8, n_train=6, secret_epochs=30, lr=5e-4, modl_epochs=6,
                      held_out=30, modl_held_out=10),
    },
    "tiny": {
        "pipeline_cs": dict(h=16, w=16, t=8, accels=[3, 6], iters=8, tol=1e-12, noise=0.02),
        # shorter SECRET training does not beat zero-filled, so only MoDL
        # training and the held-out set shrink
        "train": dict(h=32, w=32, t=8, n_train=6, secret_epochs=30, lr=5e-4, modl_epochs=2,
                      held_out=1, modl_held_out=1),
    },
}

PIPELINE_PHANTOM_SEED = 5
# The training set is the acceptance fixture's: phantoms 100..105, each
# corrupted without noise through a 10x mask with seed i, and network seed 0.
# Training is therefore the same on every seed, which keeps the trained
# network's quality from swinging between good and bad initialisations; the
# seed draws the masks of the held-out phantoms (106 onwards).
TRAIN_PHANTOM_SEED = 100
TRAIN_ACCEL = 10.0
TRAIN_SEED = 0
HELD_OUT_ACCELS = (6.0, 10.0)
CS_MIN_GAIN_DB = 3.0


def _seeds(rng, n) -> list:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def _ktrans_nrmse(ktrans, truth_ktrans, roi) -> float:
    return float(np.linalg.norm(ktrans[roi] - truth_ktrans[roi]) / np.linalg.norm(truth_ktrans[roi]))


def _mean_quality(per_series: list) -> dict:
    return {k: float(np.mean([q[k] for q in per_series])) for k in per_series[0]}


def _metrics_rows(path) -> dict:
    """accel -> (psnr, ssim) from the mean rows of a metrics.csv."""
    with open(path, newline="") as f:
        return {float(r["accel"]): (float(r["psnr"]), float(r["ssim"]))
                for r in csv.DictReader(f) if r["frame"] == "mean"}


class Workload:
    timed = ()  # span names an untraced pass still times (for infer_s)
    workers = 0  # size of the workload's own thread pool, if any

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)


class PipelineCs(Workload):
    """run_pipeline, method cs, three accelerations on the pipeline's pool."""

    timed = ("cs.cs_reconstruct",)

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.p = SIZES[size]["pipeline_cs"]
        self.first_hashes = None
        self.workers = min(cli.worker_count(), len(self.p["accels"]))

    def _config(self, out_dir, accels, iters) -> dict:
        p = self.p
        return {
            "seed": self.run_seed,
            "phantom": {"h": p["h"], "w": p["w"], "t": p["t"], "dt": 2.0, "n_tissue_regions": 3,
                        "noise_sigma": p["noise"], "seed": PIPELINE_PHANTOM_SEED},
            "mask": {"accel": accels, "seed": self.mask_seed},
            "method": "cs",
            "method_params": {"iters": iters, "tol": self.p["tol"]},
            "output_dir": str(out_dir),
        }

    def make_inputs(self):
        self.run_seed, self.mask_seed = _seeds(np.random.default_rng(self.seed), 2)
        self.config = self._config(self.work / "out", self.p["accels"], self.p["iters"])

    def warm_up(self):
        cli.run_pipeline(self._config(self.work / "warm", self.p["accels"][:1], 2))

    def run_pass(self):
        return {"rc": cli.run_pipeline(self.config)}

    def infer_times(self, out, tracer) -> dict:
        # one figure per pass: two of the three solves share the pool's two
        # workers and the third runs alone in about half the time, so single
        # solve times fall into two groups whose median is fragile
        return {"cs": [float(np.mean(tracer.durations("cs.cs_reconstruct")))]}

    def check(self, out):
        problems = []
        if out["rc"] != 0:
            problems.append(f"run_pipeline returned {out['rc']}")
        root = Path(self.config["output_dir"])
        ref = load_tensor(root / "phantom" / "ref_images.ktsr")
        truth_kt = load_tensor(root / "phantom" / "ktrans.ktsr")
        roi = load_tensor(root / "phantom" / "labels.ktsr") >= 2
        rows = _metrics_rows(root / "metrics.csv")
        per_accel = []
        for accel in self.p["accels"]:
            sub = root / f"R{accel:g}"
            with open(sub / "convergence.csv", newline="") as f:
                obj = [float(r["objective"]) for r in csv.DictReader(f)]
            if not all(b <= a + 1e-12 * abs(a) for a, b in zip(obj, obj[1:])):
                problems.append(f"R{accel:g}: CS objective increased")
            s = load_tensor(sub / "recon.ktsr")
            gain = psnr(s, ref) - psnr(load_tensor(sub / "recon_zf.ktsr"), ref)
            if not gain >= CS_MIN_GAIN_DB:
                problems.append(f"R{accel:g}: CS gains {gain:.2f} dB over zero-filled")
            per_accel.append({
                "psnr_db": rows[accel][0], "ssim": rows[accel][1], "nrmse": nrmse(s, ref),
                "ktrans_nrmse": _ktrans_nrmse(load_tensor(sub / "ktrans_map.ktsr"), truth_kt, roi),
                "loss_ratio": obj[-1] / obj[0],
            })
        hashes = {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted(root.rglob("*.ktsr"))}
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("containers differ from the first pass with the same seed")
        return problems, _mean_quality(per_accel)


class Train(Workload):
    """Both training loops on the same six phantoms at 10x: self-supervised
    secret_train (batch 1) and supervised modl_train (full batch, the
    ModlConfig default, K=2). Each trained model then reconstructs held-out
    phantoms at 6x and 10x, and each reconstruction gets a Patlak fit."""

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.p = SIZES[size]["train"]
        self.net_cfg = NetConfig(frames=self.p["t"])

    def make_inputs(self):
        p, n = self.p, self.p["n_train"]
        t, h, w = p["t"], p["h"], p["w"]
        phantoms = [phantom.synthesize(PhantomSpec(h=h, w=w, t=t, dt=4.0, seed=TRAIN_PHANTOM_SEED + i))
                    for i in range(n + p["held_out"])]
        self.train = [phantom.corrupt(ph, encoding.make_radial_mask(t, h, w, TRAIN_ACCEL, seed=i), 0.0, seed=i)
                      for i, ph in enumerate(phantoms[:n])]
        self.targets = [ph.ref_images for ph in phantoms[:n]]
        seeds = iter(_seeds(np.random.default_rng(self.seed), p["held_out"] * len(HELD_OUT_ACCELS)))
        self.held = []
        for held in phantoms[n:]:
            for accel in HELD_OUT_ACCELS:
                s = next(seeds)
                self.held.append((phantom.corrupt(held, encoding.make_radial_mask(t, h, w, accel, s), 0.0, s),
                                  held))

    def _methods(self, epochs=None) -> dict:
        """method -> (train, infer, epochs, held-out series). MoDL
        reconstructs the first modl_held_out phantoms of SECRET's set."""
        p = self.p
        return {
            "secret": (self._train_secret, self._infer_secret, epochs or p["secret_epochs"], self.held),
            "modl": (self._train_modl, self._infer_modl, epochs or p["modl_epochs"],
                     self.held[:p["modl_held_out"] * len(HELD_OUT_ACCELS)]),
        }

    def _train_secret(self, data, epochs):
        cfg = SecretConfig(epochs=epochs, lr=self.p["lr"], batch=1, seed=TRAIN_SEED)
        return recon.secret_train(data, cfg, self.net_cfg)

    def _infer_secret(self, d_u, params):
        return recon.secret_infer(d_u, params, self.net_cfg)

    def _modl_cfg(self, epochs):
        return ModlConfig(K=2, epochs=epochs, seed=TRAIN_SEED)

    def _train_modl(self, data, epochs):
        pairs = list(zip(data, self.targets))
        return recon.modl_train(pairs, self._modl_cfg(epochs), self.net_cfg)

    def _infer_modl(self, d_u, params):
        return recon.modl_forward(encoding.adjoint(d_u), d_u, params, self._modl_cfg(1), self.net_cfg)

    def warm_up(self):
        for train, infer, _, held in self._methods(epochs=1).values():
            params, _ = train(self.train[:1], 1)
            d_u, truth = held[0]
            kinetics.patlak_fit(infer(d_u, params), truth.aif_signal, truth.dt, truth.tissue_roi)

    def run_pass(self):
        out = {}
        for method, (train, infer, epochs, held) in self._methods().items():
            params, log = train(self.train, epochs)
            recons, maps, times = [], [], []
            for d_u, truth in held:
                t0 = perf_counter()
                s = infer(d_u, params)
                times.append(perf_counter() - t0)
                recons.append(s)
                maps.append(kinetics.patlak_fit(s, truth.aif_signal, truth.dt, truth.tissue_roi))
            out[method] = {"log": log, "held": held, "recons": recons, "maps": maps, "infer": times}
        return out

    def infer_times(self, out, tracer) -> dict:
        return {method: res["infer"] for method, res in out.items()}

    def check(self, out):
        problems, per_method = [], {}
        for method, res in out.items():
            loss = res["log"].train_loss
            if not loss[-1] < loss[0]:
                problems.append(f"{method} train loss did not fall: {loss[0]:.4g} -> {loss[-1]:.4g}")
            per_series, gains = [], {}
            for (d_u, truth), s, pmap in zip(res["held"], res["recons"], res["maps"]):
                roi = truth.tissue_roi
                if not (np.all(np.isfinite(s)) and np.all(np.isfinite(pmap.ktrans[roi]))):
                    problems.append(f"{method}: non-finite reconstruction or K^Trans map")
                    continue
                gain = psnr(s, truth.ref_images) - psnr(adjoint(d_u), truth.ref_images)
                gains.setdefault(d_u.mask.accel_nominal, []).append(gain)
                report = evaluate_series(s, truth.ref_images)
                per_series.append({
                    "psnr_db": report.psnr, "ssim": report.ssim, "nrmse": nrmse(s, truth.ref_images),
                    "ktrans_nrmse": _ktrans_nrmse(pmap.ktrans, truth.ktrans_map, roi),
                    "loss_ratio": loss[-1] / loss[0],
                })
            if method == "secret":
                # over the held-out set: after 30 epochs single series can
                # still fall a few tenths of a dB short
                problems += [f"secret does not beat zero-filled at {accel:g}x: mean gain {np.mean(g):.2f} dB"
                             for accel, g in gains.items() if not np.mean(g) > 0]
            if per_series:
                per_method[method] = _mean_quality(per_series)
        if problems:
            return problems, {}
        # the workload's figure is the mean of the two methods' figures; each
        # method's own is kept under its name
        quality = _mean_quality(list(per_method.values()))
        for method, q in per_method.items():
            quality.update({f"{method}.{k}": v for k, v in q.items()})
        return problems, quality


WORKLOADS = {
    "pipeline_cs": PipelineCs,
    "train": Train,
}
