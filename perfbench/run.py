"""ktsecret benchmark: one workload per process, closed loop of passes.

    python3 perfbench/run.py --workload pipeline_cs --seed 1 --seconds 58 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run reports the end-to-end metrics
of BENCHMARK.json, measured untraced. With ``--trace 1`` it spends half its
time on untraced passes and half on traced ones, and reports the per-layer
metrics. Every metric is printed by name with its unit; the last line of
standard output is one JSON object (correct, attempted, failed, metrics).
The environment, every metric and, for traced runs, every span are written
to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
LAYERS = ["numerics", "encoding", "cs", "net", "recon", "phantom", "kinetics", "container", "cli"]
ENV_VARS = ["KTSECRET_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
QUALITY_UNITS = {"psnr_db": "dB", "ssim": "1", "nrmse": "1", "ktrans_nrmse": "1", "loss_ratio": "1"}


def import_package() -> float:
    """Import ktsecret from this checkout's src/. Returns the median import
    time of this import and of IMPORT_REPEATS - 1 more in fresh interpreters."""
    src = ROOT / "src"
    if not (src / "ktsecret" / "__init__.py").is_file():
        raise SystemExit(f"ktsecret sources not found under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import ktsecret.cli  # noqa: F401  (pulls in every module of the package)
    times = [perf_counter() - t0]
    if Path(ktsecret.cli.__file__).resolve().parent != src / "ktsecret":
        raise SystemExit(f"imported ktsecret from {ktsecret.cli.__file__}, not {src}")
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import ktsecret.cli; print(time.perf_counter() - t0)")
    for _ in range(IMPORT_REPEATS - 1):
        child = subprocess.run([sys.executable, "-c", code, str(src)],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(child.stdout))
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in ENV_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(setup_tracer, tracers, workers: int) -> dict:
    """Per-layer values: one set-up's input generation plus the mean traced pass."""
    from tracing import Span

    setup_spans = setup_tracer.spans
    pass_spans = [s for t in tracers for s in t.spans]

    def total(value, where):
        """value(span) summed over the set-up spans plus the per-pass mean."""
        per_pass = sum(value(s) for s in pass_spans if where(s)) / len(tracers)
        return float(sum(value(s) for s in setup_spans if where(s)) + per_pass)

    def calls(*names):
        return total(lambda s: 1, lambda s: s.name in names)

    def self_s(*names):
        return total(Span.self_time, lambda s: s.name in names)

    def count(name, key):
        return total(lambda s: s.counts.get(key, 0), lambda s: s.name == name)

    m = {}
    fd = ("numerics.grad_spatial", "numerics.grad_spatial_adjoint",
          "numerics.grad_temporal", "numerics.grad_temporal_adjoint")
    m["numerics.dft2.calls"] = calls("numerics.dft2")
    m["numerics.dft2.self_s"] = self_s("numerics.dft2")
    m["numerics.dft2.bytes"] = count("numerics.dft2", "bytes")
    m["numerics.fd.calls"] = calls(*fd)
    m["numerics.fd.self_s"] = self_s(*fd)
    for fn in ("encode", "adjoint", "normal_op"):
        m[f"encoding.{fn}.calls"] = calls(f"encoding.{fn}")
        m[f"encoding.{fn}.self_s"] = self_s(f"encoding.{fn}")
    m["encoding.ktdata.validations"] = calls("encoding.ktdata")
    m["encoding.make_radial_mask.self_s"] = self_s("encoding.make_radial_mask")

    m["cs.cs_reconstruct.self_s"] = self_s("cs.cs_reconstruct")
    for fn in ("cs_objective", "cs_gradient"):
        m[f"cs.{fn}.calls"] = calls(f"cs.{fn}")
        m[f"cs.{fn}.self_s"] = self_s(f"cs.{fn}")
    accepted = count("cs.cs_reconstruct", "iterations")
    evaluations = total(lambda s: sum(c.name == "cs.cs_objective" for c in s.children),
                        lambda s: s.name == "cs.cs_reconstruct")
    m["cs.iterations"] = accepted
    # the first evaluation is the starting point; every other try that was
    # not accepted is a backtrack
    m["cs.backtracks"] = evaluations - calls("cs.cs_reconstruct") - accepted
    m["cs.accept_ratio"] = accepted / evaluations if evaluations else 0.0
    m["cs.line_search_failed"] = count("cs.cs_reconstruct", "line_search_failed")

    for fn in ("net_forward", "net_backward", "adam_step"):
        m[f"net.{fn}.calls"] = calls(f"net.{fn}")
        m[f"net.{fn}.self_s"] = self_s(f"net.{fn}")
    gflop = (count("net.net_forward", "flop") + count("net.net_backward", "flop")) / 1e9
    net_s = m["net.net_forward.self_s"] + m["net.net_backward.self_s"]
    m["net.gflop"] = gflop
    m["net.gflops"] = gflop / net_s if net_s else 0.0

    m["recon.secret_loss.calls"] = calls("recon.secret_loss")
    m["recon.secret_loss.self_s"] = self_s("recon.secret_loss")
    m["recon.train.self_s"] = self_s("recon.secret_train", "recon.modl_train")
    m["recon.dc_solve.calls"] = calls("recon.dc_solve")
    m["recon.dc_solve.self_s"] = self_s("recon.dc_solve")
    m["recon.dc_solve.cg_iterations"] = count("recon.dc_solve", "cg_iterations")
    m["recon.dc_solve.unconverged"] = count("recon.dc_solve", "unconverged")
    m["recon.modl_forward.self_s"] = self_s("recon.modl_forward")

    m["phantom.synthesize.self_s"] = self_s("phantom.synthesize")
    m["phantom.corrupt.self_s"] = self_s("phantom.corrupt")
    for fn in ("evaluate_series", "patlak_fit"):
        m[f"kinetics.{fn}.calls"] = calls(f"kinetics.{fn}")
        m[f"kinetics.{fn}.self_s"] = self_s(f"kinetics.{fn}")
    for fn in ("save_tensor", "load_tensor"):
        m[f"container.{fn}.calls"] = calls(f"container.{fn}")
        m[f"container.{fn}.self_s"] = self_s(f"container.{fn}")
        m[f"container.{fn}.bytes"] = count(f"container.{fn}", "bytes")
    m["cli.write_pgm.self_s"] = self_s("cli.write_pgm")

    # span time on pool threads over (pipeline wall time x worker count)
    pool_s = total(lambda s: s.duration, lambda s: s.parent is not None and s.parent.thread != s.thread)
    pipeline_s = total(lambda s: s.duration, lambda s: s.name == "cli.run_pipeline")
    m["cli.sweep_concurrency"] = pool_s / (pipeline_s * workers) if pipeline_s and workers else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(Span.self_time, lambda s: s.name.startswith(layer + "."))
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, import_s: float,
                  size: str = "full", results_dir: Path | None = None) -> dict:
    """Run one workload and return its record: every metric (end-to-end, and
    per-layer when traced) with its unit, the environment and pass times.
    import_package() must have run; import_s is the time it reported."""
    from tracing import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[workload](seed, size, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.make_inputs()
            wl.warm_up()
            setups.append(perf_counter() - t0)
        setup_tracer = Tracer()
        if trace:
            with setup_tracer:
                wl.make_inputs()

        attempted = failed = 0
        walls, traced_walls, quality, tracers = [], [], [], []
        infer = {}  # method -> seconds per reconstructed series

        def one_pass(traced: bool):
            nonlocal attempted, failed
            attempted += 1
            tracer = Tracer(None if traced else wl.timed)
            try:
                with tracer:
                    t0 = perf_counter()
                    out = wl.run_pass()
                    wall = perf_counter() - t0
                problems, q = wl.check(out)
            except Exception:  # a pass that raises counts as failed; keep measuring
                traceback.print_exc()
                failed += 1
                return
            if problems:
                print(f"pass {attempted} failed its checks: {'; '.join(problems)}", file=sys.stderr)
                failed += 1
                return
            (traced_walls if traced else walls).append(wall)
            quality.append(q)
            if traced:
                tracers.append(tracer)
            else:
                for method, times in wl.infer_times(out, tracer).items():
                    infer.setdefault(method, []).extend(times)

        phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
        for traced, budget in phases:
            start = perf_counter()
            while True:
                t0 = perf_counter()
                one_pass(traced)
                # closed loop: the next pass starts only if one more of the
                # same length still fits in the phase's time
                now = perf_counter()
                if (now - start) + (now - t0) > budget:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass

    metrics = {"error_rate": (failed / attempted, "1")}
    if walls and quality:
        metrics.update({
            "setup_s": (import_s + statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            # one series reconstructed by each of the workload's methods
            "infer_s": (sum(statistics.median(times) for times in infer.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
        for name in quality[0]:
            metrics[name] = (statistics.median(q[name] for q in quality), QUALITY_UNITS[name.split(".")[-1]])
    if trace and tracers:
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        for name, value in layer_metrics(setup_tracer, tracers, wl.workers).items():
            metrics[name] = (value, units[name])
        metrics["bench.trace_overhead"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0 if walls else 0.0, "1")
    record = {
        "workload": workload, "size": size, "seconds": seconds, "trace": trace,
        "env": environment(seed), "attempted": attempted, "failed": failed,
        "passes": {"untraced_s": walls, "traced_s": traced_walls, "setup_s": setups,
                   "import_s": import_s, "infer_s": infer},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if results_dir is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = results_dir / f"{workload}-seed{seed}-trace{trace}"
        stem.with_suffix(".json").write_text(json.dumps(record, indent=2))
        if trace:
            with open(stem.with_suffix(".spans.jsonl"), "w") as f:
                for i, t in enumerate([setup_tracer] + tracers):
                    f.write(json.dumps({"tracer": "setup" if i == 0 else f"pass{i}"}) + "\n")
                    t.write(f)
    return record


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs every code path in seconds (smoke test)")
    args = parser.parse_args(argv)
    import_s = import_package()
    record = run_benchmark(args.workload, args.seed, args.seconds, args.trace, import_s,
                           size=args.size, results_dir=ROOT / ".bench_results")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: record["metrics"][name] for name in listed if name in record["metrics"]}
    print(json.dumps({"correct": record["failed"] == 0 and len(metrics) == len(listed),
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
