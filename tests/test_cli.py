import csv
import dataclasses
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ktsecret import cli, pipeline
from ktsecret import cs as cs_module
from ktsecret.cli import build_parser, main
from ktsecret.container import load_mask, save_mask, write_csv, write_pgm
from ktsecret.pipeline import METRICS_HEADER, ConfigError, run_pipeline, worker_count
from ktsecret.cs import CsConfig, cs_reconstruct
from ktsecret.recon import ModlConfig, SecretConfig
from ktsecret.container import load_tensor, save_params, save_tensor
from ktsecret.encoding import adjoint, make_radial_mask
from ktsecret.net import NetConfig, NetworkParams, init_params
from ktsecret.phantom import PhantomSpec, corrupt, synthesize
from conftest import openblas_threads

NAN, INF = float("nan"), float("inf")


def run(*argv):
    return main([str(a) for a in argv])


def _pipeline_config(tmp_path, method="zf", accel=4.0, **method_params):
    cfg = {
        "seed": 5,
        "phantom": {"h": 32, "w": 32, "t": 8, "dt": 2.0, "n_tissue_regions": 2,
                    "noise_sigma": 0.0, "seed": 5},
        "mask": {"accel": accel, "seed": 1},
        "method": method,
        "method_params": method_params,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def test_phantom_mask_corrupt_recon_evaluate_flow(tmp_path):
    ph = tmp_path / "ph"
    assert run("phantom", "--out", ph, "--h", 32, "--w", 32, "--t", 8, "--seed", 3) == 0
    assert run("mask", "--out", tmp_path / "m.ktsr", "--t", 8, "--h", 32, "--w", 32,
               "--accel", 6, "--seed", 2) == 0
    assert run("corrupt", "--phantom", ph, "--mask", tmp_path / "m.ktsr",
               "--out", tmp_path / "d.ktsr") == 0
    assert run("recon-zf", "--data", tmp_path / "d.ktsr", "--mask", tmp_path / "m.ktsr",
               "--out", tmp_path / "zf.ktsr") == 0
    assert run("evaluate", "--recon", tmp_path / "zf.ktsr", "--ref", ph / "ref_images.ktsr",
               "--method", "zf", "--accel", 6, "--phantom-id", "p3",
               "--out", tmp_path / "metrics.csv") == 0
    with open(tmp_path / "metrics.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == METRICS_HEADER
    assert rows[-1][3] == "mean"
    mask = load_mask(tmp_path / "m.ktsr")
    assert 0.85 * 6 <= mask.achieved_accel <= 1.15 * 6


def test_recon_cs_writes_convergence(tmp_path):
    ph = tmp_path / "ph"
    run("phantom", "--out", ph, "--h", 16, "--w", 16, "--t", 8, "--regions", 1, "--seed", 1)
    run("mask", "--out", tmp_path / "m.ktsr", "--t", 8, "--h", 16, "--w", 16, "--accel", 4, "--seed", 0)
    run("corrupt", "--phantom", ph, "--mask", tmp_path / "m.ktsr", "--out", tmp_path / "d.ktsr")
    assert run("recon-cs", "--data", tmp_path / "d.ktsr", "--mask", tmp_path / "m.ktsr",
               "--out", tmp_path / "cs.ktsr", "--iters", 5) == 0
    assert (tmp_path / "cs.convergence.csv").exists()
    obj = [float(r[1]) for r in list(csv.reader(open(tmp_path / "cs.convergence.csv")))[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(obj, obj[1:]))


def _stub_cs_reconstruct(stalled: bool):
    """A cs_reconstruct that returns the zero-filled image and a fixed log."""
    def cs_reconstruct(d_u, cfg, spare=None):
        log = cs_module.ConvergenceLog(objective=[2.0, 1.0], backtracks=[3], line_search_failed=stalled)
        return adjoint(d_u), log
    return cs_reconstruct


def _warnings(caplog) -> list:
    return [r.getMessage() for r in caplog.records if r.name == "ktsecret.pipeline" and r.levelno == logging.WARNING]


def test_pipeline_logs_stalled_line_search_per_accel(tmp_path, monkeypatch, caplog):
    written = {}
    for stalled in (False, True):
        monkeypatch.setattr(cs_module, "cs_reconstruct", _stub_cs_reconstruct(stalled))
        (tmp_path / str(stalled)).mkdir()
        config, out = _pipeline_config(tmp_path / str(stalled), "cs", [4.0, 6.0])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ktsecret.pipeline"):
            assert run("pipeline", "--config", config) == 0
        warnings = _warnings(caplog)
        if stalled:
            assert len(warnings) == 2
            for accel_dir in ("R4", "R6"):
                assert sum(str(out / accel_dir) in w and "stalled" in w for w in warnings) == 1
        else:
            assert warnings == []
        written[stalled] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert written[True] == written[False]  # the warning changes no file


def test_recon_cs_logs_stalled_line_search(tmp_path, monkeypatch, caplog):
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=1))
    d = corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)
    monkeypatch.setattr(cli, "load_ktdata", lambda data, mask: d)
    monkeypatch.setattr(cs_module, "cs_reconstruct", _stub_cs_reconstruct(True))
    with caplog.at_level(logging.WARNING, logger="ktsecret.pipeline"):
        assert run("recon-cs", "--data", "d", "--mask", "m", "--out", tmp_path / "cs.ktsr") == 0
    warnings = _warnings(caplog)
    assert len(warnings) == 1 and str(tmp_path / "cs.convergence.csv") in warnings[0]


def test_recon_cs_writes_the_files_of_the_pipeline_acceleration(tmp_path):
    """recon-cs on a pipeline's R6 data and mask, at the same iterations, writes the
    pipeline's recon.ktsr and convergence.csv byte for byte."""
    config, out = _pipeline_config(tmp_path, "cs", [4, 6], iters=20)
    assert run("pipeline", "--config", config) == 0
    r6 = out / "R6"
    assert run("recon-cs", "--data", r6 / "data.ktsr", "--mask", r6 / "mask.ktsr",
               "--out", tmp_path / "cs.ktsr", "--iters", 20) == 0
    assert (tmp_path / "cs.ktsr").read_bytes() == (r6 / "recon.ktsr").read_bytes()
    assert (tmp_path / "cs.convergence.csv").read_bytes() == (r6 / "convergence.csv").read_bytes()


def test_zf_pipeline_takes_one_adjoint_per_acceleration(tmp_path, monkeypatch):
    calls, adjoint_fn = [], pipeline.adjoint
    monkeypatch.setattr(pipeline, "adjoint", lambda d_u: calls.append(d_u) or adjoint_fn(d_u))
    assert run_pipeline(_valid_config(tmp_path)) == 0
    assert len(calls) == 2
    for sub in ("R3", "R4"):
        out = tmp_path / "out" / sub
        assert (out / "recon.ktsr").read_bytes() == (out / "recon_zf.ktsr").read_bytes()


def test_convergence_csv_lists_backtracks_per_accepted_step(tmp_path):
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=1))
    d = corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)
    _, log = cs_reconstruct(d, CsConfig(max_iters=10))
    pipeline.write_convergence(tmp_path / "c.csv", log)
    with open(tmp_path / "c.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["objective"]) for r in rows] == log.objective
    assert rows[0]["backtracks"] == ""
    assert [int(r["backtracks"]) for r in rows[1:]] == log.backtracks


def test_train_secret_and_recon_nn(tmp_path):
    ph = tmp_path / "ph"
    run("phantom", "--out", ph, "--h", 16, "--w", 16, "--t", 8, "--regions", 1, "--seed", 2)
    data_dir = tmp_path / "ds"
    for i in range(2):
        sub = data_dir / f"sample{i}"
        sub.mkdir(parents=True)
        run("mask", "--out", sub / "mask.ktsr", "--t", 8, "--h", 16, "--w", 16,
            "--accel", 4, "--seed", i)
        run("corrupt", "--phantom", ph, "--mask", sub / "mask.ktsr", "--out", sub / "data.ktsr")
    assert run("train-secret", "--data-dir", data_dir, "--weights", tmp_path / "w.ktsr",
               "--epochs", 2, "--seed", 0) == 0
    assert (tmp_path / "w.ktsr.json").exists()
    with open(tmp_path / "w.ktsr.trainlog.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["epoch"] for row in rows] == ["0", "1"]
    assert all(np.isfinite(float(row["grad_norm"])) for row in rows)
    sub = data_dir / "sample0"
    assert run("recon-nn", "--data", sub / "data.ktsr", "--mask", sub / "mask.ktsr",
               "--weights", tmp_path / "w.ktsr", "--out", tmp_path / "nn.ktsr") == 0
    assert load_tensor(tmp_path / "nn.ktsr").shape == (8, 16, 16)


def _stub_recon_nn(monkeypatch, seen):
    """recon-nn on a phantom measurement with stub weights; modl_forward records its config."""
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=1))
    d = corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)
    monkeypatch.setattr(cli, "load_ktdata", lambda data, mask: d)
    monkeypatch.setattr(pipeline, "load_params", lambda path: NetworkParams(NetConfig(frames=8)))
    monkeypatch.setattr(pipeline, "secret_infer", lambda d_u, params, net_cfg: adjoint(d_u))
    monkeypatch.setattr(pipeline, "modl_forward", lambda s_u, d_u, params, cfg, net_cfg: seen.append(cfg) or s_u)


def test_recon_nn_rejects_negative_K(tmp_path, monkeypatch, capsys):
    _stub_recon_nn(monkeypatch, [])
    assert run("recon-nn", "--data", "d", "--mask", "m", "--weights", "w", "--K", -1,
               "--out", tmp_path / "nn.ktsr") == 1
    assert "--K" in capsys.readouterr().err
    assert not (tmp_path / "nn.ktsr").exists()


@pytest.mark.parametrize("options, message", [
    (["--K", 0, "--lambda", "nan"], "--lambda needs --K >= 1"),
    (["--lambda", 0.1], "--lambda needs --K >= 1"),
    (["--K", 1, "--lambda", "nan"], "recon-nn: lam must be a finite real number, got nan"),
    (["--K", 1, "--lambda", 0], "recon-nn: K must be >= 1 and lam positive"),
], ids=["K0-nan", "K0-default", "K1-nan", "K1-zero"])
def test_recon_nn_rejects_a_bad_lambda_before_writing(tmp_path, monkeypatch, capsys, options, message):
    seen = []
    _stub_recon_nn(monkeypatch, seen)
    assert run("recon-nn", "--data", "d", "--mask", "m", "--weights", "w", *options,
               "--out", tmp_path / "nn.ktsr") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "nn.ktsr").exists() and seen == []


def test_recon_nn_lambda_reaches_config_and_defaults_to_modl_config(tmp_path, monkeypatch):
    seen = []
    _stub_recon_nn(monkeypatch, seen)
    for options in (["--K", 2], ["--K", 2, "--lambda", 0.1]):
        assert run("recon-nn", "--data", "d", "--mask", "m", "--weights", "w", *options,
                   "--out", tmp_path / "nn.ktsr") == 0
    assert seen == [ModlConfig(K=2), ModlConfig(K=2, lam=0.1)]


def test_train_modl_cli(tmp_path):
    ph = tmp_path / "ph"
    run("phantom", "--out", ph, "--h", 16, "--w", 16, "--t", 8, "--regions", 1, "--seed", 4)
    sub = tmp_path / "ds" / "sample0"
    sub.mkdir(parents=True)
    run("mask", "--out", sub / "mask.ktsr", "--t", 8, "--h", 16, "--w", 16, "--accel", 4, "--seed", 0)
    run("corrupt", "--phantom", ph, "--mask", sub / "mask.ktsr", "--out", sub / "data.ktsr")
    ref = load_tensor(ph / "ref_images.ktsr")
    from ktsecret.container import save_tensor
    save_tensor(sub / "target.ktsr", ref)
    assert run("train-modl", "--data-dir", tmp_path / "ds", "--weights", tmp_path / "wm.ktsr",
               "--K", 1, "--epochs", 1, "--seed", 0) == 0
    assert run("recon-nn", "--data", sub / "data.ktsr", "--mask", sub / "mask.ktsr",
               "--weights", tmp_path / "wm.ktsr", "--K", 1, "--out", tmp_path / "modl.ktsr") == 0


def test_quantify_cli(tmp_path):
    ph = tmp_path / "ph"
    run("phantom", "--out", ph, "--h", 32, "--w", 32, "--t", 8, "--seed", 6)
    roi = (load_tensor(ph / "labels.ktsr") >= 2).astype(np.float64)
    from ktsecret.container import save_tensor
    save_tensor(tmp_path / "roi.ktsr", roi)
    assert run("quantify", "--recon", ph / "ref_images.ktsr", "--aif", ph / "aif_signal.ktsr",
               "--roi", tmp_path / "roi.ktsr", "--dt", 2.0,
               "--out-prefix", tmp_path / "q") == 0
    kt = load_tensor(str(tmp_path / "q") + ".ktrans.ktsr")
    truth_kt = load_tensor(ph / "ktrans.ktsr")
    roi_b = roi > 0.5
    assert np.linalg.norm(kt[roi_b] - truth_kt[roi_b]) / np.linalg.norm(truth_kt[roi_b]) < 0.05
    assert (tmp_path / "q.ktrans.pgm").exists()


def test_profile_cli(tmp_path):
    from ktsecret.container import save_tensor
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(4, 8, 8))
    b = rng.uniform(size=(4, 8, 8))
    save_tensor(tmp_path / "a.ktsr", a)
    save_tensor(tmp_path / "b.ktsr", b)
    assert run("profile", "--inputs", tmp_path / "a.ktsr", tmp_path / "b.ktsr",
               "--row", 3, "--out-prefix", tmp_path / "prof") == 0
    rows = list(csv.reader(open(str(tmp_path / "prof") + ".csv")))
    assert rows[0] == ["input", "frame", "x", "magnitude"]
    # spot-check a read-back value against the source container
    rec = rows[1]
    assert float(rec[3]) == pytest.approx(abs(a[int(rec[1]), 3, int(rec[2])]))
    # panel: two strips of equal height plus a 2-px gap
    header = open(str(tmp_path / "prof") + ".pgm", "rb").readline()
    assert header == b"P5\n"
    # row out of range is an error
    assert run("profile", "--inputs", tmp_path / "a.ktsr", "--row", 99,
               "--out-prefix", tmp_path / "bad") == 1


def test_profile_refuses_inputs_of_different_shapes(tmp_path, capsys):
    save_tensor(tmp_path / "a.ktsr", np.ones((4, 8, 8)))
    save_tensor(tmp_path / "b.ktsr", np.ones((4, 8, 4)))
    assert run("profile", "--inputs", tmp_path / "a.ktsr", tmp_path / "b.ktsr", "--row", 3,
               "--out-prefix", tmp_path / "prof") == 1
    assert "all input series must share one shape" in capsys.readouterr().err
    assert not (tmp_path / "prof.csv").exists()


def test_two_evaluate_runs_append_to_one_metrics_file_under_one_header(tmp_path):
    rng = np.random.default_rng(0)
    ref, recon = rng.uniform(0.5, 1.0, size=(2, 3, 8, 8))
    save_tensor(tmp_path / "ref.ktsr", ref)
    save_tensor(tmp_path / "recon.ktsr", recon)
    for method in ("first", "second"):
        assert run("evaluate", "--recon", tmp_path / "recon.ktsr", "--ref", tmp_path / "ref.ktsr",
                   "--method", method, "--out", tmp_path / "metrics.csv") == 0
    rows = list(csv.reader(open(tmp_path / "metrics.csv", newline="")))
    assert rows[0] == METRICS_HEADER
    assert [(r[0], r[3]) for r in rows[1:]] == [(m, f) for m in ("first", "second") for f in ("0", "1", "2", "mean")]


def test_write_csv_replaces_a_file_unless_appending(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2.5]], append=True)  # a new file gets its header
    write_csv(path, ["a", "b"], [[3, "x"]], append=True)
    assert path.read_bytes() == b"a,b\r\n1,2.5\r\n3,x\r\n"
    write_csv(path, ["c"], iter([[4]]))
    assert path.read_bytes() == b"c\r\n4\r\n"


def test_evaluate_refuses_to_append_under_another_header(tmp_path, capsys):
    series = np.ones((4, 8, 8))
    save_tensor(tmp_path / "s.ktsr", series)
    out = tmp_path / "other.csv"
    out.write_text("a,b\n1,2\n")
    assert run("evaluate", "--recon", tmp_path / "s.ktsr", "--ref", tmp_path / "s.ktsr", "--out", out) == 1
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "a,b\n1,2\n"
    with pytest.raises(ValueError, match=re.escape(f"{out}: its first row is not the header method,")):
        write_csv(out, METRICS_HEADER, [], append=True)
    empty = tmp_path / "empty.csv"
    empty.touch()  # an empty file is new: it gets the header
    write_csv(empty, ["a"], [[1]], append=True)
    assert empty.read_bytes() == b"a\r\n1\r\n"


def test_profile_refuses_a_non_finite_pixel(tmp_path, capsys):
    from ktsecret.container import save_tensor
    series = np.ones((4, 8, 8))
    series[2, 3, 5] = np.nan
    save_tensor(tmp_path / "a.ktsr", series)
    assert run("profile", "--inputs", tmp_path / "a.ktsr", "--row", 3, "--out-prefix", tmp_path / "prof") == 1
    assert "image holds non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "prof.pgm").exists()


def test_pipeline_minimal_file_set(tmp_path):
    config, out = _pipeline_config(tmp_path, method="zf", accel=4.0)
    assert run("pipeline", "--config", config) == 0
    for rel in ["phantom/ref_images.ktsr", "phantom/ktrans.ktsr", "phantom/aif.ktsr",
                "metrics.csv", "R4/mask.ktsr", "R4/data.ktsr", "R4/recon.ktsr",
                "R4/recon_zf.ktsr", "R4/panel.pgm", "R4/ktrans_map.ktsr",
                "R4/ktrans_panel.pgm"]:
        assert (out / rel).exists(), rel


def test_pipeline_deterministic_containers(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    config_a, out_a = _pipeline_config(tmp_path / "a", method="zf", accel=4.0)
    config_b, out_b = _pipeline_config(tmp_path / "b", method="zf", accel=4.0)
    assert run("pipeline", "--config", config_a) == 0
    assert run("pipeline", "--config", config_b) == 0
    for rel in ["phantom/ref_images.ktsr", "R4/mask.ktsr", "R4/data.ktsr", "R4/recon.ktsr"]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_pipeline_accel_sweep_rows(tmp_path):
    config, out = _pipeline_config(tmp_path, method="zf", accel=[3, 6, 10])
    assert run("pipeline", "--config", config) == 0
    with open(out / "metrics.csv") as f:
        rows = list(csv.reader(f))[1:]
    accels = {row[1] for row in rows}
    assert accels == {"3", "6", "10"}
    mean_rows = [r for r in rows if r[3] == "mean"]
    assert len(mean_rows) == 3


def test_pipeline_rejects_unknown_keys(tmp_path):
    config, _ = _pipeline_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["surprise"] = 1
    config.write_text(json.dumps(doc))
    assert run("pipeline", "--config", config) == 1


@pytest.mark.parametrize("method,accel,params", [
    ("cs", 4.0, {"l1": NAN, "tol": NAN}),
    ("zf", [INF], {}),
])
def test_pipeline_rejects_nan_and_infinity_literals(tmp_path, method, accel, params):
    # json.loads accepts the non-standard NaN and Infinity literals json.dumps writes
    config, out = _pipeline_config(tmp_path, method, accel, **params)
    assert "NaN" in config.read_text() or "Infinity" in config.read_text()
    assert run("pipeline", "--config", config) == 1
    assert not out.exists()


@pytest.mark.parametrize("cls,kwargs", [
    (CsConfig, dict(lambda1=NAN)), (CsConfig, dict(lambda1=INF)), (CsConfig, dict(lambda2=NAN)),
    (CsConfig, dict(tol=NAN)), (CsConfig, dict(tol=INF)),
    (SecretConfig, dict(lr=NAN)), (SecretConfig, dict(lr=INF)),
    (ModlConfig, dict(lam=NAN)), (ModlConfig, dict(lam=INF)), (ModlConfig, dict(lr=NAN)),
    (PhantomSpec, dict(dt=NAN)), (PhantomSpec, dict(dt=INF)), (PhantomSpec, dict(noise_sigma=INF)),
    (PhantomSpec, dict(ktrans_range=(NAN, 0.5))), (PhantomSpec, dict(vp_range=(0.02, INF))),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_config_dataclasses_reject_non_finite_floats(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


@pytest.mark.parametrize("cls,kwargs", [
    (CsConfig, dict(max_iters=2.5)), (CsConfig, dict(max_iters=True)), (CsConfig, dict(max_iters="3")),
    (SecretConfig, dict(epochs=2.5)), (SecretConfig, dict(batch=True)), (SecretConfig, dict(seed=1.5)),
    (ModlConfig, dict(K=1.5)), (ModlConfig, dict(K=True)), (ModlConfig, dict(batch=0.5)),
    (ModlConfig, dict(seed=np.float64(2))),
    (PhantomSpec, dict(h=16.5, w=16, t=8)), (PhantomSpec, dict(w=True)), (PhantomSpec, dict(t=8.0)),
    (PhantomSpec, dict(n_tissue_regions=2.0)), (PhantomSpec, dict(seed=np.True_)),
    (NetConfig, dict(frames=8.0)), (NetConfig, dict(frames=8, depth_levels=True)),
    (NetConfig, dict(frames=8, base_channels=np.float32(4))),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_config_dataclasses_reject_non_integer_ints(cls, kwargs):
    with pytest.raises(ValueError, match="integer"):
        cls(**kwargs)
    # the range check's ValueError, so the pipeline boundary reports it as a ConfigError
    with pytest.raises(ConfigError, match="integer"):
        pipeline._build(cls, {}, "config", **kwargs)


@pytest.mark.parametrize("kwargs", [dict(dt=10 ** 5000), dict(ktrans_range=(0.1, 10 ** 5000))],
                         ids=["float field", "tuple field"])
def test_rejected_value_too_long_to_print_still_names_its_field(kwargs):
    # str() refuses an int of more than 4300 digits; the message must not fail with it
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be .*, got a value of type"):
        PhantomSpec(**kwargs)


def test_config_dataclasses_accept_numpy_integers():
    spec = PhantomSpec(h=np.int64(16), w=np.int32(16), t=np.int64(8), n_tissue_regions=np.int8(2),
                       seed=np.uint32(1))
    truth = synthesize(spec)
    d = corrupt(truth, make_radial_mask(8, 16, 16, 4.0, seed=0), 0.0, seed=0)
    _, log = cs_reconstruct(d, CsConfig(max_iters=np.int64(2)))
    assert len(log.objective) <= 3
    SecretConfig(epochs=np.int32(2), batch=np.uint8(1), seed=np.int64(4))
    ModlConfig(K=np.int16(2), epochs=np.int64(1), batch=np.int64(0))
    NetConfig(frames=np.int64(8), depth_levels=np.int64(1), base_channels=np.int64(4))


def test_write_pgm_shape(tmp_path):
    write_pgm(tmp_path / "x.pgm", np.eye(4))
    blob = (tmp_path / "x.pgm").read_bytes()
    assert blob.startswith(b"P5\n4 4\n255\n")
    assert len(blob) == len(b"P5\n4 4\n255\n") + 16


def _valid_config(tmp_path, method="zf", **method_params):
    return {
        "seed": 5,
        "phantom": {"h": 16, "w": 16, "t": 8, "dt": 2.0, "n_tissue_regions": 1,
                    "ktrans_range": [0.1, 0.6], "noise_sigma": 0.0, "seed": 5},
        "mask": {"accel": [3, 4], "seed": 1},
        "method": method,
        "method_params": method_params,
        "output_dir": str(tmp_path / "out"),
    }


def _drop(*path):
    def edit(cfg):
        for key in path[:-1]:
            cfg = cfg[key]
        del cfg[path[-1]]
    return edit


def _put(*path_and_value):
    *path, value = path_and_value

    def edit(cfg):
        for key in path[:-1]:
            cfg = cfg[key]
        cfg[path[-1]] = value
    return edit


MALFORMED = {
    "missing seed": _drop("seed"),
    "missing phantom": _drop("phantom"),
    "missing mask": _drop("mask"),
    "missing method": _drop("method"),
    "missing output_dir": _drop("output_dir"),
    "missing mask.accel": _drop("mask", "accel"),
    "missing mask.seed": _drop("mask", "seed"),
    "extra top-level key": _put("surprise", 1),
    "extra phantom key": _put("phantom", "depth", 3),
    "extra mask key": _put("mask", "shape", "radial"),
    "extra method_params key": _put("method_params", "iters", 5),
    "bool seed": _put("seed", True),
    "string seed": _put("seed", "5"),
    "bool phantom.h": _put("phantom", "h", True),
    "string phantom.t": _put("phantom", "t", "8"),
    "float phantom.seed": _put("phantom", "seed", 1.5),
    "string mask.seed": _put("mask", "seed", "1"),
    "string phantom.dt": _put("phantom", "dt", "2"),
    "empty accel": _put("mask", "accel", []),
    "string accel": _put("mask", "accel", "fast"),
    "non-numeric accel item": _put("mask", "accel", [3, "x"]),
    "bool accel": _put("mask", "accel", True),
    "accel below 1": _put("mask", "accel", [4, 0.5]),
    "duplicate accel": _put("mask", "accel", [4, 4.0]),
    "accels sharing a directory name": _put("mask", "accel", [3.0000001, 3.0000002]),
    "3-item ktrans_range": _put("phantom", "ktrans_range", [0.1, 0.3, 0.6]),
    "1-item vp_range": _put("phantom", "vp_range", [0.1]),
    "unknown method": _put("method", "fft"),
    "list method_params": _put("method_params", [1]),
    "string method_params": _put("method_params", "iters=5"),
    "non-object phantom": _put("phantom", [16, 16]),
    "non-object mask": _put("mask", 4),
    "non-string output_dir": _put("output_dir", 5),
    "NaN phantom.dt": _put("phantom", "dt", NAN),
    "infinite phantom.dt": _put("phantom", "dt", INF),
    "NaN in ktrans_range": _put("phantom", "ktrans_range", [NAN, 0.5]),
    "infinite vp_range max": _put("phantom", "vp_range", [0.02, INF]),
    "NaN noise_sigma": _put("phantom", "noise_sigma", NAN),
    "infinite accel": _put("mask", "accel", [INF]),
    "NaN accel": _put("mask", "accel", [3, NAN]),
    "phantom.dt beyond float64": _put("phantom", "dt", 10**400),
    "accel beyond float64": _put("mask", "accel", [3, 10**400]),
    "negative seed": _put("seed", -1),
    "negative phantom.seed": _put("phantom", "seed", -1),
    "negative mask.seed": _put("mask", "seed", -1),
    "non-power-of-two phantom.h": _put("phantom", "h", 12),
    "negative n_tissue_regions": _put("phantom", "n_tissue_regions", -1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_pipeline_rejects_malformed_config(tmp_path, case):
    cfg = _valid_config(tmp_path)
    MALFORMED[case](cfg)
    with pytest.raises(ConfigError):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("accel", [[3, 1000], 1000])
def test_pipeline_refuses_unachievable_accel_before_writing(tmp_path, accel):
    # 1000x leaves no spoke on a 16x16 frame; the sweep must not start and write the 3x outputs first
    cfg = _valid_config(tmp_path)
    cfg["mask"]["accel"] = accel
    with pytest.raises(ConfigError, match="^mask.accel: acceleration unachievable"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h, w", [(4, 4), (2, 4)])
def test_pipeline_refuses_a_phantom_too_small_to_draw_before_writing(tmp_path, h, w):
    cfg = _valid_config(tmp_path)
    cfg["phantom"].update(h=h, w=w)
    with pytest.raises(ConfigError, match="^phantom: need h, w >= 8"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="^phantom: need h, w >= 8"):
        cli._options_config(build_parser().parse_args(["phantom", "--out", "o", "--h", str(h), "--w", str(w)]))


@pytest.mark.parametrize("h, w, regions, label", [(8, 8, 7, 8), (128, 8, 5, 5)])
def test_pipeline_and_phantom_refuse_a_spec_that_draws_an_empty_label_before_writing(tmp_path, h, w, regions,
                                                                                      label):
    message = f"^phantom: n_tissue_regions={regions} does not fit {h}x{w}: region label {label} would draw no pixel"
    cfg = _valid_config(tmp_path)
    cfg["phantom"].update(h=h, w=w, n_tissue_regions=regions)
    with pytest.raises(ConfigError, match=message):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()
    argv = ["phantom", "--out", str(tmp_path / "ph"), "--h", str(h), "--w", str(w), "--regions", str(regions)]
    with pytest.raises(ConfigError, match=message):
        cli.cmd_phantom(build_parser().parse_args(argv))
    assert run(*argv) == 1
    assert not (tmp_path / "ph").exists()


def test_pipeline_rejects_non_object_config():
    with pytest.raises(ConfigError):
        run_pipeline([])


@pytest.mark.parametrize("method,params,key", [
    ("cs", {"iterz": 1}, "iterz"),
    ("cs", {"weights": "w.ktsr"}, "weights"),
    ("secret", {"batch": 2}, "batch"),
    ("secret", {"K": 1}, "K"),
    ("modl", {"lam": 0.1}, "lam"),
    ("zf", {"iters": 5}, "iters"),
    ("modl", {"epochs": 2, "weights": "w.ktsr"}, "epochs"),
    # given weights nothing trains, so a training key would be accepted and ignored
    ("secret", {"weights": "w.ktsr", "epochs": 1}, "epochs"),
    ("secret", {"weights": "w.ktsr", "epochs": 500, "lr": 0.5}, "lr"),
])
def test_pipeline_rejects_unknown_method_params(tmp_path, method, params, key):
    with pytest.raises(ConfigError, match=key):
        run_pipeline(_valid_config(tmp_path, method, **params))


@pytest.mark.parametrize("method,params", [
    ("cs", {"iters": 0}),
    ("cs", {"iters": 2.5}),
    ("cs", {"l1": "big"}),
    ("secret", {"lr": -1.0}),
    ("modl", {"K": 0}),
    ("modl", {"weights": 3}),
    ("cs", {"l1": NAN}),
    ("cs", {"l1": INF}),
    ("cs", {"tol": NAN}),
    ("secret", {"lr": NAN}),
    ("modl", {"lambda": NAN}),
    ("modl", {"lambda": INF}),
    ("modl", {"lr": NAN}),
])
def test_pipeline_rejects_bad_method_param_values(tmp_path, method, params):
    with pytest.raises(ConfigError):
        run_pipeline(_valid_config(tmp_path, method, **params))


def test_method_configs_take_dataclass_defaults_and_pipeline_epochs():
    assert pipeline._method_config("cs", {}, 5) == (CsConfig(), None)
    assert pipeline._method_config("cs", {"l1": 0.01, "iters": 7}, 5)[0] == CsConfig(lambda1=0.01, max_iters=7)
    assert pipeline._method_config("secret", {}, 5) == (SecretConfig(epochs=30, seed=5), None)
    assert pipeline._method_config("modl", {"lambda": 0.1, "K": 2, "weights": "w.ktsr"}, 7) == (
        ModlConfig(K=2, lam=0.1), "w.ktsr")
    assert pipeline._method_config("zf", {}, 5) == (None, None)


def test_cli_defaults_come_from_config_dataclasses():
    parser = build_parser()
    cs = parser.parse_args(["recon-cs", "--data", "d", "--mask", "m", "--out", "o"])
    assert (cs.l1, cs.l2, cs.iters, cs.tol) == (CsConfig.lambda1, CsConfig.lambda2,
                                                CsConfig.max_iters, CsConfig.tol)
    sec = parser.parse_args(["train-secret", "--data-dir", "d", "--weights", "w"])
    assert (sec.epochs, sec.lr, sec.batch) == (SecretConfig.epochs, SecretConfig.lr, SecretConfig.batch)
    modl = parser.parse_args(["train-modl", "--data-dir", "d", "--weights", "w"])
    assert (modl.K, getattr(modl, "lambda"), modl.epochs, modl.lr, modl.batch) == (
        ModlConfig.K, ModlConfig.lam, ModlConfig.epochs, ModlConfig.lr, ModlConfig.batch)
    ph = parser.parse_args(["phantom", "--out", "o"])
    assert (ph.h, ph.w, ph.t, ph.dt, ph.regions, tuple(ph.ktrans_range), tuple(ph.vp_range),
            ph.seed) == (PhantomSpec.h, PhantomSpec.w, PhantomSpec.t, PhantomSpec.dt, PhantomSpec.n_tissue_regions,
                         PhantomSpec.ktrans_range, PhantomSpec.vp_range, PhantomSpec.seed)


def test_train_modl_batch_reaches_config(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_train", lambda args, train_fn, cfg, supervised: seen.append(cfg) or 0)
    assert run("train-modl", "--data-dir", "d", "--weights", "w", "--batch", 2) == 0
    assert seen == [ModlConfig(batch=2)]


@pytest.mark.parametrize("argv, expected", [
    (["recon-cs", "--data", "d", "--mask", "m", "--out", "o.ktsr", "--l1", 0.01, "--iters", 3],
     CsConfig(lambda1=0.01, max_iters=3)),
    (["train-secret", "--data-dir", "d", "--weights", "w", "--epochs", 2, "--batch", 0, "--seed", 4],
     SecretConfig(epochs=2, batch=0, seed=4)),
    (["train-modl", "--data-dir", "d", "--weights", "w", "--K", 2, "--lambda", 0.1], ModlConfig(K=2, lam=0.1)),
], ids=["recon-cs", "train-secret", "train-modl"])
def test_options_reach_config(tmp_path, monkeypatch, argv, expected):
    seen = []
    monkeypatch.setattr(cli, "_train", lambda args, train_fn, cfg, supervised: seen.append(cfg) or 0)
    monkeypatch.setattr(cli, "load_ktdata", lambda data, mask: None)
    monkeypatch.setattr(cs_module, "cs_reconstruct",
                        lambda d_u, cfg, spare=None: seen.append(cfg) or (np.zeros((8, 4, 4)),
                                                                          cs_module.ConvergenceLog()))
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 0
    assert seen == [expected]


@pytest.mark.parametrize("argv", [
    ["recon-cs", "--data", "d", "--mask", "m", "--out", "o", "--tol", "nan"],
    ["train-secret", "--data-dir", "d", "--weights", "w", "--lr", "inf"],
    ["phantom", "--out", "o", "--vp-range", "0.02", "inf"],
], ids=["recon-cs-tol", "train-secret-lr", "phantom-vp-range"])
def test_out_of_range_option_is_config_error(argv):
    with pytest.raises(ConfigError, match=f"^{argv[0]}: "):
        cli._options_config(build_parser().parse_args(argv))


def test_mask_with_zero_frames_exits_1(tmp_path, capsys):
    assert run("mask", "--out", tmp_path / "m.ktsr", "--t", 0, "--h", 8, "--w", 8, "--accel", 2.0) == 1
    assert "frame" in capsys.readouterr().err
    assert not (tmp_path / "m.ktsr").exists()


@pytest.mark.parametrize("command, value, message", [
    ("mask", "nan", "acceleration must be >= 1 and finite, got nan"),
    ("corrupt", "nan", "noise_sigma must be >= 0 and finite, got nan"),
    ("corrupt", "-0.5", "noise_sigma must be >= 0 and finite, got -0.5"),
    ("quantify", "-2", "dt must be positive and finite, got -2.0"),
    ("quantify", "nan", "dt must be positive and finite, got nan"),
], ids=["mask-accel-nan", "corrupt-noise-nan", "corrupt-noise-negative", "quantify-dt-negative",
        "quantify-dt-nan"])
def test_bad_value_at_a_boundary_exits_1(tmp_path, capsys, command, value, message):
    ph, mask = tmp_path / "ph", tmp_path / "m.ktsr"
    assert run("phantom", "--out", ph, "--h", 16, "--w", 16, "--t", 8, "--seed", 3) == 0
    assert run("mask", "--out", mask, "--t", 8, "--h", 16, "--w", 16, "--accel", 2) == 0
    out = tmp_path / "out.ktsr"
    argv = {
        "mask": ["--out", out, "--t", 8, "--h", 16, "--w", 16, "--accel", value],
        "corrupt": ["--phantom", ph, "--mask", mask, "--out", out, "--noise", value],
        "quantify": ["--recon", ph / "ref_images.ktsr", "--aif", ph / "aif_signal.ktsr",
                     "--roi", ph / "labels.ktsr", "--dt", value, "--out-prefix", tmp_path / "q"],
    }[command]
    capsys.readouterr()
    assert run(command, *argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ktsr", "m.ktsr.json", "ph"]


@pytest.mark.parametrize("command", ["evaluate", "quantify", "profile"])
def test_two_dimensional_series_exits_1_naming_its_shape(tmp_path, capsys, command):
    from ktsecret.container import save_tensor
    frame = tmp_path / "frame.ktsr"
    save_tensor(frame, np.ones((8, 8)))
    argv = {
        "evaluate": ["--recon", frame, "--ref", frame, "--out", tmp_path / "metrics.csv"],
        "quantify": ["--recon", frame, "--aif", frame, "--roi", frame, "--dt", 2.0,
                     "--out-prefix", tmp_path / "q"],
        "profile": ["--inputs", frame, "--row", 0, "--out-prefix", tmp_path / "prof"],
    }[command]
    assert run(command, *argv) == 1
    assert "[T,H,W] series, got shape (8, 8)" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["frame.ktsr"]


def test_phantom_options_reach_spec(tmp_path):
    assert run("phantom", "--out", tmp_path, "--regions", 2, "--ktrans-range", 0.2, 0.3) == 0
    spec = PhantomSpec(n_tissue_regions=2, ktrans_range=(0.2, 0.3))
    assert json.loads((tmp_path / "spec.json").read_text()) == json.loads(json.dumps(spec.__dict__))
    with pytest.raises(SystemExit):  # the noise is corrupt's --noise
        build_parser().parse_args(["phantom", "--out", "o", "--noise", "0.01"])


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_worker_count_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("KTSECRET_THREADS", value)
    with pytest.raises(ConfigError, match="KTSECRET_THREADS"):
        worker_count()


def test_worker_count_reads_env(monkeypatch):
    monkeypatch.setenv("KTSECRET_THREADS", "3")
    assert worker_count() == 3


def test_load_mask_rejects_fractional_bits(tmp_path):
    from ktsecret.container import save_tensor

    bits = np.ones((2, 8, 8))
    bits[0, 2, 2] = 0.5
    save_tensor(tmp_path / "m.ktsr", bits)
    (tmp_path / "m.ktsr.json").write_text(json.dumps({"accel": 1.0, "seed": 0}))
    with pytest.raises(ValueError, match="0/1"):
        load_mask(tmp_path / "m.ktsr")


@pytest.fixture
def blas_threads(monkeypatch):
    """get_num_threads, with no thread variable set and two pipeline workers."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("KTSECRET_THREADS", "2")
    return openblas_threads()


def _record_blas_threads(monkeypatch, get, fail=False):
    """Replaces pipeline._reconstruct by one that records the count in the worker."""
    seen = []
    reconstruct = pipeline._reconstruct

    def recording(*args):
        seen.append(get())
        if fail:
            raise RuntimeError("worker failed")
        return reconstruct(*args)

    monkeypatch.setattr(pipeline, "_reconstruct", recording)
    return seen


@pytest.mark.parametrize("method,params", [("zf", {}), ("cs", {"iters": 2})])
def test_pipeline_caps_blas_threads_per_worker(tmp_path, monkeypatch, blas_threads, method, params):
    before = blas_threads()
    seen = _record_blas_threads(monkeypatch, blas_threads)
    assert run_pipeline(_valid_config(tmp_path, method, **params)) == 0
    assert seen == [min(before, max(1, os.cpu_count() // 2))] * 2
    assert blas_threads() == before


def test_pipeline_restores_blas_threads_when_a_worker_raises(tmp_path, monkeypatch, blas_threads):
    before = blas_threads()
    seen = _record_blas_threads(monkeypatch, blas_threads, fail=True)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_pipeline(_valid_config(tmp_path))
    assert seen and blas_threads() == before


def _three_accelerations(tmp_path, method="zf", **params):
    config = _valid_config(tmp_path, method, **params)
    config["mask"]["accel"] = [3, 6, 10]
    return config


def test_pipeline_hands_the_core_of_a_finished_job_to_a_running_solve(tmp_path, monkeypatch, blas_threads):
    """Three accelerations on two workers and two cores: while the first two
    jobs run no core is spare; the third job's solve gets the core of the one
    that ends last, through the semaphore it is given as its spare. The BLAS
    cap stays cpu_count // workers throughout."""
    monkeypatch.setenv("KTSECRET_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = blas_threads()
    calls, both_running, seen = itertools.count(), threading.Barrier(2, timeout=30), []
    solve = cs_module.cs_reconstruct

    def recording(d_u, cfg, spare=None):
        seen.append(blas_threads())
        if next(calls) < 2:
            both_running.wait()
            assert not spare.acquire(blocking=False), "a spare core while both workers are busy"
        else:
            assert spare.acquire(timeout=30), "no core freed for the last solve"
            spare.release()
        return solve(d_u, cfg, spare=spare)

    monkeypatch.setattr(cs_module, "cs_reconstruct", recording)
    assert run_pipeline(_three_accelerations(tmp_path, "cs", iters=2)) == 0
    assert seen == [max(1, min(before, 1))] * 3
    assert blas_threads() == before


def test_pipeline_spare_cores_stay_counted_with_more_workers_than_cores(tmp_path, monkeypatch):
    """Three workers on two cores, six jobs, a short switch interval: a running
    job never sees both cores spare, and once every job has ended both are."""
    monkeypatch.setenv("KTSECRET_THREADS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spares, seen = {}, []

    def solve(d_u, cfg, spare=None):
        spares[id(spare)] = spare
        held = 0
        while spare.acquire(blocking=False):
            held += 1
        seen.append(held)
        for _ in range(held):
            spare.release()
        return adjoint(d_u), cs_module.ConvergenceLog(objective=[2.0, 1.0], backtracks=[0])

    monkeypatch.setattr(cs_module, "cs_reconstruct", solve)
    config = _valid_config(tmp_path, "cs")
    config["mask"]["accel"] = [2, 3, 4, 5, 6, 8]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert run_pipeline(config) == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(spares) == 5 and len(seen) == 30 and max(seen) <= 1
    for spare in spares.values():
        assert [spare.acquire(blocking=False) for _ in range(3)] == [True, True, False]


def test_recon_cs_output_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    """recon-cs offers its solve every other core as spare, and writes the same
    bytes on one core, where the solve runs alone, and on four, where its helper
    joins."""
    ph = tmp_path / "ph"
    run("phantom", "--out", ph, "--h", 16, "--w", 16, "--t", 8, "--regions", 1, "--seed", 1)
    run("mask", "--out", tmp_path / "m.ktsr", "--t", 8, "--h", 16, "--w", 16, "--accel", 4, "--seed", 0)
    run("corrupt", "--phantom", ph, "--mask", tmp_path / "m.ktsr", "--out", tmp_path / "d.ktsr")
    permits, solve = [], cs_module.cs_reconstruct

    def recording(d_u, cfg, spare=None):
        held = 0
        while spare.acquire(blocking=False):
            held += 1
        permits.append(held)
        for _ in range(held):
            spare.release()
        return solve(d_u, cfg, spare=spare)

    monkeypatch.setattr(cs_module, "cs_reconstruct", recording)
    for cores in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert run("recon-cs", "--data", tmp_path / "d.ktsr", "--mask", tmp_path / "m.ktsr",
                   "--out", tmp_path / f"cs{cores}.ktsr", "--iters", 10) == 0
    assert permits == [0, 3]
    for suffix in (".ktsr", ".convergence.csv"):
        assert (tmp_path / f"cs1{suffix}").read_bytes() == (tmp_path / f"cs4{suffix}").read_bytes()


def test_pipeline_restores_blas_threads_when_a_later_job_raises(tmp_path, monkeypatch, blas_threads):
    before = blas_threads()
    seen, reconstruct = [], pipeline._reconstruct

    def third_fails(*args):
        seen.append(blas_threads())
        if len(seen) == 3:
            raise RuntimeError("the third job failed")
        return reconstruct(*args)

    monkeypatch.setattr(pipeline, "_reconstruct", third_fails)
    with pytest.raises(RuntimeError, match="the third job failed"):
        run_pipeline(_three_accelerations(tmp_path))
    assert len(seen) == 3 and blas_threads() == before


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_setting_leaves_blas_threads_alone(tmp_path, monkeypatch, blas_threads, var):
    before = blas_threads()
    monkeypatch.setenv(var, "4")
    seen = _record_blas_threads(monkeypatch, blas_threads)
    assert run_pipeline(_valid_config(tmp_path)) == 0
    assert seen == [before] * 2


def test_blas_cap_is_a_no_op_without_the_bundled_openblas(tmp_path, monkeypatch, blas_threads):
    # a numpy linked against another BLAS: its library has no scipy_openblas_* symbols to call
    import ctypes

    loaded = []

    class OtherBlas:
        def __init__(self, path):
            loaded.append(path)

    monkeypatch.setattr(ctypes, "CDLL", OtherBlas)
    before = blas_threads()
    with pipeline._blas_threads_per_worker(2):
        assert blas_threads() == before
    assert len(loaded) == 1
    seen = _record_blas_threads(monkeypatch, blas_threads)
    assert run_pipeline(_valid_config(tmp_path)) == 0
    assert seen == [before] * 2 and blas_threads() == before


def _assert_r6_alone_equals_r6_swept(tmp_path, method, size, **params):
    """Alone, R6 gets every BLAS thread; in a sweep of three it shares them.
    Its files and its metrics.csv rows must not tell the two runs apart."""
    files, rows = [], []
    for accels in ([6], [3, 6, 10]):
        cfg = _valid_config(tmp_path / method / str(len(accels)), method, **params)
        cfg["phantom"].update(h=size, w=size)
        cfg["mask"] = {"accel": accels, "seed": 2}
        assert run_pipeline(cfg) == 0
        out = Path(cfg["output_dir"])
        files.append(sorted((out / "R6").iterdir()))
        rows.append([r for r in csv.reader(open(out / "metrics.csv")) if r[1] == "6"])
    assert [p.name for p in files[0]] == [p.name for p in files[1]]
    for alone, swept in zip(*files):
        assert alone.read_bytes() == swept.read_bytes(), alone.name
    assert len(rows[0]) == 9 and rows[0] == rows[1]


def test_pipeline_cs_files_do_not_depend_on_the_other_accelerations(tmp_path, blas_threads):
    # at 128² a frame has more elements than BLAS sums in one thread
    _assert_r6_alone_equals_r6_swept(tmp_path, "zf", 128)
    _assert_r6_alone_equals_r6_swept(tmp_path, "cs", 128, iters=2)


@pytest.mark.parametrize("method", ["secret", "modl"])
def test_pipeline_learned_files_do_not_depend_on_the_other_accelerations(tmp_path, blas_threads, method):
    params = {"epochs": 2}  # the pipeline trains SECRET on the scan; MoDL reads saved weights
    if method == "modl":
        params = {"weights": _save_weights(tmp_path / "w.ktsr", base_channels=16)}
    _assert_r6_alone_equals_r6_swept(tmp_path, method, 32, **params)


def test_import_leaves_blas_threads_and_environment_alone():
    openblas_threads()
    probe = (
        "import ctypes, os\n"
        "from numpy.linalg import _umath_linalg\n"
        "get = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_\n"
        "before, env = get(), dict(os.environ)\n"
        "import ktsecret.cli\n"
        "assert (get(), dict(os.environ)) == (before, env)\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def _save_weights(path, **net):
    net_cfg = NetConfig(**{"frames": 8, "base_channels": 4, **net})
    save_params(path, init_params(net_cfg, 0))
    return str(path)


@pytest.mark.parametrize("case", ["missing", "corrupt", "huge", "frames", "depth", "not-utf8"])
def test_pipeline_checks_pretrained_weights_before_writing(tmp_path, case):
    weights = tmp_path / "w.ktsr"
    if case == "corrupt":
        _save_weights(weights)
        weights.write_bytes(b"not a container")
    elif case == "huge":  # a descriptor naming a network far larger than its vector
        _save_weights(weights)
        sidecar = Path(str(weights) + ".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "frames": 10 ** 18}))
    elif case == "not-utf8":  # a descriptor behind a UTF-16 byte-order mark
        _save_weights(weights)
        sidecar = Path(str(weights) + ".json")
        sidecar.write_bytes(b"\xff\xfe" + sidecar.read_bytes())
    elif case != "missing":
        _save_weights(weights, **({"frames": 16} if case == "frames" else {"depth_levels": 5}))
    cfg = _valid_config(tmp_path, "secret", weights=str(weights))  # a 16x16x8 phantom
    with pytest.raises(ConfigError, match="^method_params.weights: "):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


def test_pipeline_modl_without_weights_is_refused_before_writing(tmp_path):
    # trained in the pipeline, MoDL would learn the very reference metrics.csv scores it against
    with pytest.raises(ConfigError, match="^method_params.weights: .*train-modl"):
        run_pipeline(_valid_config(tmp_path, "modl", K=1))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["zf", "cs", "secret", "modl"])
def test_pipeline_reconstruction_never_reads_the_reference(tmp_path, monkeypatch, method):
    """The pipeline twin of criterion 5: with every reference image doubled but
    the measurement taken of the true phantom, each recon.ktsr is unchanged."""
    params = {"cs": {"iters": 5}, "secret": {"epochs": 2},
              "modl": {"weights": _save_weights(tmp_path / "w.ktsr")}}.get(method, {})

    def run_into(name):
        cfg = _valid_config(tmp_path / name, method, **params)
        cfg["phantom"]["noise_sigma"] = 0.02
        assert run_pipeline(cfg) == 0
        return Path(cfg["output_dir"])

    true, truths = run_into("true"), []

    def synthesize_doubled(spec):
        truths.append(synthesize(spec))
        return dataclasses.replace(truths[-1], ref_images=2 * truths[-1].ref_images)
    monkeypatch.setattr(pipeline, "synthesize", synthesize_doubled)
    monkeypatch.setattr(pipeline, "corrupt", lambda truth, *args: corrupt(truths[-1], *args))
    doubled = run_into("doubled")
    # the scores did read the doubled reference
    assert (true / "metrics.csv").read_bytes() != (doubled / "metrics.csv").read_bytes()
    for sub in ("R3", "R4"):
        assert (true / sub / "recon.ktsr").read_bytes() == (doubled / sub / "recon.ktsr").read_bytes(), sub


def test_pipeline_reads_pretrained_weights_once_per_sweep(tmp_path, monkeypatch):
    weights = _save_weights(tmp_path / "w.ktsr")
    calls, load = [], pipeline.load_params
    monkeypatch.setattr(pipeline, "load_params", lambda path: calls.append(path) or load(path))
    cfg = _valid_config(tmp_path, "secret", weights=weights)
    assert len(cfg["mask"]["accel"]) == 2
    assert run_pipeline(cfg) == 0
    assert calls == [weights]
    assert all((tmp_path / "out" / sub / "recon.ktsr").exists() for sub in ("R3", "R4"))


@pytest.mark.parametrize("net, message", [
    ({"frames": 16}, r"series of shape \(8, 16, 16\), expected \(16, H, W\)"),
    ({"depth_levels": 5}, r"series of shape \(8, 16, 16\), expected \(8, H, W\), H and W multiples of 32"),
], ids=["frames", "depth"])
@pytest.mark.parametrize("K", [0, 2])
def test_recon_nn_refuses_weights_that_do_not_fit_before_writing(tmp_path, capsys, net, message, K):
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)  # 8 frames of 16x16
    save_mask(tmp_path / "m.ktsr", mask, seed=0)
    save_tensor(tmp_path / "d.ktsr", np.zeros(mask.shape, dtype=complex))
    argv = ["recon-nn", "--data", tmp_path / "d.ktsr", "--mask", tmp_path / "m.ktsr", "--K", K,
            "--weights", _save_weights(tmp_path / "w.ktsr", **net), "--out", tmp_path / "nn.ktsr"]
    with pytest.raises(ConfigError, match="^recon-nn: " + message):
        cli.cmd_recon_nn(build_parser().parse_args([str(a) for a in argv]))
    assert run(*argv) == 1
    assert re.search("error: recon-nn: " + message, capsys.readouterr().err)
    assert not (tmp_path / "nn.ktsr").exists()


@pytest.mark.parametrize("argv", [
    ["recon-zf", "--data", "d", "--mask", "m", "--out", "o"],
    ["recon-cs", "--data", "d", "--mask", "m", "--out", "o"],
    ["recon-nn", "--data", "d", "--mask", "m", "--weights", "w", "--out", "o"],
    ["evaluate", "--recon", "r", "--ref", "f", "--out", "o"],
    ["quantify", "--recon", "r", "--aif", "a", "--roi", "q", "--dt", "2", "--out-prefix", "o"],
    ["profile", "--inputs", "i", "--row", "0", "--out-prefix", "o"],
], ids=lambda argv: argv[0])
def test_a_command_that_draws_nothing_at_random_refuses_seed(argv, capsys):
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [("[1, 2]", "is not a JSON object"), ('{"seed": ', "is not UTF-8 JSON")],
                         ids=["list", "not-json"])
def test_pipeline_config_that_is_not_a_json_object_is_a_config_error_naming_it(tmp_path, capsys, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} {message}"):
        cli.cmd_pipeline(build_parser().parse_args(["pipeline", "--config", str(path), "--seed", "3"]))
    assert run("pipeline", "--config", path, "--seed", 3) == 1
    assert f"error: {path} {message}" in capsys.readouterr().err


def test_pipeline_seed_option_overrides_the_config_seed(tmp_path):
    def data_of(name, seed, *option):
        cfg = _valid_config(tmp_path / name)
        cfg["seed"], cfg["phantom"]["noise_sigma"] = seed, 0.02  # the run seed draws the noise
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path, *option) == 0
        return (Path(cfg["output_dir"]) / "R3" / "data.ktsr").read_bytes()

    overridden = data_of("option", 5, "--seed", 9)
    assert overridden == data_of("config", 9)
    assert overridden != data_of("default", 5)


def test_a_second_pipeline_run_into_one_output_dir_replaces_metrics_csv(tmp_path):
    cfg = _valid_config(tmp_path)
    assert run_pipeline(cfg) == 0
    first = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert len(first.splitlines()) == 1 + 2 * (8 + 1)  # header, then per accel 8 frames and a mean
    assert run_pipeline(cfg) == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == first


def test_train_secret_on_a_directory_without_samples_exits_1_naming_it(tmp_path, capsys):
    data_dir = tmp_path / "empty"
    data_dir.mkdir()
    (data_dir / "notes.txt").write_text("")  # a file is not a sample directory
    assert run("train-secret", "--data-dir", data_dir, "--weights", tmp_path / "w.ktsr", "--epochs", 1) == 1
    assert f"no sample directories under {data_dir}" in capsys.readouterr().err
    assert not (tmp_path / "w.ktsr").exists()
