import json
import os
from pathlib import Path

import numpy as np
import pytest

from radonet import training
from radonet.cli import DEFAULT_CONFIG, config_hash, content_hash, main, resolve_config


def run_cli(*argv, expect=0, capsys=None):
    code = main(list(argv))
    assert code == expect, f"radonet {' '.join(argv)} exited {code}, wanted {expect}"
    if capsys is not None:
        return capsys.readouterr()
    return None


def read_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    doc = json.loads(err)
    assert set(doc) == {"error"} and {"kind", "message"} <= set(doc["error"])
    return doc["error"]


MICRO = {
    "problem": "advection",
    "seed": 3,
    "counts": {"train": 6, "val": 3, "test": 4},
    "data": {"n_grid": 256},
    "preprocess": {"n_xi": 16},
    "model": {"n_basis": 8, "branch_hidden": [16, 16], "trunk_hidden": [16, 16],
              "output_points": 32},
    "train": {"epochs": 30, "validation_cadence": 10, "base_lr": 3e-3},
}


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    """A tiny advection pipeline: dataset, prep, one model per family, evals."""
    root = tmp_path_factory.mktemp("micro")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(MICRO))
    paths = {
        "cfg": cfg_path,
        "data": root / "data",
        "prep": root / "prep",
        "van": root / "van",
        "rad": root / "rad",
        "van_eval": root / "van_eval",
        "rad_eval": root / "rad_eval",
    }
    c = str(cfg_path)
    run_cli("datagen", "--config", c, "--out", str(paths["data"]))
    run_cli("preprocess", "--config", c, "--dataset", str(paths["data"]),
            "--out", str(paths["prep"]))
    run_cli("train", "--config", c, "--dataset", str(paths["data"]),
            "--out", str(paths["van"]))
    run_cli("train", "--config", c, "--set", "model.family=radaptive",
            "--dataset", str(paths["data"]), "--prep", str(paths["prep"]),
            "--out", str(paths["rad"]))
    run_cli("eval", "--config", c, "--model", str(paths["van"]),
            "--dataset", str(paths["data"]), "--out", str(paths["van_eval"]))
    run_cli("eval", "--config", c, "--set", "model.family=radaptive",
            "--model", str(paths["rad"]), "--dataset", str(paths["data"]),
            "--out", str(paths["rad_eval"]))
    return paths


def test_show_defaults(capsys):
    out = run_cli("config", "show-defaults", capsys=capsys).out
    assert json.loads(out) == DEFAULT_CONFIG


def test_config_merge_and_overrides(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"model": {"n_basis": 16}, "data": {"n_grid": 512}}))

    class Args:
        config = str(cfg_file)
        set = ["train.epochs=7", "preprocess.ratio_limit=null", "data.dt=0.001"]

    cfg = resolve_config(Args())
    assert cfg["model"]["n_basis"] == 16
    assert cfg["model"]["family"] == "vanilla"  # default survives
    assert cfg["train"]["epochs"] == 7
    assert cfg["preprocess"]["ratio_limit"] is None
    assert cfg["data"] == {"n_grid": 512, "dt": 0.001}
    # hashing is stable under key order
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))


def test_config_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"n_layers": 4}}))
    run_cli("datagen", "--config", str(bad), "--out", str(tmp_path / "d"),
            expect=2)
    assert read_error(capsys)["kind"] == "config"
    run_cli("datagen", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "d"), expect=2)
    assert "does not exist" in read_error(capsys)["message"]
    run_cli("datagen", "--set", "model.family=resnet", "--out", str(tmp_path / "d"),
            expect=2)
    assert "family" in read_error(capsys)["message"]


def test_datagen_outputs_and_determinism(micro, tmp_path):
    data = micro["data"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["problem"] == "advection"
    assert manifest["splits"]["train"]["n_samples"] == 6
    prov = json.loads((data / "provenance.json").read_text())
    assert prov["stage"] == "datagen"
    assert prov["content_hash"] == content_hash(data)

    rerun = tmp_path / "data2"
    run_cli("datagen", "--config", str(micro["cfg"]), "--out", str(rerun))
    for name in sorted(p.name for p in data.iterdir()):
        assert (rerun / name).read_bytes() == (data / name).read_bytes(), name


def test_preprocess_artifact(micro):
    from radonet.equidistribution import load_preprocessed

    pset = load_preprocessed(micro["prep"] / "train.rnp")
    assert pset.x.shape == (6, 17)
    assert pset.meta["problem"] == "advection"
    assert pset.meta["periodic"] is True
    assert np.all(np.diff(pset.x, axis=1) > 0.0)
    prov = json.loads((micro["prep"] / "provenance.json").read_text())
    data_prov = json.loads((micro["data"] / "provenance.json").read_text())
    assert prov["upstream"]["dataset"] == data_prov["content_hash"]


def test_train_artifacts(micro):
    for d, keys in ((micro["van"], {"model"}), (micro["rad"], {"coord", "sol"})):
        report = json.loads((d / "report.json").read_text())
        assert set(report["reports"]) == keys
        for rep in report["reports"].values():
            assert rep["epochs_run"] == 30
            assert not rep["aborted"]
            assert np.isfinite(rep["best_error"])
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["input_encoding"] == "box-params(height,width,shift)"


def test_train_content_hash_is_reproducible(micro, tmp_path):
    # wall times go to provenance.json, which the hash leaves out, so a rerun
    # of either family records the same content_hash
    for name, family in (("van", ()),
                         ("rad", ("--set", "model.family=radaptive", "--prep", str(micro["prep"])))):
        again = tmp_path / name
        run_cli("train", "--config", str(micro["cfg"]), *family, "--dataset", str(micro["data"]),
                "--out", str(again))
        first = json.loads((micro[name] / "provenance.json").read_text())
        second = json.loads((again / "provenance.json").read_text())
        assert second["content_hash"] == first["content_hash"]
        reports = json.loads((again / "report.json").read_text())["reports"]
        assert set(second["wall_seconds"]) == set(reports)
        assert all(seconds > 0.0 for seconds in second["wall_seconds"].values())
        assert not any("wall_seconds" in r for r in reports.values())


def _can_train_concurrently() -> bool:
    return len(os.sched_getaffinity(0)) >= 2 and training._openblas() is not None


def _fork_spy(monkeypatch) -> list:
    """Record the pid of every child forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _train_radaptive(micro, out, expect=0):
    run_cli("train", "--config", str(micro["cfg"]), "--set", "model.family=radaptive",
            "--dataset", str(micro["data"]), "--prep", str(micro["prep"]), "--out", str(out),
            expect=expect)


def test_radaptive_pair_trains_the_same_bytes_concurrently_and_in_turn(
        micro, tmp_path, monkeypatch):
    if not _can_train_concurrently():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    pids = _fork_spy(monkeypatch)
    _train_radaptive(micro, tmp_path / "together")
    assert len(pids) == 1
    monkeypatch.setattr(training, "_openblas", lambda: None)
    _train_radaptive(micro, tmp_path / "in_turn")
    assert len(pids) == 1

    def files(root):
        return {f.relative_to(root).as_posix(): f.read_bytes() for f in sorted(root.rglob("*"))
                if f.is_file() and f.name != "provenance.json"}

    together, in_turn = files(tmp_path / "together"), files(tmp_path / "in_turn")
    assert {"coord/branch.npz", "coord/trunk.npz", "sol/branch.npz", "sol/trunk.npz"} <= set(together)
    assert together == in_turn


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_worker_failure_is_a_runtime_error(micro, tmp_path, monkeypatch, capsys, failure):
    if not _can_train_concurrently():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    pids = _fork_spy(monkeypatch)
    parent = os.getpid()

    def broken_loss(*args):  # only the solution net, trained in the child, uses it
        assert os.getpid() != parent, "the solution net trained in the test process"
        if failure == "raise":
            raise FloatingPointError("solution net diverged")
        os._exit(3)

    monkeypatch.setattr(training, "loss_weighted", broken_loss)
    get_threads, set_threads = training._openblas()
    threads = get_threads()
    set_threads(2)
    try:
        _train_radaptive(micro, tmp_path / "broken", expect=1)
        assert get_threads() == 2
    finally:
        set_threads(threads)
    err = read_error(capsys)
    assert err["kind"] == "runtime"
    assert ("FloatingPointError: solution net diverged" if failure == "raise"
            else "exit code 3") in err["message"]
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(pids[0], os.WNOHANG)


def test_eval_outputs_and_rerun_bytes(micro, tmp_path):
    summary = json.loads((micro["van_eval"] / "summary.json").read_text())
    assert summary["family"] == "vanilla"
    assert summary["split"] == "test"
    assert summary["n_samples"] == 4
    assert 0.0 < summary["mean_rel_l2"] < 10.0

    csv = (micro["van_eval"] / "per_sample.csv").read_text().splitlines()
    assert csv[0] == "sample,rel_l2"
    assert len(csv) == 5
    per = [float(line.split(",")[1]) for line in csv[1:]]
    assert summary["mean_rel_l2"] == pytest.approx(np.mean(per), rel=1e-9)

    again = tmp_path / "van_eval2"
    run_cli("eval", "--config", str(micro["cfg"]), "--model", str(micro["van"]),
            "--dataset", str(micro["data"]), "--out", str(again))
    assert (again / "per_sample.csv").read_bytes() == \
        (micro["van_eval"] / "per_sample.csv").read_bytes()
    assert (again / "summary.json").read_bytes() == \
        (micro["van_eval"] / "summary.json").read_bytes()


def test_eval_radaptive_summary_fields(micro):
    summary = json.loads((micro["rad_eval"] / "summary.json").read_text())
    assert summary["family"] == "radaptive"
    assert summary["xi_points"] == 513
    assert summary["monotone_mesh_fraction"] == 1.0
    assert 0.0 <= summary["prefix_jacobian_positive_fraction"] <= 1.0


def test_vanilla_validates_on_the_dataset_grid(micro, tmp_path):
    # at two output points every val box of this dataset falls between the
    # points, so its resampled target is all zeros and has no relative error;
    # validation must score the dataset grid, as eval does
    from radonet.models import load_bundle
    from radonet.pde_data import load_dataset
    from radonet.reconstruct import rel_l2_error
    from radonet.training import model_predict

    val = load_dataset(micro["data"])["val"]
    q = np.arange(2) / 2
    resampled = np.stack([np.interp(q, val.x_grid, row, period=1.0) for row in val.outputs])
    assert np.any(np.all(resampled == 0.0, axis=1))

    out = tmp_path / "van2"
    run_cli("train", "--config", str(micro["cfg"]), "--set", "model.output_points=2",
            "--dataset", str(micro["data"]), "--out", str(out))
    report = json.loads((out / "report.json").read_text())["reports"]["model"]
    model = load_bundle(out)
    on_grid = rel_l2_error(model_predict(model, val.inputs, val.x_grid.reshape(-1, 1)),
                           val.outputs)
    assert report["best_error"] == pytest.approx(on_grid, rel=1e-12)


def test_untrained_model_scores_near_one(micro, tmp_path, capsys):
    # an untouched random-init model predicts near zero, so the relative
    # error lands at the order of the reference norm
    from radonet.cli import write_provenance
    from radonet.models import DeepOnetModel, save_bundle
    from radonet.nn import mlp_init

    model = DeepOnetModel(branch=mlp_init([3, 16, 8], seed=0),
                          trunk=mlp_init([1, 16, 8], seed=1),
                          n_basis=8, query_lo=[0.0], query_hi=[1.0])
    model_dir = tmp_path / "raw_model"
    save_bundle(model_dir, model, input_encoding="box-params(height,width,shift)")
    data_prov = json.loads((micro["data"] / "provenance.json").read_text())
    write_provenance(model_dir, "train", {}, {"dataset": data_prov["content_hash"]})
    out = run_cli("eval", "--config", str(micro["cfg"]), "--model", str(model_dir),
                  "--dataset", str(micro["data"]), "--out", str(tmp_path / "raw_eval"),
                  capsys=capsys).out
    summary = json.loads((tmp_path / "raw_eval" / "summary.json").read_text())
    assert 0.5 < summary["mean_rel_l2"] < 3.0
    assert "mean relative L2 error" in out


def test_stale_artifact_refusal(micro, tmp_path, capsys):
    import shutil

    tampered = tmp_path / "tampered"
    shutil.copytree(micro["data"], tampered)
    arr = np.load(tampered / "outputs_train.npy")
    np.save(tampered / "outputs_train.npy", arr * 1.5)
    run_cli("preprocess", "--config", str(micro["cfg"]), "--dataset", str(tampered),
            "--out", str(tmp_path / "p"), expect=2)
    assert read_error(capsys)["kind"] == "stale-upstream"

    # model trained against a different dataset artifact is refused too
    other_data = tmp_path / "other_data"
    run_cli("datagen", "--config", str(micro["cfg"]), "--set", "seed=4",
            "--out", str(other_data))
    run_cli("eval", "--config", str(micro["cfg"]), "--model", str(micro["van"]),
            "--dataset", str(other_data), "--out", str(tmp_path / "e"), expect=2)
    assert read_error(capsys)["kind"] == "stale-upstream"


def test_malformed_provenance_is_refused(micro, tmp_path, capsys):
    import shutil

    prov = json.loads((micro["data"] / "provenance.json").read_text())
    for name, text in (("truncated", '{"stage": "datagen", "content_'),
                       ("not_an_object", '["datagen"]'),
                       ("upstream_not_an_object", json.dumps(dict(prov, upstream=[])))):
        corrupt = tmp_path / name
        shutil.copytree(micro["data"], corrupt)
        (corrupt / "provenance.json").write_text(text)
        run_cli("preprocess", "--config", str(micro["cfg"]), "--dataset", str(corrupt),
                "--out", str(tmp_path / f"p_{name}"), expect=2)
        err = read_error(capsys)
        assert err["kind"] == "stale-upstream"
        assert "provenance.json" in err["message"]


def test_missing_inputs(micro, tmp_path, capsys):
    run_cli("preprocess", "--config", str(micro["cfg"]),
            "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "p"),
            expect=2)
    assert read_error(capsys)["kind"] == "missing-input"
    run_cli("train", "--config", str(micro["cfg"]), "--set", "model.family=radaptive",
            "--dataset", str(micro["data"]), "--out", str(tmp_path / "t"), expect=2)
    assert read_error(capsys)["kind"] == "missing-input"
    run_cli("eval", "--config", str(micro["cfg"]), "--set", "eval.split=holdout",
            "--model", str(micro["van"]), "--dataset", str(micro["data"]),
            "--out", str(tmp_path / "e"), expect=2)
    assert read_error(capsys)["kind"] == "missing-input"


def test_problem_mismatch(micro, tmp_path, capsys):
    run_cli("preprocess", "--config", str(micro["cfg"]), "--set", "problem=burgers",
            "--dataset", str(micro["data"]), "--out", str(tmp_path / "p"), expect=2)
    assert "burgers" in read_error(capsys)["message"]


def test_analyze_spectrum_and_tail(micro, tmp_path, capsys):
    spec_dir = tmp_path / "spec"
    run_cli("analyze", "spectrum", "--dataset", str(micro["data"]),
            "--split", "train", "--out", str(spec_dir))
    rows = (spec_dir / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "index,eigenvalue"
    eig = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(eig) <= 1e-12)

    tail_dir = tmp_path / "tail"
    run_cli("analyze", "tail", "--prep", str(micro["prep"]), "--split", "train",
            "--field", "x", "--modes", "2,4,6", "--out", str(tail_dir))
    doc = json.loads((tail_dir / "tail.json").read_text())
    assert list(doc["tails"]) == ["2", "4", "6"]
    tails = [doc["tails"][k] for k in ("2", "4", "6")]
    assert tails[0] >= tails[1] >= tails[2] >= 0.0
    assert "x(xi)" in doc["tag"]

    run_cli("analyze", "tail", "--prep", str(micro["prep"]), "--field", "w",
            "--out", str(tmp_path / "bad"), expect=2)
    assert read_error(capsys)["kind"] == "config"


def test_analyze_rates(tmp_path):
    ada = tmp_path / "ada"
    run_cli("analyze", "adaptive-rate", "--ns", "16,32,64", "--out", str(ada))
    doc = json.loads((ada / "adaptive_rate.json").read_text())
    assert -1.8 < doc["slope"] < -1.2
    rows = (ada / "adaptive_rate.csv").read_text().splitlines()
    assert rows[0] == "n,delta,error"

    fem = tmp_path / "fem"
    run_cli("analyze", "fem-rate", "--ns", "16,32,64", "--target", "box",
            "--fine-points", "8193", "--out", str(fem))
    doc = json.loads((fem / "fem_rate.json").read_text())
    assert -0.75 < doc["slope"] < -0.3


def test_usage_errors_are_json(capsys):
    run_cli("train", expect=2)  # missing required arguments
    assert read_error(capsys)["kind"] == "usage"
    run_cli("frobnicate", expect=2)
    assert read_error(capsys)["kind"] == "usage"
