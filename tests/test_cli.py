import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radonet
from radonet import parallel, store, training
from radonet.cli import DEFAULT_CONFIG, CliError, config_hash, content_hash, main, resolve_config


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
        set = ["train.epochs=7", "preprocess.ratio_limit=null", "data.speed=0.5"]

    cfg = resolve_config(Args())
    assert cfg["model"]["n_basis"] == 16
    assert cfg["model"]["family"] == "vanilla"  # default survives
    assert cfg["train"]["epochs"] == 7
    assert cfg["preprocess"]["ratio_limit"] is None
    assert cfg["data"] == {"n_grid": 512, "speed": 0.5}
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
    # knobs that held one value everywhere, now constants of the code
    for section, key, value in (("train", "batch_size", None), ("train", "decay_fraction", 0.1),
                                ("model", "branch_activation", "tanh"),
                                ("model", "trunk_activation", "relu"),
                                ("preprocess", "beta", 1.0), ("preprocess", "smoothing_passes", 2)):
        bad.write_text(json.dumps({section: {key: value}}))
        for given in (("--config", str(bad)), ("--set", f"{section}.{key}={json.dumps(value)}")):
            run_cli("datagen", *given, "--out", str(tmp_path / "d"), expect=2)
            err = read_error(capsys)
            assert err["kind"] == "config" and f"{section}.{key}" in err["message"]
            assert not (tmp_path / "d").exists()


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

    assert {f.name for f in micro["prep"].iterdir()} == {
        "manifest.json", "provenance.json", "xi.npy",
        *(f"{col}_{split}.npy" for col in ("x", "u", "w_sol", "w_coord")
          for split in ("train", "val", "test"))}
    manifest = json.loads((micro["prep"] / "manifest.json").read_text())
    assert manifest == {"format_version": 3, "problem": "advection",
                        "splits": {"train": {"n_samples": 6}, "val": {"n_samples": 3},
                                   "test": {"n_samples": 4}}}
    pset = load_preprocessed(micro["prep"])["train"]
    assert pset.x.shape == (6, 17)
    assert pset.problem == "advection"
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


def test_aborted_train_writes_strict_json(micro, tmp_path):
    out = tmp_path / "aborted"
    run_cli("train", "--config", str(micro["cfg"]), "--set", "train.base_lr=1e200",
            "--dataset", str(micro["data"]), "--out", str(out))

    def refuse(name):
        raise ValueError(f"report.json holds {name}, which is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    rep = report["reports"]["model"]
    assert rep["aborted"] is True and rep["final_loss"] is None
    assert np.isfinite(rep["best_error"])


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


def _train_radaptive(micro, out, expect=0):
    run_cli("train", "--config", str(micro["cfg"]), "--set", "model.family=radaptive",
            "--dataset", str(micro["data"]), "--prep", str(micro["prep"]), "--out", str(out),
            expect=expect)


def test_shift_family_is_a_config_error_in_train_and_eval(micro, tmp_path, capsys, monkeypatch):
    # only vanilla and radaptive models can be built: shift is refused before any work
    def refuse(*args, **kwargs):
        raise AssertionError("a refused config was trained")

    monkeypatch.setattr(training, "train", refuse)
    data = ("--dataset", str(micro["data"]))
    for stage, inputs in (("train", data), ("eval", ("--model", str(micro["van"]), *data))):
        out = tmp_path / stage
        run_cli(stage, "--config", str(micro["cfg"]), "--set", "model.family=shift", *inputs,
                "--out", str(out), expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config" and "model.family" in err["message"]
        assert not out.exists()


def test_radaptive_pair_trains_the_same_bytes_concurrently_and_in_turn(
        micro, tmp_path, monkeypatch, forks):
    if not parallel._can_fork():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    pids = forks
    _train_radaptive(micro, tmp_path / "together")
    assert len(pids) == 1
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    _train_radaptive(micro, tmp_path / "in_turn")
    assert len(pids) == 1

    def files(root):
        return {f.relative_to(root).as_posix(): f.read_bytes() for f in sorted(root.rglob("*"))
                if f.is_file() and f.name != "provenance.json"}

    together, in_turn = files(tmp_path / "together"), files(tmp_path / "in_turn")
    assert {f"{sub}/{net}_{part}_{i}.npy" for sub in ("coord", "sol") for net in ("branch", "trunk")
            for part in ("weight", "bias") for i in range(3)} <= set(together)
    assert together == in_turn


def test_every_artifact_file_is_a_store_array_or_a_known_json_or_csv(micro):
    # one container style: nothing the stages write is an .npz, .rnp or other format
    known = {"manifest.json", "provenance.json", "report.json", "summary.json", "per_sample.csv"}
    dirs = [micro[k] for k in ("data", "prep", "van", "rad", "van_eval", "rad_eval")]
    files = [f for d in dirs for f in d.rglob("*") if f.is_file()]
    assert {f.name for f in files} >= known | {"x_grid.npy", "xi_grid.npy", "branch_weight_0.npy"}
    for f in files:
        if f.name in known:
            continue
        assert f.suffix == ".npy", f
        readable = []
        for ndim in (1, 2):
            try:
                readable.append(store.read_array(f.parent, f.stem, ndim))
            except ValueError:
                pass
        assert len(readable) == 1, f


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_worker_failure_is_a_runtime_error(micro, tmp_path, monkeypatch, capsys, forks, failure):
    if not parallel._can_fork():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    pids = forks
    parent = os.getpid()

    def broken_loss(*args):  # only the solution net, trained in the child, uses it
        assert os.getpid() != parent, "the solution net trained in the test process"
        if failure == "raise":
            raise FloatingPointError("solution net diverged")
        os._exit(3)

    monkeypatch.setattr(training, "loss_weighted", broken_loss)
    get_threads, set_threads = parallel._openblas()
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


@pytest.mark.parametrize("outcome, code", [("success", 0), ("refused", 2), ("failure", 1)])
@pytest.mark.parametrize("stage", ["train", "eval"])
def test_stages_run_blas_on_one_thread_and_restore_the_count(micro, tmp_path, monkeypatch, capsys,
                                                             stage, outcome, code):
    # with OpenBLAS at 2 threads, a vanilla train and a radaptive eval run
    # their nets on 1, and main leaves it at 2 again whether the stage
    # succeeds, refuses its config (a dataset of another problem) or fails
    from radonet import models

    blas = parallel._openblas()
    if blas is None:
        pytest.skip("needs an OpenBLAS thread setter")
    get_threads, set_threads = blas
    module, name = (training, "train") if stage == "train" else (models, "radaptive_predict_graph")
    real, seen = getattr(module, name), []

    def spy(*args, **kwargs):
        seen.append(get_threads())
        if outcome == "failure":
            raise FloatingPointError("went bad")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    inputs = (("--dataset", str(micro["data"])) if stage == "train" else
              ("--model", str(micro["rad"]), "--dataset", str(micro["data"])))
    refused = ("--set", "problem=sod") if outcome == "refused" else ()
    threads = get_threads()
    set_threads(2)
    try:
        run_cli(stage, "--config", str(micro["cfg"]), *inputs, *refused,
                "--out", str(tmp_path / "out"), expect=code)
        assert get_threads() == 2
    finally:
        set_threads(threads)
    assert seen == ([] if outcome == "refused" else [1])
    if outcome != "success":
        assert read_error(capsys)["kind"] == ("config" if outcome == "refused" else "runtime")
        assert not (tmp_path / "out").exists()


def test_preprocess_holds_no_dataset_fields(tmp_path, monkeypatch):
    # the same rows at 8 times the grid: the peak grows by less than a
    # tenth of the outputs' growth, since each row is read as it is mapped
    # (one row's temporaries at the larger grid are a few hundred kB)
    import gc
    import tracemalloc

    monkeypatch.setattr(parallel, "_can_fork", lambda: False)  # every row in this process
    counts = "counts=" + json.dumps({"train": 300, "val": 50, "test": 50})

    def peak(n_grid, name):
        data = tmp_path / f"data{n_grid}"
        sets = ("--set", counts, "--set", f"data.n_grid={n_grid}")
        if not data.exists():
            run_cli("datagen", *sets, "--out", str(data))
        gc.collect()
        tracemalloc.start()
        try:
            run_cli("preprocess", *sets, "--dataset", str(data), "--out", str(tmp_path / name))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(512, "warm")  # what the stage imports and caches once counts toward neither size
    grown = peak(4096, "large") - peak(512, "small")
    outputs = 8 * 400 * (4096 - 512)
    assert grown < outputs / 10, f"the peak grew by {grown / 1e6:.3f} MB, the outputs by " \
                                 f"{outputs / 1e6:.3f} MB"


def test_preprocess_rows_are_preprocess_sample_of_the_dataset_rows(micro):
    # each streamed row is mapped as the whole loaded row would be, bit for bit
    from radonet.equidistribution import load_preprocessed, preprocess_sample
    from radonet.pde_data.dataset import load_dataset

    datasets, psets = load_dataset(micro["data"]), load_preprocessed(micro["prep"])
    params = dict(DEFAULT_CONFIG["preprocess"], **MICRO["preprocess"])
    assert set(psets) == set(datasets)
    for split, ds in datasets.items():
        for i, u in enumerate(ds.outputs):
            sample = preprocess_sample(u, (0.0, 1.0), periodic=True, **params)
            for name in psets[split].ROW_COLUMNS:
                assert getattr(psets[split], name)[i].tobytes() == sample[name].tobytes()


@pytest.mark.parametrize("damage", ["truncated", "more-rows"])
def test_preprocess_refuses_damaged_outputs_before_any_row(micro, tmp_path, capsys, damage):
    # the dataset is loaded without its outputs, yet each outputs file is
    # checked before any row is read
    import shutil

    data = tmp_path / "data"
    shutil.copytree(micro["data"], data)
    path = data / "outputs_val.npy"
    blob = path.read_bytes()
    if damage == "truncated":
        blob = blob[:-8]
    else:  # a header that claims a fourth row the file does not hold
        assert blob.count(b"(3, 256)") == 1
        blob = blob.replace(b"(3, 256)", b"(4, 256)")
    path.write_bytes(blob)
    _rerecord(data)
    run_cli("preprocess", "--config", str(micro["cfg"]), "--dataset", str(data),
            "--out", str(tmp_path / "prep"), expect=1)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])["error"]
    assert doc["kind"] == "runtime" and "outputs_val.npy" in doc["message"]
    assert not (tmp_path / "prep").exists()


def test_read_rows_reads_only_inside_the_checked_data(micro, tmp_path):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(micro["data"], data)
    whole = store.read_array(data, "outputs_test", 2)
    rows = list(store.read_rows(data, "outputs", "test", [3, 0, 2]))
    assert [row.tobytes() for row in rows] == [whole[i].tobytes() for i in (3, 0, 2)]
    with pytest.raises(ValueError, match="has no row 4"):
        list(store.read_rows(data, "outputs", "test", [0, 4]))
    with pytest.raises(ValueError, match="has no row -1"):
        list(store.read_rows(data, "outputs", "test", [-1]))
    # a file cut short after it was checked
    rows = store.read_rows(data, "outputs", "test", [0, 3])
    assert next(rows).tobytes() == whole[0].tobytes()
    os.truncate(data / "outputs_test.npy", (data / "outputs_test.npy").stat().st_size - 8)
    with pytest.raises(ValueError, match="row 3 ends before its 256 values"):
        next(rows)
    with pytest.raises(ValueError, match="header describes"):
        next(store.read_rows(data, "outputs", "test", [0]))


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


def test_eval_at_null_xi_points_is_eval_on_the_native_grid(micro, tmp_path):
    # a null xi_points and any count up to the native n_xi + 1 evaluate on
    # the same grid, so they write the same bytes
    outs = []
    for xi_points in ("null", "2"):
        outs.append(tmp_path / f"eval_{xi_points}")
        run_cli("eval", "--config", str(micro["cfg"]), "--set", f"eval.xi_points={xi_points}",
                "--model", str(micro["rad"]), "--dataset", str(micro["data"]),
                "--out", str(outs[-1]))
    for name in ("summary.json", "per_sample.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert json.loads((outs[0] / "summary.json").read_text())["xi_points"] == 17


def test_eval_radaptive_summary_fields(micro):
    summary = json.loads((micro["rad_eval"] / "summary.json").read_text())
    assert summary["family"] == "radaptive"
    assert summary["xi_points"] == 513
    assert summary["monotone_mesh_fraction"] == 1.0
    assert 0.0 <= summary["prefix_jacobian_positive_fraction"] <= 1.0


def test_monotone_mesh_fraction_counts_the_predicted_knots(micro, tmp_path):
    # a coordinate net whose raw output sinks below -745 on the left of the
    # reference grid: softplus underflows to zero there, so the head returns
    # a run of equal knots, which eval interpolates as a jump but must not
    # count as monotone
    from radonet.cli import write_provenance
    from radonet.models import (
        CoordinateNet,
        RAdaptiveSystem,
        load_bundle,
        radaptive_predict_graph,
        save_bundle,
    )
    from radonet.nn import mlp_init
    from radonet.pde_data import load_dataset

    branch = mlp_init([3, 1], seed=0)
    branch.weights[0][:] = 0.0
    branch.biases[0][:] = 1.0
    trunk = mlp_init([1, 1, 1], activation="relu", seed=0)
    trunk.weights[0][:] = -1.0
    trunk.weights[1][:] = -2000.0  # g = -2000 * relu(-(2 xi - 1))
    coord = CoordinateNet(branch=branch, trunk=trunk, n_basis=1, query_lo=[0.0], query_hi=[1.0])
    system = RAdaptiveSystem(coord_net=coord, sol_net=load_bundle(micro["rad"]).sol_net,
                             xi_grid=np.linspace(0.0, 1.0, 17))
    test = load_dataset(micro["data"])["test"]
    knots = radaptive_predict_graph(system, test.inputs, system.xi_grid).knots
    assert np.all(np.any(np.diff(knots, axis=1) == 0.0, axis=1))

    model_dir = tmp_path / "flat_mesh"
    save_bundle(model_dir, system, input_encoding="box-params(height,width,shift)",
                extra={"problem": "advection", "family": "radaptive"})
    data_prov = json.loads((micro["data"] / "provenance.json").read_text())
    write_provenance(model_dir, "train", {}, {"dataset": data_prov["content_hash"]})
    run_cli("eval", "--config", str(micro["cfg"]), "--model", str(model_dir),
            "--dataset", str(micro["data"]), "--out", str(tmp_path / "flat_eval"))
    summary = json.loads((tmp_path / "flat_eval" / "summary.json").read_text())
    assert summary["monotone_mesh_fraction"] == 0.0
    assert summary["prefix_jacobian_positive_fraction"] < 1.0
    assert np.isfinite(summary["mean_rel_l2"])


def test_eval_scores_each_sample_as_the_metric_scores_the_whole_stacked_prediction(tmp_path):
    # 70 test rows, more than two of rel_l2_error's ERROR_ROWS blocks: each
    # sample scored alone gives the bits of the metric of the whole split
    from radonet.models import load_bundle, model_predict, radaptive_predict_graph
    from radonet.pde_data import load_dataset
    from radonet.reconstruct import recover_uniform, rel_l2_error

    c = ("--config", str(tmp_path / "config.json"))
    (tmp_path / "config.json").write_text(json.dumps(
        {**MICRO, "counts": {"train": 6, "val": 3, "test": 70}}))
    data = ("--dataset", str(tmp_path / "data"))
    run_cli("datagen", *c, "--out", str(tmp_path / "data"))
    run_cli("preprocess", *c, *data, "--out", str(tmp_path / "prep"))
    run_cli("train", *c, *data, "--out", str(tmp_path / "van"))
    run_cli("train", *c, "--set", "model.family=radaptive", *data,
            "--prep", str(tmp_path / "prep"), "--out", str(tmp_path / "rad"))
    test = load_dataset(tmp_path / "data")["test"]
    domain, _ = test.geometry()
    for family in ("van", "rad"):
        out = tmp_path / f"{family}_eval"
        run_cli("eval", *c, "--model", str(tmp_path / family), *data, "--out", str(out))
        model = load_bundle(tmp_path / family)
        summary = json.loads((out / "summary.json").read_text())
        if family == "van":
            pred = model_predict(model, test.inputs, test.x_grid.reshape(-1, 1))
        else:
            xi = np.linspace(model.xi_grid[0], model.xi_grid[-1], summary["xi_points"])
            graph = radaptive_predict_graph(model, test.inputs, xi)
            pred = np.stack([recover_uniform(k, v, test.x_grid, domain)
                             for k, v in zip(graph.knots, graph.values)])
            monotone = np.all(np.diff(graph.knots, axis=1) > 0.0, axis=1)
            assert summary["monotone_mesh_fraction"] == int(np.sum(monotone)) / 70
        want = rel_l2_error(pred, test.outputs)
        csv = (out / "per_sample.csv").read_text().splitlines()
        assert csv == ["sample,rel_l2", *(f"{i},{e:.12e}" for i, e in enumerate(want))]
        assert summary["mean_rel_l2"] == float(np.mean(want))


def test_eval_xi_points_beyond_memory_are_refused_before_prediction(micro, tmp_path, capsys,
                                                                   monkeypatch):
    from radonet import models

    def refuse(*args, **kwargs):
        raise AssertionError("a refused xi grid was predicted on")

    monkeypatch.setattr(models, "radaptive_predict_graph", refuse)
    out = tmp_path / "eval"
    run_cli("eval", "--config", str(micro["cfg"]), "--set", "eval.xi_points=10000000000000",
            "--model", str(micro["rad"]), "--dataset", str(micro["data"]), "--out", str(out),
            expect=2)
    err = read_error(capsys)
    assert err["kind"] == "config" and "eval.xi_points" in err["message"]
    assert "GB of memory" in err["message"]
    assert not out.exists()
    # a vanilla model ignores xi_points
    run_cli("eval", "--config", str(micro["cfg"]), "--set", "eval.xi_points=10000000000000",
            "--model", str(micro["van"]), "--dataset", str(micro["data"]), "--out", str(out))


def test_eval_of_a_split_beyond_memory_is_refused_before_prediction(micro, tmp_path, capsys,
                                                                   monkeypatch):
    from radonet import models

    def refuse(*args, **kwargs):
        raise AssertionError("a refused split was predicted on")

    for name in ("model_predict", "radaptive_predict_graph"):
        monkeypatch.setattr(models, name, refuse)
    # a split this large cannot be made here, so its estimate is stood in for
    monkeypatch.setattr(models, "eval_bytes", lambda *args: 10**15)
    for model in ("van", "rad"):
        out = tmp_path / model
        run_cli("eval", "--config", str(micro["cfg"]), "--model", str(micro[model]),
                "--dataset", str(micro["data"]), "--out", str(out), expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config" and "GB of memory" in err["message"]
        assert "counts.test" in err["message"]
        assert not out.exists()


def test_the_radaptive_train_reads_no_dataset_outputs(micro, tmp_path, monkeypatch):
    # both nets learn the prep's x and u; the dataset gives only their inputs
    read = []
    real_read = store._read

    def spy(root, name, ndim, data):
        if data:
            read.append(name)
        return real_read(root, name, ndim, data)

    monkeypatch.setattr(store, "_read", spy)
    run_cli("train", "--config", str(micro["cfg"]), "--set", "model.family=radaptive",
            "--dataset", str(micro["data"]), "--prep", str(micro["prep"]),
            "--out", str(tmp_path / "rad"))
    assert {"inputs_train", "inputs_val", "x_train", "u_val"} <= set(read)
    assert not [name for name in read if name.startswith("outputs_")]
    for name in ("manifest.json", "report.json"):
        assert (tmp_path / "rad" / name).read_bytes() == (micro["rad"] / name).read_bytes()


def test_the_vanilla_train_frees_its_native_grid_outputs_before_training(micro, tmp_path,
                                                                        monkeypatch):
    # with a val split, validation reads the val outputs, and training reads
    # only the targets resampled from the train outputs
    import weakref

    from radonet.pde_data import dataset

    real_load, real_train = dataset.load_dataset, training.train
    train_outputs, held = [], []

    def load(*args, **kwargs):
        loaded = real_load(*args, **kwargs)
        train_outputs.append(weakref.ref(loaded["train"].outputs))
        return loaded

    def train(*args, **kwargs):
        held.append(train_outputs[0]() is not None)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(dataset, "load_dataset", load)
    monkeypatch.setattr(training, "train", train)
    run_cli("train", "--config", str(micro["cfg"]), "--dataset", str(micro["data"]),
            "--out", str(tmp_path / "van"))
    assert held == [False]
    assert ((tmp_path / "van" / "report.json").read_bytes()
            == (micro["van"] / "report.json").read_bytes())


HUGE = 10**11


@pytest.mark.parametrize("argv, compute, key", [
    pytest.param(("datagen", f"counts.train={HUGE}"), "radonet.pde_data.dataset.dataset_build",
                 "counts.*", id="counts"),
    pytest.param(("datagen", "problem=burgers", f"data.sensors={HUGE}"),
                 "radonet.pde_data.dataset.dataset_build", "data.sensors", id="sensors"),
    pytest.param(("datagen", "problem=burgers", f"data.grf_modes={HUGE}"),
                 "radonet.pde_data.dataset.dataset_build", "data.grf_modes", id="grf_modes"),
    pytest.param(("preprocess", f"preprocess.n_xi={HUGE}"), "radonet.parallel.split_rows",
                 "preprocess.n_xi", id="n_xi"),
    pytest.param(("train", f"model.output_points={HUGE}"), "radonet.training.train",
                 "model.output_points", id="output_points"),
    pytest.param(("train", f"model.branch_hidden=[16,{HUGE}]"), "radonet.nn.mlp_init",
                 "model.*_hidden", id="branch_hidden"),
    pytest.param(("train", "model.family=radaptive", f"model.trunk_hidden=[{HUGE}]"),
                 "radonet.nn.mlp_init", "model.*_hidden", id="radaptive-trunk_hidden")])
def test_sizes_beyond_memory_are_refused_before_the_stage_allocates(micro, tmp_path, capsys,
                                                                   monkeypatch, argv, compute, key):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran on a refused size")

    monkeypatch.setattr(compute, refuse)
    stage, *sets = argv
    data = ("--config", str(micro["cfg"]), "--dataset", str(micro["data"]))
    flags = {"datagen": (), "preprocess": data, "train": (*data, "--prep", str(micro["prep"]))}
    out = tmp_path / "out"
    run_cli(stage, *(a for s in sets for a in ("--set", s)), *flags[stage], "--out", str(out),
            expect=2)
    err = read_error(capsys)
    assert err["kind"] == "config" and "GB of memory" in err["message"]
    assert key in err["message"]
    assert not out.exists()


MICRO_COUNTS = 'counts={"train": 2, "val": 1, "test": 1}'


def test_bad_data_keys_and_counts_are_config_errors(tmp_path, capsys, monkeypatch):
    from radonet.pde_data import dataset

    def build(*args, **kwargs):
        raise AssertionError("samples were generated for a refused config")

    monkeypatch.setattr(dataset, "dataset_build", build)
    out = tmp_path / "d"
    for spec in (("data.bogus=1",), ("problem=burgers", "data.record_times=[0.5]"),
                 ("counts.train=0",), ("counts.val=-3",), ("counts.test=2.5",),
                 ("seed=-1",), ("problem=sod", "data.n_grid=2.5"),
                 # values of the right type that no stage can run
                 ("data.n_grid=0",), ("problem=burgers", "data.n_modes=0"),
                 ("problem=burgers", "data.sensors=-2"), ("data.width_range=[0.5,0.1]",),
                 ("data.height_range=[1,0]",), ("problem=sod", "data.domain=[5,-5]"),
                 ("problem=sod", "data.domain=[1,1]"), ("preprocess.n_xi=1",),
                 ("train.epochs=0",), ("train.validation_cadence=0",),
                 ("train.decay_interval=0",), ("train.base_lr=-1",), ("train.base_lr=0",),
                 ("train.base_lr=NaN",), ("eval.xi_points=1",),
                 # values that a solver, preprocess or training refuses at run time
                 ("problem=burgers", "data.dt=0"), ("problem=burgers", "data.nu=-1"),
                 ("problem=burgers", "data.final_time=-1"), ("problem=burgers", "data.grf_modes=0"),
                 ("problem=burgers", "data.n_modes=4"),
                 ("problem=burgers", 'data.grf_convention="x"'), ("problem=sod", "data.final_time=0"),
                 ("data.period=0",), ("data.n_grid=2",), ("preprocess.m_cap=0.5",),
                 ("preprocess.mbar_cap=0.5",), ("preprocess.ratio_limit=0",),
                 ("model.n_basis=0",), ("model.output_points=0",), ("model.branch_hidden=[0]",),
                 ("model.trunk_hidden=[16,0]",),
                 # rows that read a neighbouring key
                 ("problem=burgers", "data.final_time=0.00015"),
                 ("problem=burgers", "data.dt=0.003"),
                 ("data.width_range=[0.1,1.0]",), ("data.width_range=[0.1,1.5]",),
                 ("data.period=0.3",), ("data.width_range=[0.5,0.9]", "data.period=0.8"),
                 ("data.width_range=[0,0.2]",), ("data.width_range=[-0.1,0.2]",),
                 ("data.height_range=[0,0.5]",), ("data.height_range=[-0.5,0.5]",),
                 # a box narrower than the grid spacing can miss every grid point
                 ("data.n_grid=8",), ("data.period=1000",), ("data.width_range=[1e-4,0.3]",),
                 # one exactly as wide can too: centred a few ulps off a
                 # midpoint, this box met no grid point and train exited 1
                 ('counts={"train": 4, "val": 2, "test": 2}',
                  "data.shift_range=[0.005000000000000001,0.005000000000000001]",
                  "data.n_grid=10", "data.period=0.3", "data.width_range=[0.03,0.03]"),
                 # numbers that are not finite, a shift range rng.uniform cannot
                 # draw from, and box centres that are not finite: each of
                 # these advection configs made datagen write only all-zero
                 # rows or exit 1
                 *((MICRO_COUNTS, "data.n_grid=64", *bad) for bad in (
                     ("data.speed=NaN",), ("data.speed=Infinity",),
                     ("data.speed=1e300", "data.final_time=1e300"),
                     ("data.shift_range=[1e400,1e400]",), ("data.shift_range=[-1e308,1e308]",))),
                 ("data.final_time=-1e308", "data.speed=2"),
                 # a period this long overflowed preprocess's density mass: exit 1
                 (MICRO_COUNTS, "data.n_grid=64", "data.width_range=[1e307,2e307]",
                  "data.period=6.7e307"),
                 # a sod domain this wide made datagen write a grid of NaN and
                 # infinities, which preprocess failed on with exit 1
                 ("problem=sod", "data.domain=[-1e308,1e308]"),
                 ("train.base_lr=1" + "0" * 400,),
                 # split names that no file name can carry
                 ('counts={"a/b": 2, "test": 1}',), ('counts={"train": 2, "x\\u0000y": 1}',),
                 ('counts={"train": 2, "x\\udc80y": 1}',),
                 ('counts={"train": 2, "%s": 1}' % ("s" * 250),),
                 # no split at all: datagen exited 1 with "need at least one split count"
                 ("counts={}",)):
        run_cli("datagen", *(arg for s in spec for arg in ("--set", s)), "--out", str(out),
                expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config"
        assert spec[-1].split("=")[0].split(".")[-1] in err["message"]
        assert not out.exists()


def test_the_tallest_accepted_box_preprocesses_and_the_next_is_refused(tmp_path, capsys):
    # at n_grid 64 and period 1 the bound is 2^512 / 64: a box that tall
    # preprocesses without an overflow, under the suite's error::RuntimeWarning,
    # with and without the ratio limiter; at 1e153 preprocess exited 1
    import math

    def sets(height):
        return [arg for s in (MICRO_COUNTS, "data.n_grid=64", "seed=3",
                              f"data.height_range=[{height!r},{height!r}]")
                for arg in ("--set", s)]

    tallest, data, too_tall = 2.0**506, tmp_path / "data", tmp_path / "too_tall"
    run_cli("datagen", *sets(tallest), "--out", str(data))
    for limit in ("0.3", "null"):
        run_cli("preprocess", *sets(tallest), "--set", f"preprocess.ratio_limit={limit}",
                "--dataset", str(data), "--out", str(tmp_path / f"prep{limit}"))
    run_cli("datagen", *sets(math.nextafter(tallest, math.inf)), "--out", str(too_tall),
            expect=2)
    err = read_error(capsys)
    assert err["kind"] == "config" and "data.height_range" in err["message"]
    assert not too_tall.exists()


@pytest.mark.parametrize("spec", [
    "model.n_basis=true", "model.n_basis=2.5", "train.epochs=abc", "train.epochs=null",
    "model.branch_hidden=[16,true]", "model.branch_hidden=16", "train.base_lr=true",
    "preprocess.m_cap=null", "model.family=3", "seed=1.0", "model=3", "eval.xi_points=2.5",
    "data.n_grid=2.5", "data.speed=true", "data.height_range=0.5", "data.width_range=[0.1]",
    "data.shift_range=[0,\"a\"]",
])
def test_config_values_of_the_wrong_json_type_are_config_errors(tmp_path, capsys, spec):
    out = tmp_path / "d"
    run_cli("datagen", "--set", spec, "--out", str(out), expect=2)
    err = read_error(capsys)
    assert err["kind"] == "config"
    assert repr(spec.split("=")[0]) in err["message"]
    assert not out.exists()


def test_config_types_take_ints_for_floats_and_null_where_allowed(tmp_path):
    class Args:
        config = None
        set = ["train.base_lr=1", "preprocess.ratio_limit=null", "eval.xi_points=null",
               "data.speed=2", "data.height_range=[1,2]"]

    cfg = resolve_config(Args())
    # values are not converted, so config_hash sees what the user wrote
    assert type(cfg["train"]["base_lr"]) is int
    assert cfg["preprocess"]["ratio_limit"] is None and cfg["eval"]["xi_points"] is None
    assert cfg["data"] == {"speed": 2, "height_range": [1, 2]}


def test_config_range_edges_are_accepted():
    class Args:
        config = None
        # the narrowest box is one grid spacing wide plus the rounding margin:
        # 1.0 * (1 + 3 * 2^-49) <= 0.3333333333333351 * 3
        set = ["data.width_range=[0.3333333333333351,0.3333333333333351]", "preprocess.n_xi=2",
               "train.epochs=1", "train.validation_cadence=1", "train.decay_interval=1",
               "train.base_lr=1e-300", "eval.xi_points=2",
               "data.n_grid=3", "preprocess.m_cap=1", "preprocess.mbar_cap=1",
               "model.output_points=1", "model.branch_hidden=[]"]

    cfg = resolve_config(Args())
    assert cfg["data"]["width_range"] == [0.3333333333333351] * 2
    assert cfg["preprocess"]["n_xi"] == 2 and cfg["eval"]["xi_points"] == 2
    assert cfg["data"]["n_grid"] == 3 and cfg["preprocess"]["m_cap"] == 1
    assert cfg["model"]["output_points"] == 1 and cfg["model"]["branch_hidden"] == []
    Args.set = ["problem=burgers", "data.n_modes=8", "data.final_time=0"]
    assert resolve_config(Args())["data"] == {"n_modes": 8, "final_time": 0}
    # 2^-11 + 2^-49: the default grid's spacing, 1.0 / 2048, plus the margin
    Args.set = ["data.height_range=[1e-300,1e-300]",
                "data.width_range=[0.0004882812500017764,0.999]", "data.period=1"]
    assert resolve_config(Args())["data"]["width_range"] == [2.0**-11 + 2.0**-49, 0.999]
    Args.set = ["data.period=0.30000000000000004"]  # just above width_range's upper end 0.3
    assert resolve_config(Args())["data"]["period"] > 0.3
    Args.set = ["problem=burgers", "data.dt=0.25", "data.final_time=0.75"]
    assert resolve_config(Args())["data"] == {"dt": 0.25, "final_time": 0.75}
    Args.set = ["problem=burgers", "data.final_time=1e-4"]  # one step of the default dt
    assert resolve_config(Args())["data"] == {"final_time": 1e-4}
    # outputs_<name>.npy of 255 bytes, and names that are harmless in a file name
    Args.set = ['counts={"%s": 1, "..": 1, "": 1}' % ("s" * 243)]
    assert set(resolve_config(Args())["counts"]) == {"s" * 243, "..", ""}


def test_boxes_at_the_narrowest_accepted_width_always_cover_a_grid_point():
    # for each grid, the narrowest width the config rules accept (the one
    # below it is refused) gives a sample that is not all zero at 20000
    # random shifts, and at the shifts that come closest to a miss: a box
    # centred on a midpoint between grid points, give or take 4 ulps of the
    # shift, whose ends meet both points at once at a width of one spacing;
    # and so again with the shift 64 periods away, so the centre rounds coarser
    from radonet.pde_data.advection import BoxWaveParams, advection_exact
    from radonet.pde_data.dataset import dataset_params, uniform_grid

    class Args:
        config = None

    p = dataset_params("advection", {})
    rng = np.random.default_rng(0)
    for n_grid in (3, 7, 10, 64, 100, 1000):
        for period in (0.3, 1.0, 2.5):
            width = period / n_grid
            while width * n_grid < period * (1 + n_grid * 2.0**-49):
                width = float(np.nextafter(width, np.inf))
            while np.nextafter(width, 0.0) * n_grid >= period * (1 + n_grid * 2.0**-49):
                width = float(np.nextafter(width, 0.0))
            for w in (width, float(np.nextafter(width, 0.0))):
                Args.set = [f"data.n_grid={n_grid}", f"data.period={period!r}",
                            f"data.width_range=[{w!r},{w!r}]"]
                if w == width:
                    assert resolve_config(Args())["data"]["width_range"] == [w, w]
                else:  # refused by the row of the first key set
                    with pytest.raises(CliError, match=r"n_grid' must be .*data\.width_range"):
                        resolve_config(Args())
            x = uniform_grid((0.0, period), True, n_grid)
            mid = (np.arange(n_grid) + 0.5) * period / n_grid - p["speed"] * p["final_time"]
            below, above, near = mid, mid, [mid]
            for _ in range(4):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                near += [below, above]
            near = np.concatenate(near)
            shifts = np.concatenate([rng.uniform(-period, period, 20000), near,
                                     near + 64 * period])
            for chunk in np.array_split(shifts, max(1, len(shifts) * n_grid // 200_000)):
                box = BoxWaveParams(height=1.0, width=width, shift=chunk[:, None])
                u = advection_exact(box, x, p["speed"], p["final_time"], period)
                assert np.all(np.any(u > 0.0, axis=1)), (n_grid, period)


def test_every_rule_names_a_config_key():
    # a misspelt row would never fire
    from radonet.cli import _RULES
    from radonet.pde_data.dataset import _DEFAULTS

    def paths(section, prefix):
        for key, value in section.items():
            yield from paths(value, f"{prefix}{key}.") if type(value) is dict else [prefix + key]

    keys = {*paths(DEFAULT_CONFIG, ""), "counts.*"}
    keys |= {f"{problem}.{key}" for problem, params in _DEFAULTS.items() for key in params}
    assert set(_RULES) <= keys


def test_every_rule_has_a_row_in_the_documented_rule_table():
    # FORMATS.md's "Config files" table names each rule's keys, a data
    # key as <problem> `data.<key>`; an undocumented rule fails here
    import re

    from radonet.cli import _RULES

    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text()
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    table = section.split("| key | must be |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for row in table.splitlines()[2:]:
        for item in row.split(" | ")[0].lstrip("| ").split(", "):
            problem, key = re.fullmatch(r"(?:(\w+) )?`([^`]+)`", item).groups()
            documented.add(f"{problem}.{key.removeprefix('data.')}" if problem else key)
    assert documented == set(_RULES)


def test_range_errors_are_config_errors_in_every_stage(micro, tmp_path, capsys):
    # every stage resolves the whole config, so a train key stops eval too
    data = ("--dataset", str(micro["data"]))
    for stage, inputs in (("preprocess", data), ("train", data),
                          ("eval", ("--model", str(micro["van"]), *data))):
        for spec in ("train.base_lr=-1", "preprocess.m_cap=0.5", "model.output_points=0",
                     "data.n_grid=2"):
            out = tmp_path / stage
            run_cli(stage, "--config", str(micro["cfg"]), "--set", spec, *inputs,
                    "--out", str(out), expect=2)
            err = read_error(capsys)
            assert err["kind"] == "config" and spec.split("=")[0] in err["message"]
            assert not out.exists()


def test_sod_geometry_comes_from_the_dataset(tmp_path):
    # a non-default domain reaches the preprocessed knots and the grid
    c = ("--set", "problem=sod", "--set", "data.domain=[-10,10]", "--set", "data.n_grid=256",
         "--set", "counts={\"train\": 3}", "--set", "preprocess.n_xi=16")
    run_cli("datagen", *c, "--out", str(tmp_path / "data"))
    run_cli("preprocess", *c, "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "prep"))
    from radonet.equidistribution import load_preprocessed

    pset = load_preprocessed(tmp_path / "prep")["train"]
    assert np.all(pset.x[:, 0] == -10.0) and np.all(pset.x[:, -1] == 10.0)
    np.testing.assert_array_equal(pset.xi, np.linspace(-10.0, 10.0, 17))


def test_every_stage_refuses_data_keys_the_problem_lacks(micro, tmp_path, capsys):
    data = ("--dataset", str(micro["data"]))
    for stage, inputs in (("preprocess", data), ("train", data),
                          ("eval", ("--model", str(micro["van"]), *data))):
        out = tmp_path / stage
        run_cli(stage, "--config", str(micro["cfg"]), "--set", "data.bogus=1", *inputs,
                "--out", str(out), expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config"
        assert "bogus" in err["message"]
        assert not out.exists()


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
    on_grid = np.mean(rel_l2_error(model_predict(model, val.inputs, val.x_grid.reshape(-1, 1)),
                                   val.outputs))
    assert report["best_error"] == pytest.approx(on_grid, rel=1e-12)


@pytest.mark.parametrize("family", ["vanilla", "radaptive"])
def test_training_without_a_val_split_validates_on_the_training_rows(tmp_path, family):
    # with no val split, each net's best_error is its saved state's mean
    # rel-L2 on the train split: on the dataset grid for vanilla, and on the
    # prep's mesh x and solution u at xi for the two radaptive nets
    from radonet.equidistribution import load_preprocessed
    from radonet.models import load_bundle
    from radonet.pde_data import load_dataset
    from radonet.reconstruct import rel_l2_error
    from radonet.training import model_predict

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MICRO))
    # a --set replaces the config file's counts, where the file's would merge
    c = ("--config", str(cfg), "--set", 'counts={"train": 6, "test": 4}')
    d, p, m = (str(tmp_path / name) for name in ("data", "prep", "model"))
    run_cli("datagen", *c, "--out", d)
    run_cli("preprocess", *c, "--dataset", d, "--out", p)
    run_cli("train", *c, "--set", f"model.family={family}", "--dataset", d, "--prep", p,
            "--out", m)
    datasets = load_dataset(d)
    assert sorted(datasets) == ["test", "train"]
    reports = json.loads((Path(m) / "report.json").read_text())["reports"]
    train, model = datasets["train"], load_bundle(m)
    if family == "vanilla":
        scored = {"model": (model, train.x_grid, train.outputs)}
    else:
        prep = load_preprocessed(p)["train"]
        scored = {"coord": (model.coord_net, prep.xi, prep.x),
                  "sol": (model.sol_net, prep.xi, prep.u)}
    assert set(reports) == set(scored)
    for name, (net, queries, targets) in scored.items():
        err = np.mean(rel_l2_error(model_predict(net, train.inputs, queries.reshape(-1, 1)),
                                   targets))
        assert reports[name]["best_error"] == pytest.approx(err, rel=1e-12)


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


def test_eval_refuses_a_shift_deeponet_bundle_as_an_unknown_kind(micro, tmp_path, capsys):
    # a model artifact of the shift-deeponet kind, which earlier versions wrote,
    # recorded as a sound artifact, so that only the bundle loader can refuse it
    import shutil

    model = tmp_path / "shift"
    shutil.copytree(micro["van"], model)
    manifest = json.loads((model / "manifest.json").read_text())
    (model / "manifest.json").write_text(json.dumps(dict(manifest, kind="shift-deeponet")))
    prov = dict(json.loads((model / "provenance.json").read_text()), content_hash=content_hash(model))
    (model / "provenance.json").write_text(json.dumps(prov))
    run_cli("eval", "--config", str(micro["cfg"]), "--model", str(model),
            "--dataset", str(micro["data"]), "--out", str(tmp_path / "e"), expect=1)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["kind"] == "runtime" and "'shift-deeponet' is unknown" in err["message"]
    assert not (tmp_path / "e").exists()


def test_stale_artifact_refusal(micro, tmp_path, capsys):
    import shutil

    tampered = tmp_path / "tampered"
    shutil.copytree(micro["data"], tampered)
    arr = np.load(tampered / "outputs_train.npy")
    np.save(tampered / "outputs_train.npy", arr * 1.5)
    run_cli("preprocess", "--config", str(micro["cfg"]), "--dataset", str(tampered),
            "--out", str(tmp_path / "p"), expect=2)
    assert read_error(capsys)["kind"] == "stale-upstream"

    # every artifact flag given is cross-checked against the others: a model
    # trained against a different dataset artifact is refused, and so is a
    # prep built from one, even where the stage does not read the prep
    c = ("--config", str(micro["cfg"]))
    other_data, other_prep = tmp_path / "other_data", tmp_path / "other_prep"
    run_cli("datagen", *c, "--set", "seed=4", "--out", str(other_data))
    run_cli("preprocess", *c, "--dataset", str(other_data), "--out", str(other_prep))
    data = ("--dataset", str(micro["data"]))
    for argv in (("eval", *c, "--model", str(micro["van"]), "--dataset", str(other_data)),
                 ("train", *c, *data, "--prep", str(other_prep)),
                 ("analyze", "spectrum", *data, "--prep", str(other_prep))):
        run_cli(*argv, "--out", str(tmp_path / "e"), expect=2)
        assert read_error(capsys)["kind"] == "stale-upstream"
        assert not (tmp_path / "e").exists()


def _rerecord(data, *built_from):
    """Record data's current content hash in its provenance, and as the
    upstream dataset of each artifact built from it, so that only the
    loaders can refuse a tampered file."""
    prov = json.loads((data / "provenance.json").read_text())
    prov["content_hash"] = content_hash(data)
    (data / "provenance.json").write_text(json.dumps(prov))
    for artifact in built_from:
        artifact_prov = json.loads((artifact / "provenance.json").read_text())
        artifact_prov["upstream"]["dataset"] = prov["content_hash"]
        (artifact / "provenance.json").write_text(json.dumps(artifact_prov))


@pytest.mark.parametrize("stage, unread, family", [
    pytest.param("eval", "train", "vanilla", id="eval-train"),
    pytest.param("train", "test", "vanilla", id="train-test"),
    # the radaptive train reads the train split's inputs but not its outputs
    pytest.param("train", "train", "radaptive", id="radaptive-train-train")])
def test_a_corrupt_header_in_a_split_the_stage_does_not_read_is_refused(
        micro, tmp_path, capsys, stage, unread, family):
    # eval reads only its split and train only train and val, yet every
    # array header is checked
    import shutil

    data, model, prep = tmp_path / "data", tmp_path / "model", tmp_path / "prep"
    shutil.copytree(micro["data"], data)
    shutil.copytree(micro["van"], model)
    shutil.copytree(micro["prep"], prep)
    blob = (data / f"outputs_{unread}.npy").read_bytes()
    assert blob.count(b"'<f8'") == 1
    (data / f"outputs_{unread}.npy").write_bytes(blob.replace(b"'<f8'", b"'<f4'"))
    _rerecord(data, model, prep)
    inputs = ("--model", str(model)) if stage == "eval" else ()
    if family == "radaptive":
        inputs = ("--set", "model.family=radaptive", "--prep", str(prep))
    run_cli(stage, "--config", str(micro["cfg"]), *inputs, "--dataset", str(data),
            "--out", str(tmp_path / "out"), expect=1)
    err = read_error(capsys)
    assert err["kind"] == "runtime" and f"outputs_{unread}.npy" in err["message"]
    assert not (tmp_path / "out").exists()


def test_content_hash_streams_the_documented_digest(tmp_path):
    # sha256 over path NUL bytes NUL of each file but provenance.json, in
    # sorted relative path order (FORMATS.md); files larger than the read
    # buffer, and empty ones, hash the same as when read whole
    import hashlib
    import tracemalloc

    from radonet import cli

    rng = np.random.default_rng(0)
    files = {"b.npy": rng.bytes(4 * 2**20 + 3), "a.json": b"{}\n", "sub/c.csv": b"",
             "sub/d.bin": rng.bytes(cli._HASH_CHUNK), "provenance.json": b"left out"}
    for name, blob in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(blob)
    h = hashlib.sha256()
    for name in ("a.json", "b.npy", "sub/c.csv", "sub/d.bin"):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    tracemalloc.start()
    try:
        digest = content_hash(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == h.hexdigest()
    assert peak < 2**20  # no whole 4 MB file in memory


_SOLVERS = {f"radonet.pde_data.{m}" for m in ("advection", "burgers", "grf", "riemann")}


def _modules_loaded(*argv) -> set:
    """The modules a fresh interpreter holds after importing radonet.cli and
    running main(argv), when argv is given."""
    code = ("import sys, radonet.cli; argv = sys.argv[1:]; "
            "code = radonet.cli.main(argv) if argv else 0; "
            "print(code, ' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(radonet.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()[-1].split()
    assert out[0] == "0"
    return set(out[1:])


def test_importing_the_cli_loads_no_stage_code():
    # each stage imports what it runs; the module itself needs only config
    # resolution and the stage writer
    loaded = _modules_loaded()
    assert "radonet.cli" in loaded
    assert not loaded & {"radonet.analysis", "radonet.training", "radonet.models",
                         "radonet.equidistribution", "radonet.reconstruct", *_SOLVERS}


def test_eval_loads_no_training_analysis_or_solver_code(micro, tmp_path):
    # a radaptive eval's mesh check takes its stencil from reconstruct
    for name in ("van", "rad"):
        loaded = _modules_loaded("eval", "--config", str(micro["cfg"]), "--model",
                                 str(micro[name]), "--dataset", str(micro["data"]),
                                 "--out", str(tmp_path / name))
        assert {"radonet.models", "radonet.reconstruct"} <= loaded
        assert not loaded & {"radonet.analysis", "radonet.training",
                             "radonet.equidistribution", *_SOLVERS}


def test_vanilla_train_loads_no_preprocessing_code(micro, tmp_path):
    # its periodic resampling takes close_periodic from reconstruct
    loaded = _modules_loaded("train", "--config", str(micro["cfg"]), "--dataset",
                             str(micro["data"]), "--out", str(tmp_path / "van"))
    assert "radonet.training" in loaded
    assert not loaded & {"radonet.analysis", "radonet.equidistribution", *_SOLVERS}


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
    # every stage that reads the dataset refuses one of another problem; sod,
    # unlike burgers, takes the micro config's data.n_grid, so the config
    # walk passes and the dataset check is what refuses
    data = ("--dataset", str(micro["data"]))
    for stage, inputs in (("preprocess", data), ("train", data),
                          ("eval", ("--model", str(micro["van"]), *data))):
        run_cli(stage, "--config", str(micro["cfg"]), "--set", "problem=sod", *inputs,
                "--out", str(tmp_path / stage), expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config" and "holds 'advection'" in err["message"]
        assert not (tmp_path / stage).exists()


def test_upstream_records_every_artifact_flag_given(micro, tmp_path):
    def upstream(root):
        return json.loads((root / "provenance.json").read_text())["upstream"]

    c, data, prep = ("--config", str(micro["cfg"])), str(micro["data"]), str(micro["prep"])
    for name, args in (("spec_prep", ("analyze", "spectrum", "--prep", prep)),
                       ("tail_data", ("analyze", "tail", "--dataset", data)),
                       ("spec_both", ("analyze", "spectrum", "--dataset", data, "--prep", prep)),
                       ("van_prep", ("train", *c, "--dataset", data, "--prep", prep))):
        run_cli(*args, "--out", str(tmp_path / name))
    hashes = {key: content_hash(micro[key]) for key in ("data", "prep", "van", "rad")}
    dataset, both = {"dataset": hashes["data"]}, {"dataset": hashes["data"], "prep": hashes["prep"]}
    for root, want in ((micro["data"], {}), (micro["prep"], dataset), (micro["van"], dataset),
                       (micro["rad"], both),
                       (micro["van_eval"], {"model": hashes["van"], **dataset}),
                       (micro["rad_eval"], {"model": hashes["rad"], **dataset}),
                       (tmp_path / "spec_prep", {"prep": hashes["prep"]}),
                       (tmp_path / "tail_data", dataset),
                       (tmp_path / "spec_both", both), (tmp_path / "van_prep", both)):
        assert upstream(root) == want, root.name


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


def test_analyze_spectrum_and_tail_of_a_one_row_split_are_config_errors(tmp_path, capsys,
                                                                         monkeypatch):
    from radonet import analysis

    data = tmp_path / "data"
    run_cli("datagen", "--set", "data.n_grid=64", "--set", 'counts={"train": 3, "val": 1}',
            "--out", str(data))

    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum was computed for a one-row split")

    monkeypatch.setattr(analysis, "covariance_spectrum", refuse)
    for kind in ("spectrum", "tail"):
        out = tmp_path / kind
        run_cli("analyze", kind, "--dataset", str(data), "--split", "val", "--out", str(out),
                expect=2)
        err = read_error(capsys)
        assert err["kind"] == "config"
        assert "'val'" in err["message"] and "has 1" in err["message"]
        assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ("adaptive-rate", "--ns", "16,32"),
    ("adaptive-rate", "--ns", "4,8,16"),
    ("adaptive-rate", "--ns", "16,16,32"),
    ("fem-rate", "--ns", "1,2,3", "--fine-points", "4097"),
    ("fem-rate", "--ns", "16,64,32", "--fine-points", "4097"),
    ("fem-rate", "--ns", "16,32,4096", "--fine-points", "4097"),  # the error would be 0
    ("fem-rate", "--ns", "16,32,8192", "--fine-points", "4097"),
    ("adaptive-rate", "--delta-power", "-1"),
    ("tail", "--dataset", "DATA", "--modes=-1,2"),
    ("spectrum", "--dataset", "DATA", "--field", "x"),
    ("tail", "--dataset", "DATA", "--field", "x"),
])
def test_analyze_arguments_are_refused_before_any_work(micro, tmp_path, capsys, monkeypatch,
                                                       argv):
    from radonet import cli

    def refuse(*args, **kwargs):
        raise AssertionError("inputs were checked for refused arguments")

    monkeypatch.setattr(cli, "check_artifact", refuse)
    argv = [str(micro["data"]) if arg == "DATA" else arg for arg in argv]
    run_cli("analyze", *argv, "--out", str(tmp_path / "out"), expect=2)
    assert read_error(capsys)["kind"] == "config"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("fem-rate", "--ns", "16,32,10000000000000"),  # 72.8 TiB of knots
    ("fem-rate", "--fine-points", "100000000000000"),  # 728 TiB of samples
    ("adaptive-rate", "--ns", "16,32,10000000000000"),
    ("fem-rate", "--ns", "16,32," + "9" * 400),  # past float range
])
def test_analyze_sizes_beyond_memory_are_refused_before_any_allocation(tmp_path, capsys,
                                                                       monkeypatch, argv):
    from radonet import analysis

    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated for refused arguments")

    for name in ("box_samples", "fem_uniform_interp_error", "adaptive_box_construct"):
        monkeypatch.setattr(analysis, name, refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    run_cli("analyze", *argv, "--out", str(tmp_path / "out"), expect=2)
    err = read_error(capsys)
    assert err["kind"] == "config" and "GB of memory" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_analyze_config_hash_ignores_paths(micro, tmp_path):
    # identical results in different places record the same provenance;
    # the inputs enter it through upstream's content hashes
    import shutil

    run_cli("analyze", "adaptive-rate", "--ns", "16,32,64", "--out", str(tmp_path / "a1"))
    run_cli("analyze", "adaptive-rate", "--ns", "16,32,64", "--out", str(tmp_path / "sub" / "a2"))
    assert (tmp_path / "a1" / "provenance.json").read_bytes() == \
        (tmp_path / "sub" / "a2" / "provenance.json").read_bytes()

    shutil.copytree(micro["data"], tmp_path / "data_copy")
    for name, data in (("s1", micro["data"]), ("s2", tmp_path / "data_copy")):
        run_cli("analyze", "spectrum", "--dataset", str(data), "--out", str(tmp_path / name))
    assert (tmp_path / "s1" / "provenance.json").read_bytes() == \
        (tmp_path / "s2" / "provenance.json").read_bytes()


# every subcommand that takes --out, named as its cmd_ function
STAGES = ("datagen", "preprocess", "train", "eval", "analyze_spectrum", "analyze_tail",
          "analyze_adaptive_rate", "analyze_fem_rate")


def _stage_argvs(micro) -> dict:
    c, data = ("--config", str(micro["cfg"])), ("--dataset", str(micro["data"]))
    return {
        "datagen": ("datagen", *c),
        "preprocess": ("preprocess", *c, *data),
        "train": ("train", *c, *data),
        "eval": ("eval", *c, "--model", str(micro["van"]), *data),
        "analyze_spectrum": ("analyze", "spectrum", *data),
        "analyze_tail": ("analyze", "tail", *data),
        "analyze_adaptive_rate": ("analyze", "adaptive-rate", "--ns", "16,32"),
        "analyze_fem_rate": ("analyze", "fem-rate", "--ns", "16,32", "--fine-points", "4097"),
    }


@pytest.mark.parametrize("stage", STAGES)
def test_existing_out_is_refused_before_any_work(micro, tmp_path, capsys, monkeypatch, stage):
    from radonet import cli
    from radonet.pde_data import dataset

    def refuse(*args, **kwargs):
        raise AssertionError("the stage ran into an existing --out")

    monkeypatch.setattr(dataset, "dataset_build", refuse)
    monkeypatch.setattr(cli, f"cmd_{stage}", refuse)
    out = tmp_path / "out"
    out.mkdir()
    (out / "stray.txt").write_text("left by an earlier run\n")
    run_cli(*_stage_argvs(micro)[stage], "--out", str(out), expect=2)
    err = read_error(capsys)
    assert err["kind"] == "usage" and "exists" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [p.name for p in out.iterdir()] == ["stray.txt"]
    assert (out / "stray.txt").read_text() == "left by an earlier run\n"


def test_failed_stage_leaves_no_output(micro, tmp_path, capsys, monkeypatch):
    # eval has written per_sample.csv and summary.json when provenance fails
    from radonet import cli

    def broken(out, *args, **kwargs):
        assert (out / "summary.json").exists()
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_provenance", broken)
    run_cli(*_stage_argvs(micro)["eval"], "--out", str(tmp_path / "e"), expect=1)
    err = read_error(capsys)
    assert err["kind"] == "runtime" and "disk full" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_are_json(capsys):
    run_cli("train", expect=2)  # missing required arguments
    assert read_error(capsys)["kind"] == "usage"
    run_cli("frobnicate", expect=2)
    assert read_error(capsys)["kind"] == "usage"


def test_main_returns_its_exit_code_and_never_exits(tmp_path, capsys, monkeypatch):
    # in-process callers (these tests, the benchmark's tracer) read the code
    # main returns; only run ends the process
    from radonet import cli

    def broken(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "cmd_analyze_adaptive_rate", broken)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: radonet")
    assert main(["frobnicate"]) == 2
    assert read_error(capsys)["kind"] == "usage"
    assert main(["analyze", "adaptive-rate", "--out", str(tmp_path / "a")]) == 1
    assert read_error(capsys)["kind"] == "runtime"


def _stage_process(*argv, cwd, stdout=subprocess.PIPE, **popen):
    """python -m radonet.cli as a stage of a pipeline runs it: its own process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(radonet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as a plain shell runs it
    return subprocess.run([sys.executable, "-m", "radonet.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120, **popen)


def test_stage_process_ends_with_its_output_flushed_and_complete(tmp_path):
    from radonet.cli import check_artifact

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MICRO))
    out, log = tmp_path / "data", tmp_path / "stdout.txt"
    # to a file, stdout is block-buffered: the line is there only if it was flushed
    with open(log, "wb") as fh:
        done = _stage_process("datagen", "--config", str(cfg), "--out", str(out),
                              cwd=tmp_path, stdout=fh)
    assert done.returncode == 0 and done.stderr == b""
    assert log.read_text() == f"wrote 13 samples across 3 splits to {out}\n"
    check_artifact(str(out))
    assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "in_process")]) == 0
    assert {f.name: f.read_bytes() for f in out.iterdir() if f.name != "provenance.json"} == \
        {f.name: f.read_bytes() for f in (tmp_path / "in_process").iterdir()
         if f.name != "provenance.json"}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "data", "in_process", "stdout.txt"]

    again = _stage_process("datagen", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
    assert again.returncode == 2 and again.stdout == b""
    lines = again.stderr.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "usage"


def test_stage_process_that_cannot_flush_its_output_fails_with_one_json_line(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    # buffered stdout goes out only in run's final flush, which fails on a full device
    with open("/dev/full", "wb") as full:
        done = _stage_process("config", "show-defaults", cwd=tmp_path, stdout=full)
    assert done.returncode == 1
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "runtime"


def test_stage_process_stderr_holds_only_its_json_error_line(tmp_path):
    # numpy's overflow warnings are errors in a stage process too: this
    # Burgers solve printed 18 RuntimeWarning messages before its JSON line
    done = _stage_process("datagen", "--set", "problem=burgers", "--set", MICRO_COUNTS,
                          "--set", "data.nu=1e300", "--set", "data.final_time=0.01",
                          "--set", "data.n_modes=64", "--set", "data.sensors=16",
                          "--out", str(tmp_path / "X"), cwd=tmp_path)
    assert done.returncode == 1
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "runtime"
    assert list(tmp_path.iterdir()) == []


def test_stage_process_help(tmp_path):
    done = _stage_process("--help", cwd=tmp_path)
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout.decode().startswith("usage: radonet")
    assert "datagen" in done.stdout.decode()


def test_stage_process_with_stdout_closed_succeeds(tmp_path):
    # with descriptor 1 closed at start-up, sys.stdout is None and print writes nothing
    done = _stage_process("config", "show-defaults", cwd=tmp_path, stdout=None,
                          preexec_fn=lambda: os.close(1))
    assert done.returncode == 0 and done.stderr == b""
