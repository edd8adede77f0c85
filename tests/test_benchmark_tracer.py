"""perfbench/tracer.py wraps radonet functions by module and name: a name
that no longer exists would make a traced benchmark run die on start-up, and
a function called through another name would drop out of the per-layer
metrics."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import radonet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_module_level_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for _, module, name in tracer.TRACED:
        fn = getattr(importlib.import_module(module), name, None)
        assert inspect.isfunction(fn), f"{module}.{name} is not a function"


def test_traced_stage_records_cli_spans_and_writes_the_same_bytes(tmp_path):
    # the tracer wraps radonet.cli.content_hash and write_provenance by name,
    # so it sees them only while the CLI calls them through those names
    from radonet.cli import main

    stage = ["datagen", "--set", 'counts={"train": 2, "test": 1}', "--set", "data.n_grid=64"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(radonet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, str(TRACER), str(tmp_path / "spans.json"), "--",
                    *stage, "--out", str(tmp_path / "traced")],
                   env=env, check=True, capture_output=True, timeout=120)
    assert main([*stage, "--out", str(tmp_path / "plain")]) == 0

    names = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
    assert {"cli.content_hash", "cli.write_provenance"} <= names

    def files(root):
        return {f.name: f.read_bytes() for f in sorted(root.iterdir())}

    assert files(tmp_path / "traced") == files(tmp_path / "plain")


def test_traced_train_stages_measure_what_they_load_and_write_the_same_bytes(tmp_path):
    # the tracer sizes load_dataset's result from every split's inputs and
    # outputs, so a train that loads only the inputs must still hand it arrays;
    # it keys training.epoch_ms.<kind> by each train call's loss= keyword
    from radonet.cli import main
    from radonet.parallel import _can_fork

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problem": "advection", "seed": 3, "counts": {"train": 4, "val": 2, "test": 1},
        "data": {"n_grid": 256}, "preprocess": {"n_xi": 8},
        "model": {"n_basis": 4, "branch_hidden": [8], "trunk_hidden": [8], "output_points": 16},
        "train": {"epochs": 2, "validation_cadence": 1}}))
    c, d, p = str(cfg), str(tmp_path / "data"), str(tmp_path / "prep")
    assert main(["datagen", "--config", c, "--out", d]) == 0
    assert main(["preprocess", "--config", c, "--dataset", d, "--out", p]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(radonet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))

    def files(root):
        return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
                if f.is_file() and f.name != "provenance.json"}

    for family in ("radaptive", "vanilla"):
        stage = ["train", "--config", c, "--set", f"model.family={family}",
                 "--dataset", d, "--prep", p]
        spans_json = tmp_path / f"{family}.json"
        traced = subprocess.run([sys.executable, str(TRACER), str(spans_json), "--",
                                 *stage, "--out", str(tmp_path / f"{family}-traced")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert traced.returncode == 0, traced.stderr
        assert main([*stage, "--out", str(tmp_path / f"{family}-plain")]) == 0
        spans = json.loads(spans_json.read_text())["spans"]
        loads = [span[5]["bytes"] for span in spans if span[0] == "pde_data.load_dataset"]
        # a forked child's spans stay in the child, so the solution net's
        # weighted loss is seen only where run_pair trains it here
        losses = {"vanilla": ["mse"],
                  "radaptive": ["coordinate"] + ([] if _can_fork() else ["weighted"])}[family]
        trains = [span[5] for span in spans if span[0] == "training.train"]
        assert trains == [{"loss": loss, "epochs": 2} for loss in losses]
        # x_grid (256 float64) and the inputs (6 rows of 3); vanilla adds the outputs
        held = 256 * 8 + 6 * 3 * 8 + (6 * 256 * 8 if family == "vanilla" else 0)
        assert loads == [held]
        assert files(tmp_path / f"{family}-traced") == files(tmp_path / f"{family}-plain")


def test_eval_calls_monotone_fix_through_its_name_once_per_sample(tmp_path, monkeypatch):
    # reconstruct.monotone_fix.calls counts the wrapper's calls, so eval must
    # reach the check through radonet.reconstruct.monotone_fix, once a sample
    from radonet import reconstruct
    from radonet.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problem": "advection", "seed": 3, "counts": {"train": 4, "val": 2, "test": 3},
        "data": {"n_grid": 256},
        "preprocess": {"n_xi": 8}, "model": {"family": "radaptive", "n_basis": 4,
                                             "branch_hidden": [8], "trunk_hidden": [8]},
        "train": {"epochs": 2, "validation_cadence": 1}, "eval": {"xi_points": 21}}))
    c, d, p, m = str(cfg), str(tmp_path / "data"), str(tmp_path / "prep"), str(tmp_path / "rad")
    assert main(["datagen", "--config", c, "--out", d]) == 0
    assert main(["preprocess", "--config", c, "--dataset", d, "--out", p]) == 0
    assert main(["train", "--config", c, "--dataset", d, "--prep", p, "--out", m]) == 0

    calls = []
    check = reconstruct.monotone_fix

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(reconstruct, "monotone_fix", counted)
    assert main(["eval", "--config", c, "--model", m, "--dataset", d,
                 "--out", str(tmp_path / "eval")]) == 0
    assert len(calls) == 3
    assert all(knots.shape == (21,) for knots, _ in calls)
