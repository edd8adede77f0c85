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
