"""Every memory estimate a stage refuses a config by, held to the peak it
bounds.

For each key a refusal names, and for the validation and evaluated splits,
the stage runs in this process under tracemalloc at two sizes of the key,
and the estimate the stage computed (what it handed to
cli._refuse_above_memory) must grow by at least as much as the measured
peak. Growth, not the whole peak, is compared: a stage's peak also holds
what it loaded, which its estimate leaves to the stage that made it.

Where a stage runs two jobs (radonet.parallel.run_pair, and split_rows
through it), both processes are measured: the second job runs here first,
as a forked child would, with its result passed through a file as the
child passes it through a pipe; its peak above what it started from adds
to the peak of the rest of the stage. tracemalloc does not see the shared
memory split_rows fills, so its columns are made as plain numpy zeros
here, which the one process this test runs in fills just the same.
"""

import gc
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from radonet import cli, parallel

BASE = {
    "problem": "advection",
    "seed": 1,
    "counts": {"train": 40, "val": 10, "test": 10},
    "data": {"n_grid": 512},
    "preprocess": {"n_xi": 32},
    "model": {"n_basis": 16, "branch_hidden": [32, 32], "trunk_hidden": [32, 32],
              "output_points": 32},
    "train": {"epochs": 1, "validation_cadence": 1},
}
# a Burgers set of ten solver steps
BURGERS = ("problem=burgers", "data={}", "data.final_time=0.01", "data.dt=0.001")
RADAPTIVE = "model.family=radaptive"


class _Pair:
    """radonet.parallel.run_pair in one process, measuring both jobs."""

    def __init__(self, pipe):
        self.pipe = pipe
        self.parent = self.children = 0

    def run_pair(self, first, second):
        start, peak = tracemalloc.get_traced_memory()
        self.parent = max(self.parent, peak)
        tracemalloc.reset_peak()
        with open(self.pipe, "wb") as fh:
            pickle.dump((True, second()), fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.children += tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        result = first()
        _, value = pickle.loads(self.pipe.read_bytes())
        return result, value


@pytest.fixture(scope="module")
def make(tmp_path_factory):
    """make(stage, sets, out): the argv of that stage on BASE with the --set
    values sets, its upstream artifacts built with the same sets (once);
    for analyze, sets are its arguments."""
    root = tmp_path_factory.mktemp("estimates")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(BASE))
    made = {}

    def artifact(stage, sets):
        if (stage, sets) not in made:
            out = root / f"artifact{len(made)}"
            assert cli.main(argv(stage, sets, out)) == 0
            made[stage, sets] = str(out)
        return made[stage, sets]

    def argv(stage, sets, out):
        if stage == "analyze":
            return ["analyze", *sets, "--out", str(out)]
        inputs = {}
        if stage in ("preprocess", "train", "eval"):
            inputs["dataset"] = artifact("datagen", sets)
        if stage in ("train", "eval") and RADAPTIVE in sets:
            inputs["prep"] = artifact("preprocess", sets)
        if stage == "eval":
            inputs = {"model": artifact("train", sets), "dataset": inputs["dataset"]}
        return [stage, "--config", str(cfg), *(a for s in sets for a in ("--set", s)),
                *(a for flag, path in inputs.items() for a in (f"--{flag}", path)),
                "--out", str(out)]

    return argv


def _measure(make, tmp_path, monkeypatch, stage, sets, name):
    """(the peak bytes of the stage run, summed over its processes, the
    largest estimate it computed)."""
    argv = make(stage, sets, tmp_path / name)
    needs = []
    refuse = cli._refuse_above_memory

    def record(need, what, lower):
        needs.append(need)
        refuse(need, what, lower)

    pair = _Pair(tmp_path / "pipe")
    with monkeypatch.context() as m:
        m.setattr(cli, "_refuse_above_memory", record)
        m.setattr(parallel, "_can_fork", lambda: True)
        m.setattr(parallel, "run_pair", pair.run_pair)
        m.setattr(parallel, "_shared_zeros", lambda rows, width: np.zeros((rows, width)))
        # garbage an earlier run left for the collector would otherwise be
        # freed, or not, inside this run's measurement
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            pair.parent = max(pair.parent, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert needs, f"{stage} computed no estimate"
    return pair.parent + pair.children, max(needs)


# id: (stage, its two sizes, the --set values, or analyze arguments, of size n)
ROWS = {
    "datagen-counts": ("datagen", (100, 400), lambda n: (f"counts.train={n}",)),
    "datagen-advection-n_grid": ("datagen", (256, 4096), lambda n: (f"data.n_grid={n}",)),
    "datagen-sod-n_grid": ("datagen", (256, 4096), lambda n: ("problem=sod", f"data.n_grid={n}")),
    "datagen-burgers-n_modes": ("datagen", (64, 512), lambda n: (*BURGERS, f"data.n_modes={n}")),
    "datagen-burgers-sensors": ("datagen", (16, 512), lambda n: (*BURGERS, f"data.sensors={n}")),
    "preprocess-n_xi": ("preprocess", (64, 512), lambda n: (f"preprocess.n_xi={n}",)),
    "train-vanilla-output_points": ("train", (64, 1024), lambda n: (f"model.output_points={n}",)),
    "train-vanilla-n_basis": ("train", (16, 256), lambda n: (f"model.n_basis={n}",)),
    "train-vanilla-hidden": ("train", (64, 256), lambda n: (
        f"model.branch_hidden=[{n},{n}]", f"model.trunk_hidden=[{n},{n}]")),
    "train-vanilla-counts.val": ("train", (10, 400), lambda n: (f"counts.val={n}",)),
    "train-radaptive-n_basis": ("train", (16, 256), lambda n: (RADAPTIVE, f"model.n_basis={n}")),
    "train-radaptive-hidden": ("train", (64, 256), lambda n: (
        RADAPTIVE, f"model.branch_hidden=[{n},{n}]", f"model.trunk_hidden=[{n},{n}]")),
    "train-radaptive-n_xi": ("train", (64, 512), lambda n: (RADAPTIVE, f"preprocess.n_xi={n}")),
    "train-radaptive-counts.val": ("train", (10, 400), lambda n: (RADAPTIVE, f"counts.val={n}")),
    "eval-radaptive-xi_points": ("eval", (513, 8193), lambda n: (
        RADAPTIVE, f"eval.xi_points={n}")),
    "eval-vanilla-counts.test": ("eval", (10, 400), lambda n: (f"counts.test={n}",)),
    "eval-radaptive-counts.test": ("eval", (10, 400), lambda n: (
        RADAPTIVE, f"counts.test={n}", "eval.xi_points=null")),
    "analyze-fem-rate-fine-points": ("analyze", (4097, 65537), lambda n: (
        "fem-rate", "--ns", "16,32,64", "--fine-points", str(n))),
    "analyze-fem-rate-ns": ("analyze", (64, 4096), lambda n: (
        "fem-rate", "--ns", f"16,32,{n}", "--fine-points", "65537")),
    "analyze-adaptive-rate-ns": ("analyze", (64, 4096), lambda n: (
        "adaptive-rate", "--ns", f"16,32,{n}")),
}


@pytest.mark.parametrize("row", ROWS)
def test_estimate_grows_at_least_as_fast_as_the_measured_peak(make, tmp_path, monkeypatch, row):
    stage, (small, large), sets = ROWS[row]
    # a first run at the small size, so that what a stage imports and caches
    # once counts toward neither size
    _measure(make, tmp_path, monkeypatch, stage, sets(small), "warm")
    peak_small, need_small = _measure(make, tmp_path, monkeypatch, stage, sets(small), "small")
    peak_large, need_large = _measure(make, tmp_path, monkeypatch, stage, sets(large), "large")
    grown, allowed = peak_large - peak_small, need_large - need_small
    assert grown > 0, f"the peak did not grow from {small} to {large}"
    assert allowed >= grown, (f"the estimate grew by {allowed / 1e6:.3f} MB from {small} to "
                              f"{large}, the measured peak by {grown / 1e6:.3f} MB")
