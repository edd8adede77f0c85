import json
import os
import time
import weakref

import numpy as np
import pytest

from radonet import cli, parallel
from radonet.cli import main
from radonet.models import DeepOnetModel
from radonet.nn import mlp_init, substream
from radonet.parallel import run_pair, split_rows
from radonet.training import TrainConfig, train


def _can_fork() -> bool:
    return parallel.usable_cores() >= 2 and parallel._openblas() is not None


needs_two_cores = pytest.mark.skipif(not _can_fork(),
                                     reason="needs two usable cores and an OpenBLAS thread setter")


def tiny_model(seed=0, n_in=2, n_basis=4):
    branch = mlp_init([n_in, 12, n_basis], activation="tanh", seed=seed)
    trunk = mlp_init([1, 12, n_basis], activation="tanh", seed=seed + 1)
    return DeepOnetModel(branch=branch, trunk=trunk, n_basis=n_basis,
                         query_lo=[0.0], query_hi=[1.0])


@pytest.mark.parametrize("concurrent", [True, False])
def test_run_pair_returns_both_results_in_order(monkeypatch, concurrent):
    if not concurrent:
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    rng = substream(9, "pair")
    inputs = rng.uniform(-1.0, 1.0, size=(12, 2))
    queries = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    targets = inputs[:, :1] * queries.T
    cfg = TrainConfig(epochs=15, validation_cadence=5, seed=1)
    first, second = run_pair(lambda: "first",
                             lambda: train(tiny_model(seed=6), inputs, targets, queries, cfg))
    model, report = train(tiny_model(seed=6), inputs, targets, queries, cfg)
    assert first == "first"
    assert second[1].validation_history == report.validation_history
    for got, want in zip(second[0].branch.weights + second[0].trunk.weights,
                         model.branch.weights + model.trunk.weights):
        assert got.tobytes() == want.tobytes()


@needs_two_cores
def test_run_pair_reaps_the_worker_when_the_parent_job_raises(forks):
    pids = forks
    get_threads, _ = parallel._openblas()
    threads = get_threads()
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        run_pair(lambda: 1 / 0, lambda: time.sleep(60))
    assert time.monotonic() - start < 30.0
    assert get_threads() == threads
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(pids[0], os.WNOHANG)


@needs_two_cores
def test_run_pair_drops_the_job_each_process_does_not_run(forks):
    # each job reports whether what only the other job holds is gone in the
    # process that runs it; the jobs are popped into the call, as train does
    class Held:
        pass

    def jobs():
        mine, theirs = Held(), Held()
        gone = weakref.ref(mine), weakref.ref(theirs)
        return [lambda: (mine is not None, gone[1]() is None),
                lambda: (theirs is not None, gone[0]() is None)]

    pair = jobs()
    # outside the assert, whose rewriting would keep the popped jobs
    got = run_pair(pair.pop(0), pair.pop())
    assert got == ((True, True), (True, True)) and len(forks) == 1


def _rows_job(split, rows, out):
    for i in rows:
        out["rows"][i] = [ord(split), i]
        out["pid"][i] = os.getpid()


_ROW_WIDTHS = {"rows": 2, "pid": 1}


@pytest.mark.parametrize("concurrent", [True, False])
def test_split_rows_fills_the_halves_in_row_order(monkeypatch, forks, concurrent):
    if concurrent and not _can_fork():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    if not concurrent:
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    # 8 rows in all: a and the first row of b in this process, the rest of b and c in the child
    counts = {"a": 3, "b": 4, "c": 1}
    got = split_rows(counts, _ROW_WIDTHS, _rows_job)
    assert list(got) == list(counts)
    for split, n in counts.items():
        assert got[split]["rows"].tolist() == [[ord(split), i] for i in range(n)]
        assert got[split]["pid"].shape == (n, 1)
    pids = np.concatenate([got[split]["pid"][:, 0] for split in counts])
    if concurrent:
        assert len(forks) == 1
        assert pids.tolist() == [os.getpid()] * 4 + [forks[0]] * 4
    else:
        assert forks == [] and set(pids.tolist()) == {os.getpid()}


@pytest.mark.parametrize("concurrent", [True, False])
def test_split_rows_writes_every_row_once_by_the_half_that_owns_it(monkeypatch, forks,
                                                                    concurrent):
    if concurrent and not _can_fork():
        pytest.skip("needs two usable cores and an OpenBLAS thread setter")
    if not concurrent:
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    calls = []

    def job(split, rows, out):  # a row written twice reads 2, a row left out 0
        calls.append((split, rows))
        for column in out.values():
            column[rows.start:rows.stop] += 1.0
        out["pid"][rows.start:rows.stop] = os.getpid()

    # 9 rows in all: a and the first two rows of b in the first half
    counts = {"a": 3, "b": 5, "c": 1}
    widths = {"x": 7, "y": 1, "z": 3, "pid": 1}
    got = split_rows(counts, widths, job)
    for split, n in counts.items():
        for name, width in widths.items():
            assert got[split][name].shape == (n, width)
        for name in ("x", "y", "z"):
            assert np.all(got[split][name] == 1.0), (split, name)
    pids = np.concatenate([got[split]["pid"][:, 0] for split in counts]).tolist()
    if concurrent:
        assert pids == [os.getpid()] * 5 + [forks[0]] * 4
        # the child's calls were made in the child, so only this half's are seen here
        assert calls == [("a", range(0, 3)), ("b", range(0, 2))]
    else:
        assert pids == [os.getpid()] * 9
        assert calls == [("a", range(0, 3)), ("b", range(0, 5)), ("c", range(0, 1))]


def test_split_rows_runs_a_single_row_here(forks):
    got = split_rows({"a": 1}, _ROW_WIDTHS, _rows_job)
    assert got["a"]["rows"].tolist() == [[ord("a"), 0]]
    assert got["a"]["pid"].tolist() == [[os.getpid()]]
    assert forks == []
    with pytest.raises(ValueError, match="at least one row"):
        split_rows({"a": 3, "b": 0, "c": 3}, _ROW_WIDTHS, _rows_job)


# --- the data stages on two cores ------------------------------------------

_MICRO_DATA = {
    "advection": ["--set", 'counts={"train": 6, "val": 3, "test": 4}', "--set", "data.n_grid=256"],
    "burgers": ["--set", "problem=burgers", "--set", 'counts={"train": 5, "val": 2, "test": 4}',
                "--set", "data.final_time=0.02", "--set", "data.n_modes=64",
                "--set", "data.sensors=16"],
    "sod": ["--set", "problem=sod", "--set", 'counts={"train": 3, "val": 1, "test": 2}',
            "--set", "data.n_grid=128"],
}


def _data_stages(root, spec):
    assert main(["datagen", *spec, "--out", str(root / "data")]) == 0
    assert main(["preprocess", *spec, "--set", "preprocess.n_xi=16",
                 "--dataset", str(root / "data"), "--out", str(root / "prep")]) == 0


def _files(root):
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


@needs_two_cores
@pytest.mark.parametrize("problem", sorted(_MICRO_DATA))
def test_data_stages_write_the_same_bytes_concurrently_and_in_turn(
        tmp_path, monkeypatch, forks, problem):
    _data_stages(tmp_path / "together", _MICRO_DATA[problem])
    assert len(forks) == 2  # one per stage
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    _data_stages(tmp_path / "in_turn", _MICRO_DATA[problem])
    assert len(forks) == 2
    together, in_turn = _files(tmp_path / "together"), _files(tmp_path / "in_turn")
    assert {"data/outputs_val.npy", "prep/w_coord_test.npy"} <= set(together)
    assert together == in_turn


@needs_two_cores
@pytest.mark.parametrize("failure", ["raise", "exit"])
@pytest.mark.parametrize("stage", ["datagen", "preprocess"])
def test_data_stage_worker_failure_is_a_runtime_error(
        tmp_path, monkeypatch, capsys, forks, stage, failure):
    from radonet import equidistribution
    from radonet.pde_data import advection

    spec = _MICRO_DATA["advection"]
    if stage == "preprocess":
        assert main(["datagen", *spec, "--out", str(tmp_path / "data")]) == 0
        forks.clear()
    module, name = {"datagen": (advection, "advection_exact"),
                    "preprocess": (equidistribution, "preprocess_sample")}[stage]
    real, parent = getattr(module, name), os.getpid()

    def broken(*args, **kwargs):  # the second half of the rows runs in the child
        if os.getpid() != parent:
            if failure == "raise":
                raise FloatingPointError("row went bad")
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, broken)
    out = tmp_path / "out"
    inputs = ["--dataset", str(tmp_path / "data")] if stage == "preprocess" else []
    assert main([stage, *spec, *inputs, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["kind"] == "runtime"
    assert ("FloatingPointError: row went bad" if failure == "raise"
            else "exit code 3") in err["message"]
    assert not out.exists()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forks[0], os.WNOHANG)


# --- the r-adaptive train on two cores --------------------------------------

_MICRO_NETS = ["--set", "model.n_basis=8", "--set", "model.branch_hidden=[16]",
               "--set", "model.trunk_hidden=[16]", "--set", "train.epochs=3"]


@needs_two_cores
def test_each_forked_radaptive_half_builds_only_its_own_net(tmp_path, monkeypatch, forks):
    spec = _MICRO_DATA["advection"]
    _data_stages(tmp_path, spec)
    forks.clear()
    log = tmp_path / "built"
    real = cli._make_deeponet

    def make(cfg, n_inputs, bounds, *, role):  # writes from the child too
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {role}\n")
        return real(cfg, n_inputs, bounds, role=role)

    def train(out):
        assert main(["train", *spec, *_MICRO_NETS, "--set", "preprocess.n_xi=16",
                     "--set", "model.family=radaptive", "--dataset", str(tmp_path / "data"),
                     "--prep", str(tmp_path / "prep"), "--out", str(tmp_path / out)]) == 0
        built = log.read_text().split()
        log.unlink()
        return list(zip(built[::2], built[1::2]))

    monkeypatch.setattr(cli, "_make_deeponet", make)
    built = train("forked")
    assert len(forks) == 1
    assert sorted(built) == sorted([(str(os.getpid()), "coord"), (str(forks[0]), "sol")])
    monkeypatch.setattr(parallel, "_can_fork", lambda: False)
    assert train("in_turn") == [(str(os.getpid()), "coord"), (str(os.getpid()), "sol")]
    assert len(forks) == 1

    def bundle(name):  # wall times go to provenance.json only
        return {path: data for path, data in _files(tmp_path / name).items()
                if not path.endswith("provenance.json")}

    assert bundle("forked") == bundle("in_turn")
