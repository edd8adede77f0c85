#!/usr/bin/env python3
"""Pipeline benchmark for radonet: run CLI stages in a closed loop and time them.

    python3 perfbench/run.py --workload adv-train --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

Run it from anywhere; it finds the repository next to this directory, runs
`python3 -m radonet.cli` from `src/` (nothing is installed or built), and
keeps its scratch files under `.bench_work/` and its records under
`.bench_out/` at the repository root. This process uses the standard library
only; the stages, tracer.py and envprobe.py run in child processes.

One client starts one stage at a time, each in its own process, and starts
the next only after the previous one exited (a closed loop). A workload has
an untimed set-up phase, which builds the upstream artifacts and is repeated
(3 times, 9 for the cheap data-prep set-up) so that its wall time is a
median, and a measured phase that runs a fixed cycle of stages a fixed
number of times: --seconds over the workload's nominal cycle time, so that
the same seed and --seconds always attempt the same stages. A fixed
reference load (refload.py) runs between stages and scales the timed metrics
to a nominal machine speed. The seed reaches the program only as
`--set seed=<s>`.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
workload once untraced and once with perfbench/tracer.py around every stage
and prints the per-layer metrics, including the tracing overhead as traced
minus untraced for each end-to-end metric. After a completed run the last
line of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Without the radonet sources next to it, it exits with code 2.
See perfbench/README.md for workloads, metrics and the correctness check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
ADV128 = CONFIGS / "advection_128.json"
ADV16 = CONFIGS / "advection_16.json"
BUR128 = CONFIGS / "burgers_128.json"

# The gated times are reported at a fixed machine speed, measured by
# perfbench/refload.py before every set-up and before every measured stage
# whose wall time counts toward the throughput (see README, Machine speed).
# Throughput is scaled by the median wall time of the reference over
# REF_NOMINAL_S; set-up time by REF_START_NOMINAL_S over the median of its
# start-up part (wall time minus the BLAS loop it reports).
REF_NOMINAL_S = 0.40
REF_START_NOMINAL_S = 0.20
# Training budgets. Model shapes, batch and data counts are those of configs/;
# only the epoch budget shrinks, with validation cadence and decay interval
# kept at epochs / 5 as in the configs (10000 / 2000).
TRAIN_EPOCHS = 200
SETUP_EPOCHS = 20
# Burgers solves each split as one FFT batch, so all splits shrink together
# (configs/burgers_128.json has 250/50/200).
BURGERS_COUNTS = {"train": 25, "val": 5, "test": 20}
STAGE_TIMEOUT_S = 150.0
# no measured cycle starts that would end a run later than this
RUN_BUDGET_S = 150.0
# train report.json records wall_seconds, so it differs between identical
# runs; provenance.json embeds the hashes of such files
DIGEST_EXCLUDED = ("provenance.json", "report.json")

MODELS = {  # name: (config, family, preprocessed artifact it trains on)
    "van128": (ADV128, "vanilla", None),
    "rad128": (ADV128, "radaptive", "prep128"),
    "van16": (ADV16, "vanilla", None),
    "rad16": (ADV16, "radaptive", "prep16"),
}


# ---------------------------------------------------------------------------
# stages


@dataclass
class Stage:
    name: str                      # unique within its group
    kind: str                      # probe | datagen | preprocess | train | eval
    argv: list[str]
    out: str | None = None         # artifact directory, relative to the work dir
    deps: tuple[str, ...] = ()     # keys ("group/name") that must have succeeded
    dataset: str | None = None     # dataset directory the stage reads


@dataclass
class Outcome:
    key: str
    stage: Stage
    group: str
    rc: int | None = None
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    error: str | None = None       # error kind; None on success
    message: str = ""
    items: float = 0.0
    spans: list | None = None


def _seed(seed: int) -> list[str]:
    return ["--set", f"seed={seed}"]


def _budget(epochs: int) -> list[str]:
    cadence = max(1, epochs // 5)
    return ["--set", f"train.epochs={epochs}", "--set", f"train.validation_cadence={cadence}",
            "--set", f"train.decay_interval={cadence}"]


def datagen(name, config, out, seed, extra=()) -> Stage:
    return Stage(name, "datagen", ["datagen", "--config", str(config), *_seed(seed), *extra,
                                   "--out", out], out)


def preprocess(name, config, data, out, seed, deps, extra=()) -> Stage:
    return Stage(name, "preprocess", ["preprocess", "--config", str(config), *_seed(seed),
                                      *extra, "--dataset", data, "--out", out],
                 out, tuple(deps), data)


def train(name, model, data, prep, out, seed, epochs, deps) -> Stage:
    config, family, _ = MODELS[model]
    argv = ["train", "--config", str(config), *_seed(seed), *_budget(epochs),
            "--set", f"model.family={family}", "--dataset", data]
    if prep is not None:
        argv += ["--prep", prep]
    return Stage(name, "train", argv + ["--out", out], out, tuple(deps), data)


def evaluate(name, model, model_dir, data, out, seed, deps) -> Stage:
    config, family, _ = MODELS[model]
    argv = ["eval", "--config", str(config), *_seed(seed), "--set", f"model.family={family}",
            "--model", model_dir, "--dataset", data, "--out", out]
    return Stage(name, "eval", argv, out, tuple(deps), data)


def show_defaults(name) -> Stage:
    return Stage(name, "probe", ["config", "show-defaults"])


# ---------------------------------------------------------------------------
# workloads


class AdvTrain:
    name = "adv-train"
    why = ("closed loop, 1 client: train+eval of van128, rad128, van16, rad16 on advection; "
           "nn, models and training do nearly all the work")
    measured_kinds = item_kinds = ("train",)
    setups = 3
    cycle_s = 13.0  # nominal wall time of one measured cycle, reference loads included

    def setup(self, g, seed):
        return [
            datagen("datagen", ADV128, f"{g}/data", seed),
            preprocess("prep128", ADV128, f"{g}/data", f"{g}/prep128", seed, [f"{g}/datagen"]),
            preprocess("prep16", ADV16, f"{g}/data", f"{g}/prep16", seed, [f"{g}/datagen"]),
        ]

    def cycle(self, c, s, seed):
        stages = []
        for m, (_, _, prep) in MODELS.items():
            deps = [f"{s}/datagen"] + ([f"{s}/{prep}"] if prep else [])
            stages.append(train(f"train-{m}", m, f"{s}/data", prep and f"{s}/{prep}",
                                f"{c}/model-{m}", seed, TRAIN_EPOCHS, deps))
            stages.append(evaluate(f"eval-{m}", m, f"{c}/model-{m}", f"{s}/data",
                                   f"{c}/eval-{m}", seed, [f"{c}/train-{m}"]))
        return stages


class AdvEval:
    name = "adv-eval"
    why = ("closed loop, 1 client: repeated eval of van128 and rad128 at 513 xi points; "
           "batch-1 forward, per-sample monotone_fix, dataset re-hashing")
    measured_kinds = item_kinds = ("eval",)
    setups = 3
    cycle_s = 2.6
    models = ("van128", "rad128")

    def setup(self, g, seed):
        stages = [
            datagen("datagen", ADV128, f"{g}/data", seed),
            preprocess("prep128", ADV128, f"{g}/data", f"{g}/prep128", seed, [f"{g}/datagen"]),
        ]
        for m in self.models:
            prep = MODELS[m][2]
            deps = [f"{g}/datagen"] + ([f"{g}/{prep}"] if prep else [])
            stages.append(train(f"train-{m}", m, f"{g}/data", prep and f"{g}/{prep}",
                                f"{g}/model-{m}", seed, SETUP_EPOCHS, deps))
        return stages

    def cycle(self, c, s, seed):
        return [evaluate(f"eval-{m}", m, f"{s}/model-{m}", f"{s}/data", f"{c}/eval-{m}", seed,
                         [f"{s}/train-{m}"])
                for m in self.models]


class DataPrep:
    name = "data-prep"
    why = ("closed loop, 1 client: datagen+preprocess of advection, burgers and sod; "
           "ETDRK4, exact Riemann and equidistribution do the work, nn does none")
    # samples made ready for training, over datagen + preprocess time
    measured_kinds, item_kinds = ("datagen", "preprocess"), ("preprocess",)
    setups = 9  # under a second each, so more of them for a steadier median
    cycle_s = 17.5

    def setup(self, g, seed):
        return [show_defaults("show-defaults")]

    def cycle(self, c, s, seed):
        bur = [x for split, n in BURGERS_COUNTS.items() for x in ("--set", f"counts.{split}={n}")]
        sod = ["--set", "problem=sod"]
        return [
            datagen("datagen-advection", ADV128, f"{c}/adv-data", seed),
            preprocess("prep-advection", ADV128, f"{c}/adv-data", f"{c}/adv-prep", seed,
                       [f"{c}/datagen-advection"]),
            datagen("datagen-burgers", BUR128, f"{c}/bur-data", seed, bur),
            preprocess("prep-burgers", BUR128, f"{c}/bur-data", f"{c}/bur-prep", seed,
                       [f"{c}/datagen-burgers"], bur),
            datagen("datagen-sod", ADV128, f"{c}/sod-data", seed, sod),
            preprocess("prep-sod", ADV128, f"{c}/sod-data", f"{c}/sod-prep", seed,
                       [f"{c}/datagen-sod"], sod),
        ]


WORKLOADS = {w.name: w for w in (AdvTrain(), AdvEval(), DataPrep())}


# ---------------------------------------------------------------------------
# running one stage


class Runner:
    """Runs stages one at a time in a work directory and keeps their outcomes."""

    def __init__(self, work: Path, env: dict, trace: bool):
        self.work = work
        self.env = env
        self.trace = trace
        self.outcomes: dict[str, Outcome] = {}
        self.refs: list[tuple[float, float]] = []  # (wall, start-up) of each reference
        (work / "logs").mkdir(parents=True, exist_ok=True)
        if trace:
            (work / "spans").mkdir(exist_ok=True)

    def reference(self) -> None:
        """Time one run of the reference load, which writes nothing."""
        out, err = self.work / "logs" / "refload.out", self.work / "logs" / "refload.err"
        status, _, wall, timed_out = _spawn([sys.executable, str(BENCH / "refload.py")],
                                            self.work, self.env, out, err)
        if timed_out or os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"reference load failed: {err.read_text()[-300:]}")
        self.refs.append((wall, wall - float(out.read_text())))

    def run(self, stage: Stage, group: str) -> Outcome:
        key = f"{group}/{stage.name}"
        out = Outcome(key, stage, group)
        self.outcomes[key] = out
        blocked = [d for d in stage.deps if self.outcomes[d].error is not None]
        if blocked:
            out.error, out.message = "upstream-failed", f"{blocked[0]} failed"
            return out
        flat = key.replace("/", "__")
        spans_path = self.work / "spans" / f"{flat}.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *stage.argv]
        else:
            cmd = [sys.executable, "-m", "radonet.cli", *stage.argv]
        err_path = self.work / "logs" / f"{flat}.err"
        status, usage, out.wall, timed_out = _spawn(
            cmd, self.work, self.env, self.work / "logs" / f"{flat}.out", err_path)
        out.rc = os.waitstatus_to_exitcode(status)
        out.cpu = usage.ru_utime + usage.ru_stime
        out.maxrss_kb = usage.ru_maxrss
        if self.trace and spans_path.exists():
            out.spans = json.loads(spans_path.read_text())["spans"]
        if timed_out:
            out.error, out.message = "timeout", f"killed after {STAGE_TIMEOUT_S:.0f} s"
        elif out.rc != 0:
            out.error, out.message = _json_error(err_path)
        else:
            out.items = _items(self.work, stage)
        return out


def _spawn(cmd, cwd, env, out_path, err_path):
    """Run cmd to completion; returns (wait status, rusage, wall seconds, timed out)."""
    timed_out = threading.Event()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(STAGE_TIMEOUT_S, kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, wall, timed_out.is_set()


def _json_error(err_path: Path) -> tuple[str, str]:
    """The error kind and message of the one-line JSON error a failed stage printed."""
    lines = err_path.read_text(errors="replace").strip().splitlines()
    try:
        err = json.loads(lines[-1])["error"]
        return str(err["kind"]), str(err["message"])
    except (IndexError, ValueError, KeyError, TypeError):
        return "no-json-error", (lines[-1] if lines else "")[:200]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _split_sizes(data_dir: Path) -> dict:
    return {k: v["n_samples"] for k, v in _read_json(data_dir / "manifest.json")["splits"].items()}


def _items(work: Path, stage: Stage) -> float:
    """Work done by a successful stage, read from the artifacts it wrote or read."""
    if stage.kind == "datagen":
        return float(sum(_split_sizes(work / stage.out).values()))
    if stage.kind == "preprocess":
        return float(sum(_split_sizes(work / stage.dataset).values()))
    if stage.kind == "train":
        rows = _split_sizes(work / stage.dataset)["train"]
        reports = _read_json(work / stage.out / "report.json")["reports"]
        return float(sum(rows * r["epochs_run"] for r in reports.values()))
    if stage.kind == "eval":
        return float(_read_json(work / stage.out / "summary.json")["n_samples"])
    return 0.0


# ---------------------------------------------------------------------------
# correctness


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file() and f.name not in DIGEST_EXCLUDED:
            h.update(f.relative_to(root).as_posix().encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def stage_state(work: Path, o: Outcome) -> str:
    """A stage's outcome and the digest of the artifacts it wrote."""
    if o.error is not None:
        return f"{o.stage.name}=failed:{o.error}"
    if o.stage.out is not None:
        return f"{o.stage.name}={tree_digest(work / o.stage.out)}"
    return f"{o.stage.name}=ok"


def check_eval(work: Path, o: Outcome) -> str | None:
    """mean_rel_l2 in summary.json must equal the mean of per_sample.csv."""
    summary = _read_json(work / o.stage.out / "summary.json")
    rows = (work / o.stage.out / "per_sample.csv").read_text().split()[1:]
    per = [float(r.split(",")[1]) for r in rows]
    if len(per) != summary["n_samples"]:
        return f"{o.key}: per_sample.csv has {len(per)} rows, summary says {summary['n_samples']}"
    mean = sum(per) / len(per)
    if abs(mean - summary["mean_rel_l2"]) > 1e-10 * abs(summary["mean_rel_l2"]):
        return f"{o.key}: per_sample mean {mean!r} != summary {summary['mean_rel_l2']!r}"
    return None


# ---------------------------------------------------------------------------
# one pass over a workload


@dataclass
class Pass:
    work: Path
    outcomes: list[Outcome] = field(default_factory=list)
    setup_walls: list[float] = field(default_factory=list)
    refs: list[tuple[float, float]] = field(default_factory=list)
    cycles: int = 0
    measured_s: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def measured_cycles(workload, seconds: float) -> int:
    """How many measured cycles a run makes: fixed by --seconds, not by a clock,
    so that runs of one seed attempt, and fail, the same stages."""
    return max(1, round(seconds / workload.cycle_s))


def run_pass(workload, seed: int, seconds: float, work: Path, env: dict, trace: bool,
             started: float) -> Pass:
    runner = Runner(work, env, trace)
    result = Pass(work)
    runner.run(show_defaults("warm-up"), "warm")  # fills bytecode and page caches
    groups: dict[str, list[Outcome]] = defaultdict(list)
    for g in range(workload.setups):
        runner.reference()
        t0 = time.perf_counter()
        for stage in workload.setup(f"setup{g}", seed):
            groups[f"setup{g}"].append(runner.run(stage, f"setup{g}"))
        result.setup_walls.append(time.perf_counter() - t0)
    last_setup = f"setup{workload.setups - 1}"
    t_measure = time.perf_counter()
    for c in range(measured_cycles(workload, seconds)):
        # a safety stop on a machine far slower than the nominal one
        cycle_wall = (time.perf_counter() - t_measure) / c if c else 0.0
        if time.perf_counter() + cycle_wall - started > RUN_BUDGET_S:
            break
        for stage in workload.cycle(f"cycle{c}", last_setup, seed):
            if stage.kind in workload.measured_kinds:
                runner.reference()
            groups[f"cycle{c}"].append(runner.run(stage, f"cycle{c}"))
    result.measured_s = time.perf_counter() - t_measure
    result.cycles = sum(g.startswith("cycle") for g in groups)
    result.refs = runner.refs
    result.outcomes = [o for g in groups.values() for o in g]

    # every set-up must produce the same bytes, and so must every repetition
    # of a measured stage
    setup_states = {"\n".join(stage_state(work, o) for o in groups[f"setup{g}"])
                    for g in range(workload.setups)}
    stage_states = defaultdict(set)
    for o in result.outcomes:
        if o.group.startswith("cycle"):
            stage_states[o.stage.name].add(stage_state(work, o))
    if len(setup_states) != 1:
        result.problems.append("set-up repetitions wrote different artifacts")
    result.problems += [f"repetitions of {name} wrote different artifacts"
                        for name, states in stage_states.items() if len(states) != 1]
    result.digest = hashlib.sha256("\n".join(
        sorted(setup_states) + sorted(x for v in stage_states.values() for x in v)
    ).encode()).hexdigest()
    for o in result.outcomes:
        if o.error == "no-json-error":
            result.problems.append(f"{o.key} failed without the CLI's JSON error: {o.message}")
        elif o.error is None and o.stage.kind == "eval":
            problem = check_eval(work, o)
            if problem:
                result.problems.append(problem)
    return result


# ---------------------------------------------------------------------------
# metrics


def _rate(outcomes, wall_kinds, item_kinds=None) -> float:
    """Items over wall time of one pass through the given stages.

    Each stage name counts once, with its median wall time over its
    successful repetitions, so every stage weighs the same however often
    it ran.
    """
    item_kinds = item_kinds or wall_kinds
    walls, items = defaultdict(list), {}
    for o in outcomes:
        if o.error is None and o.stage.kind in wall_kinds:
            walls[o.stage.name].append(o.wall)
            if o.stage.kind in item_kinds:
                items[o.stage.name] = o.items
    total = sum(statistics.median(w) for w in walls.values())
    return sum(items.values()) / total if total else 0.0


def raw_end_to_end(workload, p: Pass) -> dict:
    """The gated metrics as measured, before scaling to the nominal machine speed."""
    measured = [o for o in p.outcomes if o.group.startswith("cycle")]
    return {
        "setup_s": statistics.median(p.setup_walls),
        "measured_items_per_s": _rate(measured, workload.measured_kinds, workload.item_kinds),
        "peak_rss_mb": max(o.maxrss_kb for o in p.outcomes) / 1024.0,
    }


def end_to_end(workload, p: Pass) -> dict:
    # each factor is above 1 on a machine slower than the nominal one
    speed = statistics.median(w for w, _ in p.refs) / REF_NOMINAL_S
    start_speed = statistics.median(s for _, s in p.refs) / REF_START_NOMINAL_S
    raw = raw_end_to_end(workload, p)
    return {**raw, "setup_s": raw["setup_s"] / start_speed,
            "measured_items_per_s": raw["measured_items_per_s"] * speed}


def detail(workload, p: Pass) -> dict:
    """Per-stage and per-model figures that are printed but not gated."""
    failed = sum(o.error is not None for o in p.outcomes)
    raw = raw_end_to_end(workload, p)
    out = {
        "raw_setup_s": raw["setup_s"],
        "raw_measured_items_per_s": raw["measured_items_per_s"],
        "refload_median_s": statistics.median(w for w, _ in p.refs),
        "refload_start_median_s": statistics.median(s for _, s in p.refs),
        "refload_runs": len(p.refs),
        "datagen_samples_per_s": _rate(p.outcomes, ("datagen",)),
        "preprocess_samples_per_s": _rate(p.outcomes, ("preprocess",)),
        "train_sample_epochs_per_s": _rate(p.outcomes, ("train",)),
        "eval_samples_per_s": _rate(p.outcomes, ("eval",)),
        "ops_failed_frac": failed / len(p.outcomes),
        "measured_cycles": p.cycles,
        "measured_s": p.measured_s,
    }
    for o in p.outcomes:
        if o.stage.kind != "eval" or o.group != "cycle0":
            continue
        model = o.stage.name.removeprefix("eval-")
        if o.error is not None:
            out[f"rel_l2.{model}"] = f"failed ({o.error}: {o.message})"
            continue
        summary = _read_json(p.work / o.stage.out / "summary.json")
        out[f"rel_l2.{model}"] = summary["mean_rel_l2"]
        if "prefix_jacobian_positive_fraction" in summary:
            out[f"jacobian_positive_frac.{model}"] = summary["prefix_jacobian_positive_fraction"]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(p: Pass) -> dict:
    """Per-layer metrics from the spans of a traced pass (see tracer.py)."""
    calls = Counter()
    incl = defaultdict(float)
    extra = defaultdict(float)
    self_s = defaultdict(float)
    epoch_s, epochs = defaultdict(float), defaultdict(float)
    validate = loss = overhead = cpu = wall = 0.0
    fix_calls = fix_repaired = 0
    for o in p.outcomes:
        if o.spans is None:
            continue
        cpu += o.cpu
        wall += o.wall
        spans = o.spans
        root = 0.0
        validate_in = defaultdict(float)
        for name, t0, t1, parent, child, ext in spans:
            dur = t1 - t0
            self_s[name.split(".")[0]] += dur - child
            calls[name] += 1
            if parent < 0:
                root += dur
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:  # a recursive call is inside its caller's time already
                incl[name] += dur
            pname = spans[parent][0] if parent >= 0 else None
            if pname == "training.train" and name in ("training.model_predict",
                                                       "reconstruct.rel_l2_error"):
                validate += dur
                validate_in[parent] += dur
            if name.startswith("training.loss_"):
                loss += dur
            if name == "reconstruct.monotone_fix" and pname != "reconstruct.recover_uniform":
                fix_calls += 1
                fix_repaired += bool(ext and ext["repaired"])
            for k, v in (ext or {}).items():
                if isinstance(v, (int, float)):
                    extra[f"{name}.{k}"] += v
        for i, (name, t0, t1, _, _, ext) in enumerate(spans):
            if name == "training.train" and ext:  # a train that raised has no extra
                epoch_s[ext["loss"]] += t1 - t0 - validate_in[i]
                epochs[ext["loss"]] += ext["epochs"]
        overhead += o.wall - root

    # every traced function's call count and inclusive time, then the derived figures
    m = {}
    for layer, _, func in TRACED:
        m[f"{layer}.{func}.calls"] = calls[f"{layer}.{func}"]
        m[f"{layer}.{func}.s"] = incl[f"{layer}.{func}"]
    for layer in {layer for layer, _, _ in TRACED}:
        m[f"{layer}.self_s"] = self_s[layer]
    fwd_gf = extra["nn.mlp_forward.flop"] / 1e9
    bwd_gf = extra["nn.mlp_backward.flop"] / 1e9
    params = extra["nn.adam_step.params"]
    steps = extra["pde_data.burgers_solve.sample_steps"]
    m.update({
        "nn.mlp_forward.us_per_call": _ratio(m["nn.mlp_forward.s"] * 1e6,
                                             m["nn.mlp_forward.calls"]),
        "nn.mlp_forward.gflop": fwd_gf,
        "nn.mlp_forward.gflop_per_s": _ratio(fwd_gf, m["nn.mlp_forward.s"]),
        "nn.mlp_backward.gflop": bwd_gf,
        "nn.mlp_backward.gflop_per_s": _ratio(bwd_gf, m["nn.mlp_backward.s"]),
        "nn.adam_step.params": params,
        "nn.adam_step.ns_per_param": _ratio(m["nn.adam_step.s"] * 1e9, params),
        "nn.adam_step.mb_moved": 7 * 8 * params / 1e6,
        "training.train.epochs": sum(epochs.values()),
        **{f"training.epoch_ms.{kind}": _ratio(epoch_s[kind] * 1e3, epochs[kind])
           for kind in ("mse", "weighted", "coordinate")},
        "training.loss.s": loss,
        "training.validate.s": validate,
        "reconstruct.monotone_fix.repaired_frac": _ratio(fix_repaired, fix_calls),
        "pde_data.burgers_solve.sample_steps": steps,
        "pde_data.burgers_solve.us_per_sample_step": _ratio(
            m["pde_data.burgers_solve.s"] * 1e6, steps),
        "pde_data.save_dataset.mb": extra["pde_data.save_dataset.bytes"] / 1e6,
        "pde_data.load_dataset.mb": extra["pde_data.load_dataset.bytes"] / 1e6,
        "equidistribution.preprocess_sample.us_per_sample": _ratio(
            m["equidistribution.preprocess_sample.s"] * 1e6,
            m["equidistribution.preprocess_sample.calls"]),
        "cli.content_hash.mb": extra["cli.content_hash.bytes"] / 1e6,
        "cli.stage_overhead_s": overhead,
        "stage.cpu_per_wall": _ratio(cpu, wall),
    })
    return {k: float(v) for k, v in m.items()}


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest() -> str:
    """Identity of the code under test and of the benchmark's own settings."""
    h = hashlib.sha256()
    for f in sorted([*SRC.rglob("*.py"), *CONFIGS.glob("*.json"), *BENCH.glob("*.py")]):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def stage_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # OpenBLAS's own default is one thread per available core; set it explicitly
    # so every stage, and every later comparison, runs with the same setting
    env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env, nproc


def environment(env: dict, nproc: int, work: Path, seed: int) -> dict:
    probe = subprocess.run([sys.executable, str(BENCH / "envprobe.py")], cwd=work, env=env,
                           capture_output=True, text=True, timeout=60)
    record = {"nproc": nproc, "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
              "git_commit": _git_commit(), "source_digest": source_digest()[:16],
              "seed": seed}
    if probe.returncode == 0:
        record.update(json.loads(probe.stdout.strip().splitlines()[-1]))
    else:
        record["probe_error"] = probe.stderr.strip()[-200:]
    return record


# ---------------------------------------------------------------------------
# entry point


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _select(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def _check_seed_digest(workload: str, seed: int, digest: str) -> str | None:
    """Runs of one seed on one source tree must write the same artifact bytes."""
    path = ROOT / ".bench_out" / "digests" / source_digest()[:16] / f"{workload}-seed{seed}"
    if path.exists():
        previous = path.read_text().strip()
        if previous != digest:
            return f"artifact digest {digest[:16]} differs from an earlier run's {previous[:16]}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return None


def _log(line: str) -> None:
    print(line, flush=True)


def _report_pass(label: str, p: Pass) -> None:
    for o in p.outcomes:
        state = "ok" if o.error is None else f"FAILED {o.error}: {o.message}"
        _log(f"# {label} {o.key:<28} {o.wall:8.3f} s  cpu {o.cpu:7.3f} s  "
             f"rss {o.maxrss_kb / 1024:6.1f} MB  items {o.items:9.0f}  {state}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    base = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    env, nproc = stage_env()
    try:
        env_record = environment(env, nproc, base, seed)
        _log(f"# workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
        _log("# env " + json.dumps(env_record, sort_keys=True))
        passes = [run_pass(workload, seed, seconds, base / "untraced", env, False, started)]
        if trace:
            passes.append(run_pass(workload, seed, seconds, base / "traced", env, True, started))
        problems = [q for p in passes for q in p.problems]
        if len({p.digest for p in passes}) != 1:
            problems.append("traced and untraced runs wrote different artifacts")
        seen = _check_seed_digest(name, seed, passes[0].digest)
        if seen:
            problems.append(seen)
        e2e = [end_to_end(workload, p) for p in passes]
        for label, p in zip(("untraced", "traced"), passes):
            _report_pass(label, p)
        for k, v in e2e[0].items():
            unit = next(s["unit"] for s in spec["end_to_end"] if s["name"] == k)
            _log(f"# end-to-end {name} {k} = {v!r} {unit}")
        details = detail(workload, passes[0])
        for k, v in details.items():
            _log(f"# detail {name} {k} = {v!r}")
        _log(f"# artifact digest {passes[0].digest}")
        for q in problems:
            _log(f"# CORRECTNESS {q}")
        if trace:
            values = per_layer(passes[1])
            for k, v in e2e[1].items():
                values[f"trace_overhead.{k}"] = v - e2e[0][k]
            metrics = _select(values, spec["per_layer"])
        else:
            metrics = _select(e2e[0], spec["end_to_end"])
        result = {
            "correct": not problems,
            "attempted": sum(len(p.outcomes) for p in passes),
            "failed": sum(o.error is not None for p in passes for o in p.outcomes),
            "metrics": metrics,
        }
        record_dir = ROOT / ".bench_out" / "results"
        record_dir.mkdir(parents=True, exist_ok=True)
        (record_dir / f"{name}-seed{seed}-trace{int(trace)}-{int(time.time())}.json").write_text(
            json.dumps({"env": env_record, "result": result, "detail": details,
                        "end_to_end": e2e, "problems": problems}, indent=1, sort_keys=True))
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radonet pipeline benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "radonet" / "cli.py").is_file() or not ADV128.is_file():
        sys.stderr.write(f"perfbench: no radonet sources under {ROOT}; "
                         "run from a checkout of the repository\n")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = _benchmark_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
