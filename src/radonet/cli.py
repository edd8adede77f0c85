"""Configuration-driven pipeline runner.

Stages: datagen -> preprocess -> train -> eval, plus standalone analyze
subcommands. Every stage writes its outputs into a directory together with a
provenance.json recording the resolved-config hash, a content hash of the
artifact files, and the content hashes of the upstream artifacts it consumed.
All randomness flows from the single seed in the config through named
substreams, so reruns are reproducible byte for byte.

main runs every stage the same way. A stage's --out must not exist yet:
stage_output hands the stage a fresh sibling directory, which is renamed
onto --out when the stage returns and deleted when it raises, so an --out
holds exactly one stage's complete output or does not exist. Inside it, main
resolves the config, checks every artifact flag given (check_inputs), calls
the stage with the checked paths and writes provenance.json; the stages only
compute.

Errors leave through exit codes: 0 success, 2 for configuration/usage
problems, 1 for runtime failures; in both failure cases a one-line JSON
object describing the error is printed to stderr. main returns that code and
never exits, so tests and other in-process callers call main. A stage
process (python -m radonet.cli, or the installed radonet command) enters
through run, which calls main, flushes stdout and stderr and ends the
process with os._exit, skipping the interpreter's teardown: by the time main
returns, stage_output has renamed or deleted the .partial directory, every
file has been written and closed, and run_pair has reaped its child, so
teardown has nothing left to finish. resolve_config refuses,
before any work and in one walk of the config, an unknown key, a value of
the wrong JSON type and a value that fails its row of _RULES, then a split
name that no file name can hold.

At module level this file imports only what parsing, config resolution and
the stage writer need. Each stage imports the modules it runs when it
starts, so that eval, say, never loads the training loop, the analysis
code or a PDE solver.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .pde_data.dataset import dataset_params

DEFAULT_CONFIG = {
    "problem": "advection",
    "seed": 0,
    "counts": {"train": 250, "val": 50, "test": 200},
    "data": {},
    "preprocess": {
        "n_xi": 128,
        "m_cap": 2.0,
        "mbar_cap": 100.0,
        "beta": 1.0,
        "smoothing_passes": 2,
        "ratio_limit": 0.3,
    },
    "model": {
        "family": "vanilla",
        "n_basis": 64,
        "branch_hidden": [128, 128, 128],
        "trunk_hidden": [128, 128, 128],
        "branch_activation": "tanh",
        "trunk_activation": "relu",
        "output_points": 128,
    },
    "train": {
        "epochs": 10000,
        "batch_size": None,
        "base_lr": 1e-3,
        "decay_fraction": 0.1,
        "decay_interval": 2000,
        "validation_cadence": 2000,
    },
    "eval": {"split": "test", "xi_points": 513},
}

# keys that may also be null, with the type of their other values
_NULLABLE = {"train.batch_size": int, "preprocess.ratio_limit": float, "eval.xi_points": int}

_TYPE_NAMES = {dict: "an object", int: "an integer", float: "a number", str: "a string"}

# bytes content_hash reads from a file at a time
_HASH_CHUNK = 1 << 18


def _at_least(least):
    return f"at least {least}", lambda v, _: v >= least


def _one_of(*choices):
    return f"one of {choices}", lambda v, _: v in choices


def _whole_steps(final_time, dt) -> bool:
    from .pde_data.burgers import step_count

    return step_count(final_time, dt) is not None


_ABOVE_0 = "above 0", lambda v, _: v > 0
_ORDERED = "[lo, hi] with lo <= hi", lambda v, _: v[0] <= v[1]
_POSITIVE = "[lo, hi] with 0 < lo <= hi", lambda v, _: 0 < v[0] <= v[1]
_LAYERS = "a list of integers at least 1", lambda v, _: all(n >= 1 for n in v)

# (what a value must be, the test of it) for each key whose values of the
# right type not every stage can run; NaN fails every test, and a null passes.
# A test takes the value and its section, the defaults with the config's
# values over them, so a row may read the value's neighbours. A data key's
# row is named by its problem, not by "data", and counts.* is the row of
# every split
_RULES = {
    "seed": _at_least(0), "counts.*": _at_least(1),
    "advection.n_grid": _at_least(3),
    "advection.period": ("above the upper end of data.width_range",
                         lambda v, s: v > s["width_range"][1]),
    "advection.height_range": _POSITIVE,
    "advection.width_range": ("[lo, hi] with 0 < lo <= hi < data.period",
                              lambda v, s: 0 < v[0] <= v[1] < s["period"]),
    "advection.shift_range": _ORDERED,
    "burgers.nu": _ABOVE_0, "burgers.n_modes": _at_least(8),
    "burgers.dt": ("above 0 and dividing data.final_time into whole steps",
                   lambda v, s: _whole_steps(s["final_time"], v)),
    "burgers.sensors": _at_least(1),
    "burgers.final_time": ("at least 0 and a whole number of data.dt steps",
                           lambda v, s: _whole_steps(v, s["dt"])),
    "burgers.grf_convention": _one_of("angular", "integer"), "burgers.grf_modes": _at_least(1),
    "sod.n_grid": _at_least(3), "sod.domain": ("[lo, hi] with lo < hi", lambda v, _: v[0] < v[1]),
    "sod.final_time": _ABOVE_0,
    "preprocess.n_xi": _at_least(2), "preprocess.m_cap": _at_least(1),
    "preprocess.mbar_cap": _at_least(1), "preprocess.beta": _at_least(0),
    "preprocess.smoothing_passes": _at_least(0), "preprocess.ratio_limit": _ABOVE_0,
    "model.family": _one_of("vanilla", "radaptive"), "model.n_basis": _at_least(1),
    "model.branch_hidden": _LAYERS, "model.trunk_hidden": _LAYERS,
    "model.branch_activation": _one_of("relu", "tanh"),
    "model.trunk_activation": _one_of("relu", "tanh"), "model.output_points": _at_least(1),
    "train.epochs": _at_least(1), "train.batch_size": _at_least(1), "train.base_lr": _ABOVE_0,
    "train.decay_fraction": ("in [0, 1)", lambda v, _: 0 <= v < 1),
    "train.decay_interval": _at_least(1), "train.validation_cadence": _at_least(1),
    "eval.xi_points": _at_least(2),
}


class CliError(Exception):
    def __init__(self, message: str, kind: str = "config"):
        super().__init__(message)
        self.kind = kind


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


# ---------------------------------------------------------------------------
# config plumbing


def _merge(base: dict, over: dict) -> dict:
    """over laid on base: where both hold an object the two merge, anywhere
    else the value of over replaces that of base."""
    return {key: _merge(base[key], over[key])
            if isinstance(base.get(key), dict) and isinstance(over.get(key), dict)
            else copy.deepcopy(over.get(key, base.get(key)))
            for key in sorted(set(base) | set(over))}


def _apply_override(cfg: dict, spec: str) -> None:
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise CliError(f"override {spec!r} is not of the form key.path=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *sections, name = key.split(".")
    node = cfg
    for part in sections:
        if not isinstance(node.get(part), dict):
            raise CliError(f"no config section {part!r} in override {spec!r}")
        node = node[part]
    node[name] = value


def _is_a(kind: type, value) -> bool:
    # JSON types: true is not an integer, and a number may be written as one
    return type(value) in ((int, float) if kind is float else (kind,))


def _check(schema: dict, cfg: dict, problem: str, path: str = "") -> None:
    """Refuse a key of cfg that schema lacks (a schema key "*" stands for
    any), a value whose JSON type is not its schema value's and a value that
    fails its _RULES row. Integer keys take integers only (not true, not
    2.5), float keys integers or floats, and null only where _NULLABLE allows
    it. A list schema value takes a list of its elements' type, a tuple (a
    range or a domain) a list of as many numbers. Every value of a section
    has its type checked before any rule of the section reads it."""
    for key, value in cfg.items():
        where = path + key
        if key not in schema and "*" not in schema:
            raise CliError(f"unknown {problem} parameter {where!r}" if path == "data."
                           else f"unknown config key {where!r}")
        default = schema.get(key, schema.get("*"))
        kind = _NULLABLE.get(where, type(default))
        if kind in (list, tuple):
            ok = (type(value) is list and all(_is_a(type(default[0]), v) for v in value)
                  and (kind is list or len(value) == len(default)))
            want = "a list of integers" if kind is list else f"a list of {len(default)} numbers"
        else:
            ok = _is_a(kind, value) or (value is None and where in _NULLABLE)
            want = _TYPE_NAMES[kind] + (" or null" if where in _NULLABLE else "")
        if not ok:
            raise CliError(f"config key {where!r} must be {want}, got {value!r}")
        if kind is dict:
            _check(default, value, problem, where + ".")
    section = {**schema, **cfg}
    for key, value in cfg.items():
        where = path + key
        rule = f"{problem}.{key}" if path == "data." else where if key in schema else path + "*"
        if rule in _RULES and value is not None and not _RULES[rule][1](value, section):
            raise CliError(f"config key {where!r} must be {_RULES[rule][0]}, got {value!r}")


def resolve_config(args) -> dict:
    """The defaults, with the --config file merged over them and each --set
    laid over that, refused unless _check passes all of it; the data section
    takes the parameters of the config's problem."""
    user = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise CliError(f"config file {args.config} does not exist")
        try:
            user = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    for spec in getattr(args, "set", None) or []:
        _apply_override(cfg, spec)
    try:  # refuses an unknown problem
        data = dataset_params(str(cfg["problem"]), {})
    except ValueError as exc:
        raise CliError(str(exc))
    _check({**DEFAULT_CONFIG, "counts": {"*": 1}, "data": data}, cfg, cfg["problem"])
    for split in cfg["counts"]:
        try:  # of the files <column>_<split>.npy, outputs_<split>.npy has the longest name
            fits = len(f"outputs_{split}.npy".encode("utf-8")) <= 255  # Linux's NAME_MAX
        except UnicodeEncodeError:  # a surrogate, which no UTF-8 name holds
            fits = False
        if not fits or "/" in split or "\0" in split:
            raise CliError(f"config key {'counts.' + split!r} must name a split with no '/', "
                           "NUL or surrogate, whose outputs_<name>.npy is at most 255 bytes")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# artifact provenance


def content_hash(root: Path) -> str:
    """sha256 over path NUL bytes NUL of every file under root but
    provenance.json, in sorted path order; each file streams through one
    fixed-size buffer, so hashing holds no whole file in memory."""
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    for f in sorted(root.rglob("*")):
        if f.is_file() and f.name != "provenance.json":
            h.update(f.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            with open(f, "rb") as fh:
                while n := fh.readinto(buf):
                    h.update(view[:n])
            h.update(b"\0")
    return h.hexdigest()


def write_provenance(out: Path, stage: str, cfg: dict, upstream: dict,
                     wall_seconds: dict | None = None) -> None:
    doc = {
        "stage": stage,
        "package_version": __version__,
        "config_hash": config_hash(cfg),
        "content_hash": content_hash(out),
        "upstream": upstream,
    }
    if wall_seconds is not None:
        # wall times differ between identical runs, so they stay out of the
        # hashed files and live here
        doc["wall_seconds"] = wall_seconds
    (out / "provenance.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def stage_output(path: str):
    """The directory a stage writes into: refuses an existing path, yields a
    fresh sibling .<name>.<pid>.partial, renames it onto path when the block
    returns and deletes it when the block raises."""
    final = Path(path)
    if os.path.lexists(final):
        raise CliError(f"{path} already exists; every stage writes a new --out", kind="usage")
    final.parent.mkdir(parents=True, exist_ok=True)
    partial = final.with_name(f".{final.name}.{os.getpid()}.partial")
    partial.mkdir()  # not mkdtemp, whose directories are private (mode 0700)
    try:
        yield partial
        os.rename(partial, final)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise


def _write_outputs(out: Path, table: tuple[str, list[str]], report: tuple[str, dict]) -> None:
    """Write the CSV lines of table and the JSON of report, each under its
    file name."""
    (out / table[0]).write_text("\n".join(table[1]) + "\n")
    (out / report[0]).write_text(json.dumps(report[1], indent=2, sort_keys=True) + "\n")


def check_artifact(path_str: str) -> tuple[Path, dict]:
    """Validate an upstream artifact directory; returns (path, provenance)."""
    root = Path(path_str)
    prov_path = root / "provenance.json"
    if not root.is_dir():
        raise CliError(f"{path_str}: artifact directory does not exist", kind="missing-input")
    if not prov_path.exists():
        raise CliError(f"{path_str}: missing provenance.json (not a pipeline artifact)",
                       kind="missing-input")
    try:
        prov = json.loads(prov_path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CliError(f"{path_str}: provenance.json is not valid JSON ({exc})",
                       kind="stale-upstream")
    if not isinstance(prov, dict) or not isinstance(prov.get("upstream", {}), dict):
        raise CliError(f"{path_str}: provenance.json must hold a JSON object whose "
                       "upstream entry is an object", kind="stale-upstream")
    current = content_hash(root)
    if prov.get("content_hash") != current:
        raise CliError(
            f"{path_str}: contents no longer match what the {prov.get('stage')} stage "
            "wrote (stale or modified artifact)", kind="stale-upstream")
    return root, prov


# the artifact flags a stage may take, in the order they are checked; each is
# recorded in upstream under its own name
_INPUTS = ("model", "dataset", "prep")


def check_inputs(args) -> tuple[dict[str, Path], dict[str, str]]:
    """({flag: path}, {flag: content hash}) of every artifact flag given,
    each checked by check_artifact, refused as stale-upstream where one names
    another given flag in its upstream with a different hash."""
    checked = {flag: check_artifact(getattr(args, flag))
               for flag in _INPUTS if getattr(args, flag, None)}
    for flag, (_, prov) in checked.items():
        for name, digest in prov.get("upstream", {}).items():
            if name in checked and digest != checked[name][1]["content_hash"]:
                raise CliError(f"--{flag} {getattr(args, flag)} was built from another "
                               f"{name} artifact than --{name} {getattr(args, name)}",
                               kind="stale-upstream")
    return ({flag: path for flag, (path, _) in checked.items()},
            {flag: prov["content_hash"] for flag, (_, prov) in checked.items()})


# ---------------------------------------------------------------------------
# model construction helpers


def _derived_seed(root_seed: int, *names: str) -> int:
    from .nn import substream

    return int(substream(root_seed, *names).integers(0, 2**63 - 1))


def _layers(cfg: dict, n_inputs: int) -> tuple[list[int], list[int]]:
    """The (branch, trunk) layer sizes of the config's nets."""
    m = cfg["model"]
    return ([n_inputs, *m["branch_hidden"], m["n_basis"]],
            [1, *m["trunk_hidden"], m["n_basis"]])


def _make_deeponet(cfg: dict, n_inputs: int, bounds, *, role: str):
    from .models import CoordinateNet, DeepOnetModel
    from .nn import mlp_init

    m = cfg["model"]
    branch, trunk = (mlp_init(sizes, activation=m[f"{net}_activation"],
                              seed=_derived_seed(cfg["seed"], "init", role, net))
                     for net, sizes in zip(("branch", "trunk"), _layers(cfg, n_inputs)))
    cls = CoordinateNet if role == "coord" else DeepOnetModel
    return cls(branch=branch, trunk=trunk, n_basis=m["n_basis"],
               query_lo=[bounds[0]], query_hi=[bounds[1]])


def _uniform_targets(ds, n_points: int):
    """Resample a split's output fields onto n uniform query points."""
    from .pde_data.dataset import uniform_grid
    from .reconstruct import close_periodic

    domain, periodic = ds.geometry()
    q = uniform_grid(domain, periodic, n_points)
    grid, outputs = ds.x_grid, ds.outputs
    if periodic:
        grid, outputs = close_periodic(grid, outputs, domain[1] - domain[0])
    targets = np.stack([np.interp(q, grid, row) for row in outputs])
    return q.reshape(-1, 1), targets


def _finite(value) -> float | None:
    # strict JSON has no NaN or Infinity: an aborted run's loss is written as null
    return float(value) if np.isfinite(value) else None


def _report_dict(report) -> dict:
    return {
        "validation_history": [[int(e), _finite(v)] for e, v in report.validation_history],
        "best_epoch": int(report.best_epoch),
        "best_error": _finite(report.best_error),
        "final_loss": _finite(report.final_loss),
        "aborted": bool(report.aborted),
        "epochs_run": int(report.epochs_run),
    }


def _refuse_above_memory(need: int, what: str, lower: str) -> None:
    """Refuse, naming what to lower, work that needs more than this machine's
    physical memory (need bytes), before the stage allocates anything. Each
    estimate of need lives beside the arrays it counts, and
    tests/test_memory_estimates.py holds it to the peak tracemalloc measures."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        tenths = (need + 5 * 10**7) // 10**8  # integer GB / 10: need may be past float range
        raise CliError(f"{what} needs about {tenths // 10}.{tenths % 10} GB, more than this "
                       f"machine's {have / 1e9:.1f} GB of memory; lower {lower}")


# ---------------------------------------------------------------------------
# stages


def cmd_datagen(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .pde_data.dataset import dataset_build, dataset_bytes, save_dataset

    sizes = "data.n_modes or data.sensors" if cfg["problem"] == "burgers" else "data.n_grid"
    _refuse_above_memory(dataset_bytes(cfg["problem"], cfg["counts"], cfg["data"]),
                         f"datagen of {sum(cfg['counts'].values())} samples",
                         f"counts.* or {sizes}")
    datasets = dataset_build(cfg["problem"], cfg["seed"], cfg["counts"], cfg["data"])
    save_dataset(out, datasets)
    print(f"wrote {sum(d.n_samples for d in datasets.values())} samples "
          f"across {len(datasets)} splits to {args.out}")


def _config_dataset(cfg: dict, path: Path, splits=None, outputs: bool = True) -> dict:
    """The named splits (None: all) of the dataset at path, with their
    outputs unless outputs is False, refused unless it holds the config's
    problem."""
    from .pde_data.dataset import load_dataset

    datasets = load_dataset(path, splits, outputs)
    for ds in datasets.values():
        if ds.problem != cfg["problem"]:
            raise CliError(f"dataset holds {ds.problem!r} but config says {cfg['problem']!r}")
    return datasets


def cmd_preprocess(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .equidistribution import (PreprocessedSet, preprocess_bytes, preprocess_sample,
                                   save_preprocessed)
    from .parallel import split_rows

    datasets = _config_dataset(cfg, inputs["dataset"])
    domain, periodic = next(iter(datasets.values())).geometry()
    n_xi = cfg["preprocess"]["n_xi"]
    _refuse_above_memory(preprocess_bytes(sum(ds.n_samples for ds in datasets.values()), n_xi),
                         f"preprocess at preprocess.n_xi {n_xi}", "preprocess.n_xi")
    xi = np.linspace(domain[0], domain[1], n_xi + 1)

    def prep(split, rows):
        samples = [preprocess_sample(row, domain, periodic=periodic, **cfg["preprocess"])
                   for row in datasets[split].outputs[rows.start:rows.stop]]
        return {name: np.stack([s[name] for s in samples])
                for name in PreprocessedSet.ROW_COLUMNS}

    # a row depends on nothing but its dataset row, so the rows may run in two halves
    columns = split_rows({split: ds.n_samples for split, ds in datasets.items()}, prep)
    sets = {split: PreprocessedSet(cfg["problem"], xi, **cols) for split, cols in columns.items()}
    save_preprocessed(out, sets)
    print(f"preprocessed {len(datasets)} splits into {args.out}")


def _load_split(splits: dict, split: str, what: str):
    if split not in splits:
        raise CliError(f"{what} split {split!r} not present in the artifact", kind="missing-input")
    return splits[split]


def cmd_train(args, cfg: dict, inputs: dict, out: Path) -> dict:
    from .models import RAdaptiveSystem, save_bundle
    from .parallel import run_pair
    from .training import TrainConfig, net_bytes, train

    family, problem = cfg["model"]["family"], cfg["problem"]
    # both radaptive nets learn from the prep's mapped targets, so that
    # family reads no dataset outputs
    datasets = _config_dataset(cfg, inputs["dataset"], ("train", "val"),
                               outputs=family != "radaptive")
    train_ds = _load_split(datasets, "train", "training")
    val_ds = datasets.get("val")
    tc = TrainConfig(**cfg["train"], seed=cfg["seed"])
    n_rows, n_in = train_ds.inputs.shape
    widths = "model.n_basis or the model.*_hidden widths"
    encoding = {"advection": "box-params(height,width,shift)",
                "burgers": f"{n_in}-point-sensors",
                "sod": "riemann-z6"}[problem]

    if family == "radaptive":
        from .equidistribution import load_preprocessed

        if "prep" not in inputs:
            raise CliError("family 'radaptive' requires --prep", kind="missing-input")
        psets = load_preprocessed(inputs["prep"], ("train", "val"))
        pset = _load_split(psets, "train", "training")
        vset = None if val_ds is None else psets.get("val")
        xi = pset.xi
        queries = xi.reshape(-1, 1)
        bounds = (float(xi[0]), float(xi[-1]))
        # run_pair may train the two nets at once, so their peaks add up
        n_val = n_rows if vset is None else len(vset.x)
        _refuse_above_memory(sum(net_bytes(*_layers(cfg, n_in), n_rows, xi.size, n_val, xi.size,
                                           head) for head in (True, False)),
                             "training a radaptive model", widths)
        tr_in = train_ds.inputs
        va_in = None if vset is None else val_ds.inputs

        coord = _make_deeponet(cfg, n_in, bounds, role="coord")
        sol = _make_deeponet(cfg, n_in, bounds, role="sol")
        # the two nets share nothing, so they may train at the same time
        (coord, coord_rep), (sol, sol_rep) = run_pair(
            lambda: train(coord, tr_in, pset.x, queries, tc, loss="coordinate",
                          weights=pset.w_coord, val_inputs=va_in,
                          val_targets=None if vset is None else vset.x),
            lambda: train(sol, tr_in, pset.u, queries, tc, loss="weighted",
                          weights=pset.w_sol, val_inputs=va_in,
                          val_targets=None if vset is None else vset.u))
        system = RAdaptiveSystem(coord_net=coord, sol_net=sol, xi_grid=xi)
        save_bundle(out, system, input_encoding=encoding,
                    extra={"problem": problem, "family": family})
        run_reports = {"coord": coord_rep, "sol": sol_rep}
    else:
        n_points = cfg["model"]["output_points"]
        # validation scores what eval scores, rel-L2 on the dataset's own
        # grid: a narrow box can fall between all output_points, and its
        # all-zero resampled target has no relative error
        val = train_ds if val_ds is None else val_ds
        _refuse_above_memory(net_bytes(*_layers(cfg, n_in), n_rows, n_points, val.n_samples,
                                       val.x_grid.size),
                             f"training a vanilla model at model.output_points {n_points}",
                             f"model.output_points, {widths}")
        queries, targets = _uniform_targets(train_ds, n_points)
        if val is not train_ds:  # training reads the targets, validation the val split
            train_ds.outputs = np.empty((n_rows, 0))
        model = _make_deeponet(cfg, n_in, train_ds.geometry()[0], role="vanilla")
        model, report = train(model, train_ds.inputs, targets, queries, tc, loss="mse",
                              val_inputs=val.inputs, val_targets=val.outputs,
                              val_queries=val.x_grid.reshape(-1, 1))
        save_bundle(out, model, input_encoding=encoding,
                    extra={"problem": problem, "family": family})
        run_reports = {"model": report}

    reports = {k: _report_dict(r) for k, r in run_reports.items()}
    (out / "report.json").write_text(json.dumps(
        {"family": family, "problem": problem, "reports": reports},
        indent=2, sort_keys=True) + "\n")
    best = {k: r["best_error"] for k, r in reports.items()}
    print(f"trained {family} model on {problem}; best validation errors {best}")
    return {k: float(r.wall_seconds) for k, r in run_reports.items()}


def cmd_eval(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .models import eval_bytes, load_bundle, model_predict, radaptive_predict_graph
    from .reconstruct import fd_derivative, recover_uniform, rel_l2_error

    model = load_bundle(inputs["model"])
    split = cfg["eval"]["split"]
    ds = _load_split(_config_dataset(cfg, inputs["dataset"], (split,)), split, "evaluation")
    domain, _ = ds.geometry()
    grid, refs, n = ds.x_grid, ds.outputs, ds.n_samples
    _refuse_above_memory(eval_bytes(n, grid.size), f"eval of {n} {split} samples",
                         f"the dataset's counts.{split}")
    summary = {"split": split, "n_samples": int(n), "problem": ds.problem,
               "family": model.family}

    if model.family == "radaptive":
        preds = np.empty_like(refs)
        # the solution net is continuous along the computational axis, so
        # evaluation may sample it more densely than the training grid; the
        # mesh there is interpolated from the native knots. That removes the
        # piecewise-linear knot budget from coarse-grid models. A null, like any
        # count up to n_xi + 1, evaluates on the native grid and knots
        n_pts = max(cfg["eval"]["xi_points"] or 0, model.xi_grid.size)
        _refuse_above_memory(eval_bytes(n, grid.size, n_pts, model.sol_net.trunk.layer_sizes),
                             f"eval at eval.xi_points {n_pts}", "eval.xi_points")
        xi_eval = np.linspace(float(model.xi_grid[0]), float(model.xi_grid[-1]), n_pts)
        # one call for the whole split: each trunk runs once, and each branch
        # runs on a stack of one-row batches, so the bytes match evaluating
        # each sample on its own (a many-row branch matmul rounds differently)
        pred = radaptive_predict_graph(model, ds.inputs, xi=xi_eval)
        # mesh usability is judged on the model's own computational grid,
        # where the coordinate net predicts its knots
        det = fd_derivative(pred.native_knots, float(model.xi_grid[1] - model.xi_grid[0]))
        for i in range(n):
            preds[i] = recover_uniform(pred.knots[i], pred.values[i], grid, domain)
        # a mesh with a repeated knot (a jump) is usable but not strictly monotone
        n_monotone = int(np.sum(np.all(np.diff(pred.knots, axis=1) > 0.0, axis=1)))
        summary["xi_points"] = int(pred.knots.shape[1])
        summary["prefix_jacobian_positive_fraction"] = int(np.sum(det > 0.0)) / det.size
        summary["monotone_mesh_fraction"] = n_monotone / n
    else:
        preds = model_predict(model, ds.inputs, grid.reshape(-1, 1))

    per = rel_l2_error(preds, refs)
    summary["mean_rel_l2"] = float(np.mean(per))
    lines = ["sample,rel_l2"]
    lines += [f"{i},{e:.12e}" for i, e in enumerate(per)]
    _write_outputs(out, ("per_sample.csv", lines), ("summary.json", summary))
    print(f"{summary['family']} on {ds.problem}/{split}: "
          f"mean relative L2 error {summary['mean_rel_l2']:.6e}")


# ---------------------------------------------------------------------------
# analyze subcommands


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise CliError(f"{what} is empty")
    return values


def _args_config(args) -> dict:
    """JSON-safe view of an analyze command's arguments, for provenance
    hashing, refused before any work where the analysis could not run them:
    radonet.analysis makes the same checks, for its library callers, only
    once the work has begun. Paths are left out: upstream names the inputs by
    content hash, and where the output goes does not change it."""
    kind = args.analysis
    if kind in ("spectrum", "tail"):
        if not (args.dataset or args.prep):
            raise CliError("need --dataset or --prep", kind="missing-input")
        if args.field not in ("u", "x") or (args.field == "x" and not args.prep):
            raise CliError(f"--field must be 'u', or 'x' with --prep, got {args.field!r}")
    if kind == "tail" and min(_parse_int_list(args.modes, "--modes")) < 0:
        raise CliError(f"--modes must be at least 0, got {args.modes!r}")
    if kind in ("adaptive-rate", "fem-rate"):
        ns, least = _parse_int_list(args.ns, "--ns"), 8 if kind == "adaptive-rate" else 2
        if len(ns) < 3 or min(ns) < least or any(a >= b for a, b in zip(ns, ns[1:])):
            raise CliError(f"--ns must be at least 3 strictly increasing sizes, each at "
                           f"least {least}, got {args.ns!r}")
        if kind == "fem-rate" and args.fine_points < 4097:
            raise CliError("--fine-points must be at least 4097")
        if kind == "fem-rate" and args.target not in ("box", "sine"):
            raise CliError(f"--target must be 'box' or 'sine', got {args.target!r}")
        from .analysis import adaptive_rate_bytes, fem_rate_bytes

        if kind == "fem-rate":
            _refuse_above_memory(fem_rate_bytes(args.fine_points, ns[-1]),
                                 f"fem-rate at --fine-points {args.fine_points} and size "
                                 f"{ns[-1]}", "--fine-points or the largest --ns")
            # such a mesh is no coarser than the fine grid that measures its error;
            # on a multiple of that grid the error is 0, which the rate fit cannot log
            if ns[-1] >= args.fine_points - 1:
                raise CliError(f"--ns sizes must be below --fine-points - 1 = "
                               f"{args.fine_points - 1}, got {args.ns!r}")
        else:
            _refuse_above_memory(adaptive_rate_bytes(ns[-1]), f"adaptive-rate at size {ns[-1]}",
                                 "the largest --ns")
    if kind == "adaptive-rate":
        try:  # the ramp width of each size, as the stage computes it
            widths = [float(n) ** (-args.delta_power) for n in ns]
        except OverflowError:
            widths = [np.inf]
        if not all(0.0 < w < np.pi / 2 for w in widths):
            raise CliError(f"--delta-power {args.delta_power} gives a ramp width n**-p "
                           "outside (0, pi/2) for some n of --ns")
    return {k: v for k, v in vars(args).items()
            if not callable(v) and k not in ("out", "dataset", "prep")}


def _spectrum_source(args, inputs: dict) -> tuple[np.ndarray, float, str]:
    """Pick the dataset matrix for spectrum/tail commands."""
    if "prep" in inputs:
        from .equidistribution import load_preprocessed

        pset = _load_split(load_preprocessed(inputs["prep"], (args.split,)), args.split,
                           "analysis")
        data = pset.u if args.field == "u" else pset.x
        dx = float(pset.xi[1] - pset.xi[0])
        tag = f"{pset.problem}/{args.split}/{args.field}(xi)"
    else:
        from .pde_data.dataset import load_dataset

        ds = _load_split(load_dataset(inputs["dataset"], (args.split,)), args.split, "analysis")
        data = ds.outputs
        dx = float(ds.x_grid[1] - ds.x_grid[0])
        tag = f"{ds.problem}/{args.split}/u(x)"
    if data.shape[0] < 2:
        raise CliError(f"analyze {args.analysis} needs a split of at least 2 rows, but split "
                       f"{args.split!r} has {data.shape[0]}")
    return data, dx, tag


def cmd_analyze_spectrum(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .analysis import covariance_spectrum

    data, dx, tag = _spectrum_source(args, inputs)
    report = covariance_spectrum(data, dx, tag=tag)
    lines = ["index,eigenvalue"]
    lines += [f"{j + 1},{lam:.12e}" for j, lam in enumerate(report.eigenvalues)]
    doc = {
        "tag": report.tag,
        "n_grid": report.n_grid,
        "n_samples": int(data.shape[0]),
        "trace": float(np.sum(report.eigenvalues)),
        "leading": [float(v) for v in report.eigenvalues[:10]],
    }
    _write_outputs(out, ("spectrum.csv", lines), ("spectrum.json", doc))
    print(f"spectrum of {tag}: trace {doc['trace']:.6e}")


def cmd_analyze_tail(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .analysis import covariance_spectrum, optimal_error_tail

    data, dx, tag = _spectrum_source(args, inputs)
    report = covariance_spectrum(data, dx, tag=tag)
    modes = _parse_int_list(args.modes, "--modes")
    tails = [(n, optimal_error_tail(report, n)) for n in modes]
    lines = ["n,tail"] + [f"{n},{t:.12e}" for n, t in tails]
    doc = {"tag": tag, "tails": {str(n): float(t) for n, t in tails}}
    _write_outputs(out, ("tail.csv", lines), ("tail.json", doc))
    print(f"tail sums of {tag}: " + ", ".join(f"n={n}: {t:.3e}" for n, t in tails))


def cmd_analyze_adaptive_rate(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .analysis import adaptive_box_construct, rate_fit

    ns = _parse_int_list(args.ns, "--ns")
    deltas = [float(n) ** (-args.delta_power) for n in ns]
    errors = [adaptive_box_construct(d, n).error for n, d in zip(ns, deltas)]
    result = rate_fit(ns, errors)
    lines = ["n,delta,error"] + [f"{n},{d:.12e},{e:.12e}" for n, d, e in zip(ns, deltas, errors)]
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "delta_power": args.delta_power}
    _write_outputs(out, ("adaptive_rate.csv", lines), ("adaptive_rate.json", doc))
    print(f"adaptive interpolant rate: slope {result.slope:.4f} "
          f"(residual {result.residual:.2e})")


def cmd_analyze_fem_rate(args, cfg: dict, inputs: dict, out: Path) -> None:
    from .analysis import box_samples, fem_uniform_interp_error, rate_fit

    ns = _parse_int_list(args.ns, "--ns")
    if args.target == "box":
        domain = (-np.pi, np.pi)
        u = box_samples(np.linspace(domain[0], domain[1], args.fine_points))
    else:
        domain = (0.0, 1.0)
        u = np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, args.fine_points))
    errors = [fem_uniform_interp_error(u, n, domain) for n in ns]
    result = rate_fit(ns, errors)
    lines = ["n,error"] + [f"{n},{e:.12e}" for n, e in zip(ns, errors)]
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "target": args.target}
    _write_outputs(out, ("fem_rate.csv", lines), ("fem_rate.json", doc))
    print(f"uniform-mesh interpolation rate on {args.target}: slope {result.slope:.4f}")


def cmd_show_defaults(args) -> None:
    print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radonet",
                     description="Adaptive-grid operator learning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    # the config stages, each with the artifact flags it takes; --prep is optional
    for name, text, func, flags in (
            ("datagen", "generate a PDE dataset", cmd_datagen, ()),
            ("preprocess", "redistribute dataset outputs onto adaptive grids", cmd_preprocess,
             ("--dataset",)),
            ("train", "train an operator model", cmd_train, ("--dataset", "--prep")),
            ("eval", "evaluate a trained model", cmd_eval, ("--model", "--dataset"))):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON experiment config (defaults filled in)")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override one config entry; repeatable")
        for flag in flags:
            p.add_argument(flag, required=flag != "--prep", help="preprocessed artifact "
                           "(required for radaptive)" if flag == "--prep" else None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("analyze", help="spectra, tail sums and rate fits")
    asub = p.add_subparsers(dest="analysis", required=True)

    for name, fn in (("spectrum", cmd_analyze_spectrum), ("tail", cmd_analyze_tail)):
        q = asub.add_parser(name)
        q.add_argument("--dataset")
        q.add_argument("--prep")
        q.add_argument("--split", default="train")
        q.add_argument("--field", default="u", help="u or x (with --prep)")
        if name == "tail":
            q.add_argument("--modes", default="8,16,32,64")
        q.add_argument("--out", required=True)
        q.set_defaults(func=fn)

    q = asub.add_parser("adaptive-rate")
    q.add_argument("--ns", default="16,32,64,128,256,512")
    q.add_argument("--delta-power", type=float, default=3.0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_analyze_adaptive_rate)

    q = asub.add_parser("fem-rate")
    q.add_argument("--ns", default="16,32,64,128,256,512")
    q.add_argument("--target", default="box")
    q.add_argument("--fine-points", type=int, default=2**16 + 1)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_analyze_fem_rate)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_cmd", required=True)
    q = csub.add_parser("show-defaults")
    q.set_defaults(func=cmd_show_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is None:
            args.func(args)
        else:
            with stage_output(args.out) as out:
                analyze = args.command == "analyze"
                cfg = _args_config(args) if analyze else resolve_config(args)
                inputs, upstream = check_inputs(args)
                wall_seconds = args.func(args, cfg, inputs, out)
                write_provenance(out, f"analyze-{args.analysis}" if analyze else args.command,
                                 cfg, upstream, wall_seconds)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CliError as exc:
        _emit_error(exc.kind, str(exc))
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI contract wants JSON errors
        _emit_error("runtime", f"{type(exc).__name__}: {exc}")
        return 1
    return 0


def run() -> None:
    """The process entry point: main on the command line, then os._exit with
    its code once stdout and stderr are flushed. Output lost in that flush
    fails the process like any runtime error, with one JSON line on stderr
    and exit 1; where main had already failed, it has printed its line, and
    its code stands. An exception main lets through (KeyboardInterrupt) takes
    the interpreter's normal exit."""
    code = main(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor was closed at start-up
                stream.flush()
    except OSError as exc:
        if code == 0:
            code = 1
            with contextlib.suppress(OSError, AttributeError):  # stderr lost or closed too
                _emit_error("runtime", f"flushing output: {type(exc).__name__}: {exc}")
                sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
