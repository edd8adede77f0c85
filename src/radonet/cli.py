"""Configuration-driven pipeline runner.

Stages: datagen -> preprocess -> train -> eval, plus standalone analyze
subcommands. Every stage writes its outputs into a directory together with a
provenance.json recording the resolved-config hash, a content hash of the
artifact files, and the content hashes of the upstream artifacts it consumed.
Downstream stages recompute upstream hashes and refuse to run on anything
stale or hand-edited. All randomness flows from the single seed in the
config through named substreams, so reruns are reproducible byte for byte.

A stage's --out must not exist yet. main builds it through stage_output: the
stage fills a fresh sibling directory, which is renamed onto --out when the
stage returns and deleted when it raises, so an --out holds exactly one
stage's complete output or does not exist.

Errors leave through exit codes: 0 success, 2 for configuration/usage
problems, 1 for runtime failures; in both failure cases a one-line JSON
object describing the error is printed to stderr. resolve_config refuses,
before any work, a value of the wrong JSON type or outside the range a
stage can run.

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

# sections whose keys are not fixed in advance
_FREE_SECTIONS = {"counts", "data"}

# keys that may also be null, with the type of their other values
_NULLABLE = {"train.batch_size": int, "preprocess.ratio_limit": float, "eval.xi_points": int}

_TYPE_NAMES = {dict: "an object", int: "an integer", float: "a number", str: "a string"}

_FAMILIES = ("vanilla", "shift", "radaptive")

# bytes content_hash reads from a file at a time
_HASH_CHUNK = 1 << 18

# the least value of each integer key that a stage can run; a null passes,
# and so does a data key that the problem lacks
_AT_LEAST = {
    "data.n_grid": 1, "data.n_modes": 1, "data.sensors": 1, "preprocess.n_xi": 2,
    "train.epochs": 1, "train.batch_size": 1, "train.decay_interval": 1,
    "train.validation_cadence": 1, "eval.xi_points": 2,
}


class CliError(Exception):
    def __init__(self, message: str, kind: str = "config"):
        super().__init__(message)
        self.kind = kind


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


# ---------------------------------------------------------------------------
# config plumbing


def _merge(defaults: dict, user: dict, free: bool, path: str) -> dict:
    out = {}
    for key in sorted(set(defaults) | set(user)):
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            if not free:
                raise CliError(f"unknown config key {where!r}")
            out[key] = copy.deepcopy(user[key])
        elif key not in user:
            out[key] = copy.deepcopy(defaults[key])
        elif isinstance(defaults[key], dict) and isinstance(user[key], dict):
            out[key] = _merge(defaults[key], user[key], key in _FREE_SECTIONS, where)
        else:
            out[key] = copy.deepcopy(user[key])
    return out


def _apply_override(cfg: dict, spec: str) -> None:
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise CliError(f"override {spec!r} is not of the form key.path=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node, free = cfg, False
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise CliError(f"no config section {part!r} in override {spec!r}")
        free = part in _FREE_SECTIONS
        node = node[part]
    if parts[-1] not in node and not free:
        raise CliError(f"unknown config key {key!r}")
    node[parts[-1]] = value


def _is_a(kind: type, value) -> bool:
    # JSON types: true is not an integer, and a number may be written as one
    return type(value) in ((int, float) if kind is float else (kind,))


def _check_types(defaults: dict, cfg: dict, path: str = "") -> None:
    """Refuse a value of cfg whose JSON type is not its default's: integer
    keys take integers only (not true, not 2.5), float keys take integers or
    floats, and null is taken only where _NULLABLE allows it. A list default
    takes a list of its elements' type, a tuple default (a range or a domain)
    a list of as many numbers."""
    for key, value in cfg.items():
        where, default = path + key, defaults[key]
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
        if kind is dict and key not in _FREE_SECTIONS:
            _check_types(default, value, where + ".")


def _check_ranges(cfg: dict) -> None:
    """Refuse values of the right type that no stage can run: integers below
    their _AT_LEAST, a base_lr not above 0, a decay_fraction outside [0, 1),
    a *_range whose lo exceeds its hi and a domain whose lo is not below its hi."""
    data = dataset_params(cfg["problem"], cfg["data"])
    for key, least in _AT_LEAST.items():
        section, name = key.split(".")
        value = (data if section == "data" else cfg[section]).get(name)
        if value is not None and value < least:
            raise CliError(f"config key {key!r} must be at least {least}, got {value!r}")
    train = cfg["train"]
    if not train["base_lr"] > 0:
        raise CliError(f"config key 'train.base_lr' must be above 0, got {train['base_lr']!r}")
    if not 0 <= train["decay_fraction"] < 1:
        raise CliError("config key 'train.decay_fraction' must be in [0, 1), "
                       f"got {train['decay_fraction']!r}")
    for key, value in data.items():
        if key.endswith("_range") and value[0] > value[1]:
            raise CliError(f"config key 'data.{key}' must be [lo, hi] with lo <= hi, "
                           f"got {value!r}")
    if "domain" in data and not data["domain"][0] < data["domain"][1]:
        raise CliError(f"config key 'data.domain' must be [lo, hi] with lo < hi, "
                       f"got {data['domain']!r}")


def resolve_config(args) -> dict:
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
    cfg = _merge(DEFAULT_CONFIG, user, False, "")
    for spec in getattr(args, "set", None) or []:
        _apply_override(cfg, spec)
    _check_types(DEFAULT_CONFIG, cfg)
    if cfg["seed"] < 0:
        raise CliError(f"config key 'seed' must be non-negative, got {cfg['seed']}")
    if cfg["model"]["family"] not in _FAMILIES:
        raise CliError(f"model.family must be one of {_FAMILIES}")
    try:  # refuses an unknown problem and data keys it lacks
        dataset_params(cfg["problem"], cfg["data"])
    except ValueError as exc:
        raise CliError(str(exc))
    _check_types(dataset_params(cfg["problem"], {}), cfg["data"], "data.")
    for split, n in cfg["counts"].items():
        if type(n) is not int or n < 1:
            raise CliError(f"counts.{split} must be a positive integer, got {n!r}")
    _check_ranges(cfg)
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


def _write_outputs(out: Path, table: tuple[str, list[str]], report: tuple[str, dict],
                   stage: str, cfg: dict, upstream: dict) -> None:
    """Write a stage's outputs: the CSV lines of table, the JSON of report
    (each under its file name) and provenance.json."""
    (out / table[0]).write_text("\n".join(table[1]) + "\n")
    (out / report[0]).write_text(json.dumps(report[1], indent=2, sort_keys=True) + "\n")
    write_provenance(out, stage, cfg, upstream)


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


# ---------------------------------------------------------------------------
# model construction helpers


def _derived_seed(root_seed: int, *names: str) -> int:
    from .nn import substream

    return int(substream(root_seed, *names).integers(0, 2**63 - 1))


def _make_deeponet(cfg: dict, n_inputs: int, bounds, *, role: str):
    from .models import CoordinateNet, DeepOnetModel
    from .nn import mlp_init

    m = cfg["model"]
    n_basis = m["n_basis"]
    branch = mlp_init([n_inputs, *m["branch_hidden"], n_basis],
                      activation=m["branch_activation"],
                      seed=_derived_seed(cfg["seed"], "init", role, "branch"))
    trunk = mlp_init([1, *m["trunk_hidden"], n_basis],
                     activation=m["trunk_activation"],
                     seed=_derived_seed(cfg["seed"], "init", role, "trunk"))
    cls = CoordinateNet if role == "coord" else DeepOnetModel
    return cls(branch=branch, trunk=trunk, n_basis=n_basis,
               query_lo=[bounds[0]], query_hi=[bounds[1]])


def _make_shift(cfg: dict, n_inputs: int, bounds):
    from .models import ShiftDeepOnetModel
    from .nn import mlp_init

    m = cfg["model"]
    n_basis = m["n_basis"]
    base = _make_deeponet(cfg, n_inputs, bounds, role="shift")
    # the scale and shift nets read the input like the branch, one output per basis function
    nets = {f"{name}_net": mlp_init([n_inputs, *m["branch_hidden"], n_basis],
                                    activation=m["branch_activation"],
                                    seed=_derived_seed(cfg["seed"], "init", "shift", name))
            for name in ("scale", "shift")}
    return ShiftDeepOnetModel(branch=base.branch, trunk=base.trunk, n_basis=n_basis,
                              query_lo=[bounds[0]], query_hi=[bounds[1]], **nets)


def _uniform_targets(ds, n_points: int, domain, periodic: bool):
    """Resample a split's output fields onto n uniform query points."""
    from .equidistribution import close_periodic

    lo, hi = domain
    grid, outputs = ds.x_grid, ds.outputs
    if periodic:
        q = lo + np.arange(n_points) / n_points * (hi - lo)
        grid, outputs = close_periodic(grid, outputs, hi - lo)
    else:
        q = np.linspace(lo, hi, n_points)
    targets = np.stack([np.interp(q, grid, row) for row in outputs])
    return q.reshape(-1, 1), targets


def _report_dict(report) -> dict:
    return {
        "validation_history": [[int(e), float(v)] for e, v in report.validation_history],
        "best_epoch": int(report.best_epoch),
        "best_error": float(report.best_error),
        "final_loss": float(report.final_loss),
        "aborted": bool(report.aborted),
        "epochs_run": int(report.epochs_run),
    }


# ---------------------------------------------------------------------------
# stages


def cmd_datagen(args, out: Path) -> None:
    from .pde_data.dataset import dataset_build, save_dataset

    cfg = resolve_config(args)
    datasets = dataset_build(cfg["problem"], cfg["seed"], cfg["counts"], cfg["data"])
    save_dataset(out, datasets)
    write_provenance(out, "datagen", cfg, {})
    print(f"wrote {sum(d.n_samples for d in datasets.values())} samples "
          f"across {len(datasets)} splits to {args.out}")


def _config_dataset(cfg: dict, path: str, splits=None):
    """(the named splits, None: all, and the provenance) of the dataset
    artifact at path, refused unless it holds the config's problem."""
    from .pde_data.dataset import load_dataset

    ds_dir, ds_prov = check_artifact(path)
    datasets = load_dataset(ds_dir, splits)
    for ds in datasets.values():
        if ds.problem != cfg["problem"]:
            raise CliError(f"dataset holds {ds.problem!r} but config says {cfg['problem']!r}")
    return datasets, ds_prov


def cmd_preprocess(args, out: Path) -> None:
    from .equidistribution import PreprocessedSet, preprocess_sample, save_preprocessed

    cfg = resolve_config(args)
    datasets, ds_prov = _config_dataset(cfg, args.dataset)
    domain, periodic = next(iter(datasets.values())).geometry()
    xi = np.linspace(domain[0], domain[1], cfg["preprocess"]["n_xi"] + 1)
    sets = {split: PreprocessedSet.from_samples(cfg["problem"], xi, [
        preprocess_sample(row, domain, periodic=periodic, **cfg["preprocess"])
        for row in ds.outputs]) for split, ds in datasets.items()}
    save_preprocessed(out, sets)
    write_provenance(out, "preprocess", cfg, {"dataset": ds_prov["content_hash"]})
    print(f"preprocessed {len(datasets)} splits into {args.out}")


def _load_split(splits: dict, split: str, what: str):
    if split not in splits:
        raise CliError(f"{what} split {split!r} not present in the artifact", kind="missing-input")
    return splits[split]


def cmd_train(args, out: Path) -> None:
    from .models import RAdaptiveSystem, save_bundle
    from .training import TrainConfig, train, train_pair

    cfg = resolve_config(args)
    family, problem = cfg["model"]["family"], cfg["problem"]
    datasets, ds_prov = _config_dataset(cfg, args.dataset, ("train", "val"))
    train_ds = _load_split(datasets, "train", "training")
    domain, periodic = train_ds.geometry()
    val_ds = datasets.get("val")
    tc = TrainConfig(**cfg["train"], seed=cfg["seed"])
    upstream = {"dataset": ds_prov["content_hash"]}
    encoding = {"advection": "box-params(height,width,shift)",
                "burgers": f"{train_ds.inputs.shape[1]}-point-sensors",
                "sod": "riemann-z6"}[problem]

    if family == "radaptive":
        from .equidistribution import load_preprocessed

        if not args.prep:
            raise CliError("family 'radaptive' requires --prep", kind="missing-input")
        prep_dir, prep_prov = check_artifact(args.prep)
        if prep_prov.get("upstream", {}).get("dataset") != ds_prov["content_hash"]:
            raise CliError("preprocessed artifact was built from a different dataset",
                           kind="stale-upstream")
        upstream["prep"] = prep_prov["content_hash"]
        psets = load_preprocessed(prep_dir, ("train", "val"))
        pset = _load_split(psets, "train", "training")
        vset = None if val_ds is None else psets.get("val")
        xi = pset.xi
        queries = xi.reshape(-1, 1)
        bounds = (float(xi[0]), float(xi[-1]))
        n_in = train_ds.inputs.shape[1]
        tr_in = train_ds.inputs
        va_in = None if vset is None else val_ds.inputs

        coord = _make_deeponet(cfg, n_in, bounds, role="coord")
        sol = _make_deeponet(cfg, n_in, bounds, role="sol")
        # the two nets share nothing, so they may train at the same time
        (coord, coord_rep), (sol, sol_rep) = train_pair(
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
        queries, targets = _uniform_targets(train_ds, n_points, domain, periodic)
        # validation scores what eval scores, rel-L2 on the dataset's own
        # grid: a narrow box can fall between all output_points, and its
        # all-zero resampled target has no relative error
        val = train_ds if val_ds is None else val_ds
        n_in = train_ds.inputs.shape[1]
        if family == "vanilla":
            model = _make_deeponet(cfg, n_in, domain, role="vanilla")
        else:
            model = _make_shift(cfg, n_in, domain)
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
    write_provenance(out, "train", cfg, upstream,
                     wall_seconds={k: float(r.wall_seconds) for k, r in run_reports.items()})
    best = {k: r["best_error"] for k, r in reports.items()}
    print(f"trained {family} model on {problem}; best validation errors {best}")


def cmd_eval(args, out: Path) -> None:
    from .models import load_bundle, model_predict, radaptive_predict_graph
    from .pde_data.dataset import load_dataset
    from .reconstruct import recover_uniform, rel_l2_error

    cfg = resolve_config(args)
    model_dir, model_prov = check_artifact(args.model)
    ds_dir, ds_prov = check_artifact(args.dataset)
    trained_on = model_prov.get("upstream", {}).get("dataset")
    if trained_on is not None and trained_on != ds_prov["content_hash"]:
        raise CliError("model was trained against a different dataset artifact",
                       kind="stale-upstream")
    model = load_bundle(model_dir)
    split = cfg["eval"]["split"]
    ds = _load_split(load_dataset(ds_dir, (split,)), split, "evaluation")
    domain, _ = ds.geometry()
    grid = ds.x_grid
    refs = ds.outputs
    summary = {"split": split, "n_samples": int(ds.n_samples), "problem": ds.problem,
               "family": model.family}

    if model.family == "radaptive":
        from .equidistribution import fd_derivative

        preds = np.empty_like(refs)
        # the solution net is continuous along the computational axis, so
        # evaluation may sample it more densely than the training grid; the
        # mesh there is interpolated from the native knots. That removes the
        # piecewise-linear knot budget from coarse-grid models
        n_pts = cfg["eval"]["xi_points"]
        if n_pts is None:
            xi_eval = None
        else:
            n_pts = max(n_pts, model.xi_grid.size)
            xi_eval = np.linspace(float(model.xi_grid[0]), float(model.xi_grid[-1]), n_pts)
        # one call for the whole split: each trunk runs once, and each branch
        # runs on a stack of one-row batches, so the bytes match evaluating
        # each sample on its own (a many-row branch matmul rounds differently)
        pred = radaptive_predict_graph(model, ds.inputs, xi=xi_eval)
        # mesh usability is judged on the model's own computational grid,
        # where the coordinate net predicts its knots
        det = fd_derivative(pred.native_knots, float(model.xi_grid[1] - model.xi_grid[0]))
        for i in range(ds.n_samples):
            preds[i] = recover_uniform(pred.knots[i], pred.values[i], grid, domain)
        # counted on the predicted knots, before recover_uniform repairs them
        n_monotone = int(np.sum(np.all(np.diff(pred.knots, axis=1) > 0.0, axis=1)))
        summary["xi_points"] = int(pred.knots.shape[1])
        summary["prefix_jacobian_positive_fraction"] = int(np.sum(det > 0.0)) / det.size
        summary["monotone_mesh_fraction"] = n_monotone / ds.n_samples
    else:
        preds = model_predict(model, ds.inputs, grid.reshape(-1, 1))

    per = rel_l2_error(preds, refs)
    summary["mean_rel_l2"] = float(np.mean(per))
    lines = ["sample,rel_l2"]
    lines += [f"{i},{e:.12e}" for i, e in enumerate(per)]
    _write_outputs(out, ("per_sample.csv", lines), ("summary.json", summary), "eval", cfg,
                   {"model": model_prov["content_hash"], "dataset": ds_prov["content_hash"]})
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
    """JSON-safe view of an argparse namespace, for provenance hashing. Paths
    are left out: upstream names the inputs by content hash, and where the
    output goes does not change it."""
    return {k: v for k, v in vars(args).items()
            if not callable(v) and k not in ("out", "dataset", "prep")}


def _spectrum_source(args) -> tuple[np.ndarray, float, str, dict]:
    """Pick the dataset matrix for spectrum/tail commands."""
    upstream = {}
    if args.prep:
        from .equidistribution import load_preprocessed

        prep_dir, prep_prov = check_artifact(args.prep)
        upstream["prep"] = prep_prov["content_hash"]
        pset = _load_split(load_preprocessed(prep_dir, (args.split,)), args.split, "analysis")
        field = args.field
        if field not in ("u", "x"):
            raise CliError(f"--field must be 'u' or 'x', got {field!r}")
        data = pset.u if field == "u" else pset.x
        dx = float(pset.xi[1] - pset.xi[0])
        tag = f"{pset.problem}/{args.split}/{field}(xi)"
    else:
        from .pde_data.dataset import load_dataset

        if not args.dataset:
            raise CliError("need --dataset or --prep", kind="missing-input")
        ds_dir, ds_prov = check_artifact(args.dataset)
        upstream["dataset"] = ds_prov["content_hash"]
        ds = _load_split(load_dataset(ds_dir, (args.split,)), args.split, "analysis")
        data = ds.outputs
        dx = float(ds.x_grid[1] - ds.x_grid[0])
        tag = f"{ds.problem}/{args.split}/u(x)"
    return data, dx, tag, upstream


def cmd_analyze_spectrum(args, out: Path) -> None:
    from .analysis import covariance_spectrum

    data, dx, tag, upstream = _spectrum_source(args)
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
    _write_outputs(out, ("spectrum.csv", lines), ("spectrum.json", doc),
                   "analyze-spectrum", _args_config(args), upstream)
    print(f"spectrum of {tag}: trace {doc['trace']:.6e}")


def cmd_analyze_tail(args, out: Path) -> None:
    from .analysis import covariance_spectrum, optimal_error_tail

    data, dx, tag, upstream = _spectrum_source(args)
    report = covariance_spectrum(data, dx, tag=tag)
    modes = _parse_int_list(args.modes, "--modes")
    tails = [(n, optimal_error_tail(report, n)) for n in modes]
    lines = ["n,tail"] + [f"{n},{t:.12e}" for n, t in tails]
    doc = {"tag": tag, "tails": {str(n): float(t) for n, t in tails}}
    _write_outputs(out, ("tail.csv", lines), ("tail.json", doc), "analyze-tail",
                   _args_config(args), upstream)
    print(f"tail sums of {tag}: " + ", ".join(f"n={n}: {t:.3e}" for n, t in tails))


def cmd_analyze_adaptive_rate(args, out: Path) -> None:
    from .analysis import adaptive_box_construct, rate_fit

    ns = _parse_int_list(args.ns, "--ns")
    rows = []
    for n in ns:
        delta = float(n) ** (-args.delta_power)
        fit = adaptive_box_construct(delta, n)
        rows.append((n, delta, fit.error))
    result = rate_fit([r[0] for r in rows], [r[2] for r in rows])
    lines = ["n,delta,error"] + [f"{n},{d:.12e},{e:.12e}" for n, d, e in rows]
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "delta_power": args.delta_power}
    _write_outputs(out, ("adaptive_rate.csv", lines), ("adaptive_rate.json", doc),
                   "analyze-adaptive-rate", _args_config(args), {})
    print(f"adaptive interpolant rate: slope {result.slope:.4f} "
          f"(residual {result.residual:.2e})")


def cmd_analyze_fem_rate(args, out: Path) -> None:
    from .analysis import box_samples, fem_uniform_interp_error, rate_fit

    ns = _parse_int_list(args.ns, "--ns")
    m = int(args.fine_points)
    if m < 4097:
        raise CliError("--fine-points must be at least 4097")
    if args.target == "box":
        domain = (-np.pi, np.pi)
        u = box_samples(np.linspace(domain[0], domain[1], m))
    elif args.target == "sine":
        domain = (0.0, 1.0)
        u = np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, m))
    else:
        raise CliError(f"--target must be 'box' or 'sine', got {args.target!r}")
    rows = [(n, fem_uniform_interp_error(u, n, domain)) for n in ns]
    result = rate_fit([r[0] for r in rows], [r[1] for r in rows])
    lines = ["n,error"] + [f"{n},{e:.12e}" for n, e in rows]
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "target": args.target}
    _write_outputs(out, ("fem_rate.csv", lines), ("fem_rate.json", doc),
                   "analyze-fem-rate", _args_config(args), {})
    print(f"uniform-mesh interpolation rate on {args.target}: slope {result.slope:.4f}")


def cmd_show_defaults(args) -> None:
    print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _add_config_args(p) -> None:
    p.add_argument("--config", help="JSON experiment config (defaults filled in)")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                   help="override one config entry; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radonet",
                     description="Adaptive-grid operator learning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a PDE dataset")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("preprocess", help="redistribute dataset outputs onto adaptive grids")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train an operator model")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--prep", help="preprocessed artifact (required for radaptive)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    _add_config_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

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
                args.func(args, out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CliError as exc:
        _emit_error(exc.kind, str(exc))
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI contract wants JSON errors
        _emit_error("runtime", f"{type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
