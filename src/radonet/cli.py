"""Configuration-driven pipeline runner.

Stages: datagen -> preprocess -> train -> eval, plus standalone analyze
subcommands. Every stage writes its outputs into a directory together with a
provenance.json recording the resolved-config hash, a content hash of the
artifact files, and the content hashes of the upstream artifacts it consumed.
Downstream stages recompute upstream hashes and refuse to run on anything
stale or hand-edited. All randomness flows from the single seed in the
config through named substreams, so reruns are reproducible byte for byte.

Errors leave through exit codes: 0 success, 2 for configuration/usage
problems, 1 for runtime failures; in both failure cases a one-line JSON
object describing the error is printed to stderr.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    adaptive_box_construct,
    box_samples,
    covariance_spectrum,
    fem_uniform_interp_error,
    optimal_error_tail,
    rate_fit,
)
from .equidistribution import PreprocessedSet, load_preprocessed, preprocess_sample, save_preprocessed
from .models import (
    CoordinateNet,
    DeepOnetModel,
    RAdaptiveSystem,
    ShiftDeepOnetModel,
    load_bundle,
    radaptive_predict_graph,
    save_bundle,
)
from .nn import mlp_init, substream
from .pde_data import dataset_build, load_dataset, save_dataset
from .reconstruct import interp_linear_1d, monotone_fix
from .training import TrainConfig, grid_jacobian, model_predict, train, train_pair

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
        # the coordinate net of the two-net family may need more capacity
        # than the solution net; null means "same as branch/trunk_hidden"
        "coord_branch_hidden": None,
        "coord_trunk_hidden": None,
        "output_points": 128,
    },
    "train": {
        "epochs": 10000,
        "batch_size": None,
        "base_lr": 1e-3,
        "decay_fraction": 0.1,
        "decay_interval": 2000,
        "lambda_fit": 1.0,
        "lambda_fold": 1.0,
        "validation_cadence": 2000,
    },
    "eval": {"split": "test", "xi_points": 513},
}

# sections whose keys are not fixed in advance
_FREE_SECTIONS = {"counts", "data"}

# physical domain and periodicity per problem
_GEOMETRY = {
    "advection": ((0.0, 1.0), True),
    "burgers": ((0.0, 1.0), True),
    "sod": ((-5.0, 5.0), False),
}

_FAMILIES = ("vanilla", "shift", "radaptive")


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
    if cfg["problem"] not in _GEOMETRY:
        raise CliError(f"unknown problem {cfg['problem']!r}")
    if cfg["model"]["family"] not in _FAMILIES:
        raise CliError(f"model.family must be one of {_FAMILIES}")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# artifact provenance


def content_hash(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file() and f.name != "provenance.json":
            h.update(f.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            h.update(f.read_bytes())
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
    return int(substream(root_seed, *names).integers(0, 2**63 - 1))


def _make_deeponet(cfg: dict, n_inputs: int, bounds, *, role: str) -> DeepOnetModel:
    m = cfg["model"]
    n_basis = int(m["n_basis"])
    branch_hidden = m["branch_hidden"]
    trunk_hidden = m["trunk_hidden"]
    if role == "coord":
        branch_hidden = m["coord_branch_hidden"] or branch_hidden
        trunk_hidden = m["coord_trunk_hidden"] or trunk_hidden
    branch = mlp_init([n_inputs, *branch_hidden, n_basis],
                      activation=m["branch_activation"],
                      seed=_derived_seed(cfg["seed"], "init", role, "branch"))
    trunk = mlp_init([1, *trunk_hidden, n_basis],
                     activation=m["trunk_activation"],
                     seed=_derived_seed(cfg["seed"], "init", role, "trunk"))
    cls = CoordinateNet if role == "coord" else DeepOnetModel
    return cls(branch=branch, trunk=trunk, n_basis=n_basis,
               query_lo=[bounds[0]], query_hi=[bounds[1]])


def _make_shift(cfg: dict, n_inputs: int, bounds) -> ShiftDeepOnetModel:
    m = cfg["model"]
    n_basis = int(m["n_basis"])
    base = _make_deeponet(cfg, n_inputs, bounds, role="shift")
    scale = mlp_init([n_inputs, *m["branch_hidden"], n_basis],
                     activation=m["branch_activation"],
                     seed=_derived_seed(cfg["seed"], "init", "shift", "scale"))
    shift = mlp_init([n_inputs, *m["branch_hidden"], n_basis],
                     activation=m["branch_activation"],
                     seed=_derived_seed(cfg["seed"], "init", "shift", "shift"))
    return ShiftDeepOnetModel(branch=base.branch, trunk=base.trunk, scale_net=scale,
                              shift_net=shift, n_basis=n_basis,
                              query_lo=[bounds[0]], query_hi=[bounds[1]])


def _uniform_targets(ds, n_points: int, domain, periodic: bool):
    """Resample a split's output fields onto n uniform query points."""
    lo, hi = domain
    if ds.outputs.ndim != 2:
        raise CliError("space-time outputs are not supported by this command")
    if periodic:
        q = lo + np.arange(n_points) / n_points * (hi - lo)
        period = hi - lo
        targets = np.stack([np.interp(q, ds.x_grid, row, period=period)
                            for row in ds.outputs])
    else:
        q = np.linspace(lo, hi, n_points)
        targets = np.stack([np.interp(q, ds.x_grid, row) for row in ds.outputs])
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


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=int(t["epochs"]),
        batch_size=None if t["batch_size"] is None else int(t["batch_size"]),
        base_lr=float(t["base_lr"]),
        decay_fraction=float(t["decay_fraction"]),
        decay_interval=int(t["decay_interval"]),
        lambda_fit=float(t["lambda_fit"]),
        lambda_fold=float(t["lambda_fold"]),
        validation_cadence=int(t["validation_cadence"]),
        seed=int(cfg["seed"]),
    )


# ---------------------------------------------------------------------------
# stages


def cmd_datagen(args) -> None:
    cfg = resolve_config(args)
    counts = {split: int(n) for split, n in cfg["counts"].items()}
    datasets = dataset_build(cfg["problem"], int(cfg["seed"]), counts, cfg["data"])
    out = Path(args.out)
    save_dataset(out, datasets)
    write_provenance(out, "datagen", cfg, {})
    print(f"wrote {sum(d.n_samples for d in datasets.values())} samples "
          f"across {len(datasets)} splits to {out}")


def cmd_preprocess(args) -> None:
    cfg = resolve_config(args)
    ds_dir, ds_prov = check_artifact(args.dataset)
    datasets = load_dataset(ds_dir)
    problem = next(iter(datasets.values())).problem
    if problem != cfg["problem"]:
        raise CliError(f"dataset holds {problem!r} but config says {cfg['problem']!r}")
    domain, periodic = _GEOMETRY[problem]
    p = cfg["preprocess"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, ds in datasets.items():
        if ds.outputs.ndim != 2:
            raise CliError("space-time preprocessing is not wired into the CLI")
        limit = p["ratio_limit"]
        samples = [
            preprocess_sample(row, domain, int(p["n_xi"]), m_cap=float(p["m_cap"]),
                              mbar_cap=float(p["mbar_cap"]),
                              smoothing_passes=int(p["smoothing_passes"]),
                              periodic=periodic, beta=float(p["beta"]),
                              ratio_limit=None if limit is None else float(limit))
            for row in ds.outputs
        ]
        pset = PreprocessedSet.from_samples(samples, meta={
            "problem": problem,
            "split": split,
            "n_xi": int(p["n_xi"]),
            "domain": [domain[0], domain[1]],
            "periodic": periodic,
            "config_hash": config_hash(cfg),
        })
        save_preprocessed(out / f"{split}.rnp", pset)
    write_provenance(out, "preprocess", cfg, {"dataset": ds_prov["content_hash"]})
    print(f"preprocessed {len(datasets)} splits into {out}")


def _load_split(datasets: dict, split: str, what: str):
    if split not in datasets:
        raise CliError(f"{what} split {split!r} not present in dataset", kind="missing-input")
    return datasets[split]


def cmd_train(args) -> None:
    cfg = resolve_config(args)
    family = cfg["model"]["family"]
    ds_dir, ds_prov = check_artifact(args.dataset)
    datasets = load_dataset(ds_dir)
    problem = next(iter(datasets.values())).problem
    if problem != cfg["problem"]:
        raise CliError(f"dataset holds {problem!r} but config says {cfg['problem']!r}")
    domain, periodic = _GEOMETRY[problem]
    train_ds = _load_split(datasets, "train", "training")
    val_ds = datasets.get("val")
    tc = _train_config(cfg)
    out = Path(args.out)
    upstream = {"dataset": ds_prov["content_hash"]}
    encoding = {"advection": "box-params(height,width,shift)",
                "burgers": f"{train_ds.inputs.shape[1]}-point-sensors",
                "sod": "riemann-z6"}[problem]

    if family == "radaptive":
        if not args.prep:
            raise CliError("family 'radaptive' requires --prep", kind="missing-input")
        prep_dir, prep_prov = check_artifact(args.prep)
        if prep_prov.get("upstream", {}).get("dataset") != ds_prov["content_hash"]:
            raise CliError("preprocessed artifact was built from a different dataset",
                           kind="stale-upstream")
        upstream["prep"] = prep_prov["content_hash"]
        pset = load_preprocessed(prep_dir / "train.rnp")
        val_path = prep_dir / "val.rnp"
        vset = None
        if val_path.exists() and val_ds is not None:
            vset = load_preprocessed(val_path)
        xi = pset.xi
        queries = xi.reshape(-1, 1)
        dxi = float(xi[1] - xi[0])
        bounds = (float(xi[0]), float(xi[-1]))
        n_in = train_ds.inputs.shape[1]
        tr_in = train_ds.inputs[pset.sample_ids]
        va_in = None if vset is None else val_ds.inputs[vset.sample_ids]

        coord = _make_deeponet(cfg, n_in, bounds, role="coord")
        sol = _make_deeponet(cfg, n_in, bounds, role="sol")
        # the two nets share nothing, so they may train at the same time
        (coord, coord_rep), (sol, sol_rep) = train_pair(
            lambda: train(coord, tr_in, pset.x, queries, tc, loss="coordinate",
                          weights=pset.w_coord, dxi=dxi, val_inputs=va_in,
                          val_targets=None if vset is None else vset.x),
            lambda: train(sol, tr_in, pset.u, queries, tc, loss="weighted",
                          weights=pset.w_sol, val_inputs=va_in,
                          val_targets=None if vset is None else vset.u))
        system = RAdaptiveSystem(coord_net=coord, sol_net=sol, xi_grid=xi)
        save_bundle(out, system, input_encoding=encoding,
                    extra={"problem": problem, "family": family})
        run_reports = {"coord": coord_rep, "sol": sol_rep}
    else:
        n_points = int(cfg["model"]["output_points"])
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


def cmd_eval(args) -> None:
    cfg = resolve_config(args)
    model_dir, model_prov = check_artifact(args.model)
    ds_dir, ds_prov = check_artifact(args.dataset)
    trained_on = model_prov.get("upstream", {}).get("dataset")
    if trained_on is not None and trained_on != ds_prov["content_hash"]:
        raise CliError("model was trained against a different dataset artifact",
                       kind="stale-upstream")
    model = load_bundle(model_dir)
    datasets = load_dataset(ds_dir)
    split = cfg["eval"]["split"]
    ds = _load_split(datasets, split, "evaluation")
    if ds.outputs.ndim != 2:
        raise CliError("space-time evaluation is not wired into the CLI")
    domain, _ = _GEOMETRY[ds.problem]
    grid = ds.x_grid
    refs = ds.outputs
    summary = {"split": split, "n_samples": int(ds.n_samples), "problem": ds.problem}

    if isinstance(model, RAdaptiveSystem):
        preds = np.empty_like(refs)
        # the solution net is continuous along the computational axis, so
        # evaluation may sample it more densely than the training grid; the
        # mesh there is interpolated from the native knots. That removes the
        # piecewise-linear knot budget from coarse-grid models
        n_pts = cfg["eval"]["xi_points"]
        if n_pts is None:
            xi_eval = None
        else:
            n_pts = max(int(n_pts), model.xi_grid.size)
            xi_eval = np.linspace(float(model.xi_grid[0]), float(model.xi_grid[-1]), n_pts)
        # one call for the whole split: each trunk runs once, while the
        # branches run row by row, so the bytes match evaluating each sample
        # on its own (a many-row branch matmul rounds differently)
        pred = radaptive_predict_graph(model, ds.inputs, xi=xi_eval)
        # mesh usability is judged on the model's own computational grid,
        # where the coordinate net predicts its knots
        det = grid_jacobian(pred.native_knots, float(model.xi_grid[1] - model.xi_grid[0]))
        n_monotone = 0
        for i in range(ds.n_samples):
            fixed = monotone_fix(pred.knots[i], domain)
            n_monotone += bool(np.all(np.diff(fixed) > 0.0))
            preds[i] = interp_linear_1d(fixed, pred.values[i], grid, mode="clamp")
        summary["family"] = "radaptive"
        summary["xi_points"] = int(pred.knots.shape[1])
        summary["prefix_jacobian_positive_fraction"] = int(np.sum(det > 0.0)) / det.size
        summary["monotone_mesh_fraction"] = n_monotone / ds.n_samples
    else:
        preds = model_predict(model, ds.inputs, grid.reshape(-1, 1))
        summary["family"] = "shift" if isinstance(model, ShiftDeepOnetModel) else "vanilla"

    per = np.sqrt(np.mean((preds - refs) ** 2, axis=1) / np.mean(refs ** 2, axis=1))
    summary["mean_rel_l2"] = float(np.mean(per))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["sample,rel_l2"]
    lines += [f"{i},{e:.12e}" for i, e in enumerate(per)]
    (out / "per_sample.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_provenance(out, "eval", cfg, {"model": model_prov["content_hash"],
                                        "dataset": ds_prov["content_hash"]})
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
    """JSON-safe view of an argparse namespace, for provenance hashing."""
    return {k: v for k, v in vars(args).items() if not callable(v)}


def _spectrum_source(args) -> tuple[np.ndarray, float, str, dict]:
    """Pick the dataset matrix for spectrum/tail commands."""
    upstream = {}
    if args.prep:
        prep_dir, prep_prov = check_artifact(args.prep)
        upstream["prep"] = prep_prov["content_hash"]
        pset = load_preprocessed(prep_dir / f"{args.split}.rnp")
        if pset.x.ndim != 2:
            raise CliError("space-time preprocessed sets are not supported here")
        field = args.field
        if field not in ("u", "x"):
            raise CliError(f"--field must be 'u' or 'x', got {field!r}")
        data = pset.u if field == "u" else pset.x
        dx = float(pset.xi[1] - pset.xi[0])
        tag = f"{pset.meta.get('problem', 'unknown')}/{args.split}/{field}(xi)"
    else:
        if not args.dataset:
            raise CliError("need --dataset or --prep", kind="missing-input")
        ds_dir, ds_prov = check_artifact(args.dataset)
        upstream["dataset"] = ds_prov["content_hash"]
        datasets = load_dataset(ds_dir)
        ds = _load_split(datasets, args.split, "analysis")
        if ds.outputs.ndim != 2:
            raise CliError("space-time outputs are not supported here")
        data = ds.outputs
        dx = float(ds.x_grid[1] - ds.x_grid[0])
        tag = f"{ds.problem}/{args.split}/u(x)"
    return data, dx, tag, upstream


def cmd_analyze_spectrum(args) -> None:
    data, dx, tag, upstream = _spectrum_source(args)
    report = covariance_spectrum(data, dx, tag=tag)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["index,eigenvalue"]
    lines += [f"{j + 1},{lam:.12e}" for j, lam in enumerate(report.eigenvalues)]
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    doc = {
        "tag": report.tag,
        "n_grid": report.n_grid,
        "n_samples": int(data.shape[0]),
        "trace": float(np.sum(report.eigenvalues)),
        "leading": [float(v) for v in report.eigenvalues[:10]],
    }
    (out / "spectrum.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_provenance(out, "analyze-spectrum", _args_config(args), upstream)
    print(f"spectrum of {tag}: trace {doc['trace']:.6e}")


def cmd_analyze_tail(args) -> None:
    data, dx, tag, upstream = _spectrum_source(args)
    report = covariance_spectrum(data, dx, tag=tag)
    modes = _parse_int_list(args.modes, "--modes")
    tails = [(n, optimal_error_tail(report, n)) for n in modes]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["n,tail"] + [f"{n},{t:.12e}" for n, t in tails]
    (out / "tail.csv").write_text("\n".join(lines) + "\n")
    doc = {"tag": tag, "tails": {str(n): float(t) for n, t in tails}}
    (out / "tail.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_provenance(out, "analyze-tail", _args_config(args), upstream)
    print(f"tail sums of {tag}: " + ", ".join(f"n={n}: {t:.3e}" for n, t in tails))


def cmd_analyze_adaptive_rate(args) -> None:
    ns = _parse_int_list(args.ns, "--ns")
    rows = []
    for n in ns:
        delta = float(n) ** (-args.delta_power)
        fit = adaptive_box_construct(delta, n)
        rows.append((n, delta, fit.error))
    result = rate_fit([r[0] for r in rows], [r[2] for r in rows])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["n,delta,error"] + [f"{n},{d:.12e},{e:.12e}" for n, d, e in rows]
    (out / "adaptive_rate.csv").write_text("\n".join(lines) + "\n")
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "delta_power": args.delta_power}
    (out / "adaptive_rate.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_provenance(out, "analyze-adaptive-rate", _args_config(args), {})
    print(f"adaptive interpolant rate: slope {result.slope:.4f} "
          f"(residual {result.residual:.2e})")


def cmd_analyze_fem_rate(args) -> None:
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["n,error"] + [f"{n},{e:.12e}" for n, e in rows]
    (out / "fem_rate.csv").write_text("\n".join(lines) + "\n")
    doc = {"slope": result.slope, "intercept": result.intercept,
           "residual": result.residual, "target": args.target}
    (out / "fem_rate.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_provenance(out, "analyze-fem-rate", _args_config(args), {})
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
        args.func(args)
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
