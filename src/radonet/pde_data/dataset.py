"""Dataset assembly and the on-disk dataset container.

A dataset is a directory holding a JSON manifest (problem, seed, counts,
generation parameters, format version) plus one little-endian .npy file per
split and array. Generation is deterministic: every sample draws from its
own seed substream, so rebuilding with the same seed reproduces the files
byte for byte. Each builder imports its own solver module, so loading a
dataset, or building one problem, loads no other problem's solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import store
from ..nn import substream

DATASET_VERSION = 1

_DEFAULTS: dict[str, dict] = {
    "advection": {
        "n_grid": 2048,
        "speed": 1.0,
        "final_time": 0.25,
        "period": 1.0,
        "height_range": (0.2, 0.8),
        "width_range": (0.05, 0.3),
        "shift_range": (0.0, 0.5),
    },
    "burgers": {
        "nu": 1e-3,
        "n_modes": 256,
        "dt": 1e-4,
        "sensors": 128,
        "final_time": 1.0,
        "grf_convention": "angular",
        "grf_modes": 63,
    },
    "sod": {
        "n_grid": 2048,
        "domain": (-5.0, 5.0),
        "final_time": 1.5,
    },
}


@dataclass
class PdeDataset:
    """One split of generated operator data."""

    problem: str
    inputs: np.ndarray
    outputs: np.ndarray
    x_grid: np.ndarray
    seed: int
    params: dict

    def __post_init__(self):
        if self.outputs.ndim != 2 or len(self.inputs) != len(self.outputs):
            raise ValueError(f"inputs {self.inputs.shape} and outputs {self.outputs.shape} "
                             f"must hold one row and one (n_grid,) field per sample")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def geometry(self) -> tuple[tuple[float, float], bool]:
        """(lo, hi), the physical domain of the output fields, and whether
        they are periodic on it, as the problem's parameters set them."""
        if self.problem == "sod":
            lo, hi = self.params["domain"]
            return (float(lo), float(hi)), False
        # advection grids cover one period from 0; burgers solves on the unit circle
        return (0.0, float(self.params["period"]) if self.problem == "advection" else 1.0), True


def dataset_params(problem: str, overrides: dict | None) -> dict:
    """The problem's generation parameters with overrides applied; unknown
    problems and parameter names raise ValueError."""
    if problem not in _DEFAULTS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {sorted(_DEFAULTS)}")
    params = dict(_DEFAULTS[problem])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown {problem} parameter {key!r}")
        params[key] = value
    return params


def _build_advection(seed: int, split: str, n: int, p: dict) -> PdeDataset:
    from .advection import advection_exact, encode_box_params, sample_box_params

    x = np.arange(p["n_grid"]) / p["n_grid"] * p["period"]
    inputs = np.empty((n, 3))
    outputs = np.empty((n, p["n_grid"]))
    for i in range(n):
        rng = substream(seed, "advection", split, str(i))
        params = sample_box_params(rng, p["height_range"], p["width_range"], p["shift_range"])
        inputs[i] = encode_box_params(params)
        outputs[i] = advection_exact(params, x, p["speed"], p["final_time"], p["period"])
    return PdeDataset("advection", inputs, outputs, x, seed, p)


def _build_burgers(seed: int, split: str, n: int, p: dict) -> PdeDataset:
    from .burgers import burgers_solve
    from .grf import grf_draw, grf_eval

    solver_grid = np.arange(p["n_modes"]) / p["n_modes"]
    sensor_grid = np.arange(p["sensors"]) / p["sensors"]
    inputs = np.empty((n, p["sensors"]))
    u0 = np.empty((n, p["n_modes"]))
    for i in range(n):
        rng = substream(seed, "burgers", split, str(i))
        coeffs = grf_draw(rng, p["grf_modes"], p["grf_convention"])
        inputs[i] = grf_eval(coeffs, sensor_grid)
        u0[i] = grf_eval(coeffs, solver_grid)
    outputs = burgers_solve(u0, p["nu"], p["final_time"], dt=p["dt"])
    return PdeDataset("burgers", inputs, outputs, solver_grid, seed, p)


def _build_sod(seed: int, split: str, n: int, p: dict) -> PdeDataset:
    from .riemann import euler_riemann_exact, sod_params_sample, total_energy

    lo, hi = p["domain"]
    x = np.linspace(lo, hi, p["n_grid"])
    inputs = np.empty((n, 6))
    outputs = np.empty((n, p["n_grid"]))
    for i in range(n):
        rng = substream(seed, "sod", split, str(i))
        z, state = sod_params_sample(rng)
        inputs[i] = z
        rho, u, pres = euler_riemann_exact(state, x, p["final_time"])
        outputs[i] = total_energy(rho, u, pres, state.gamma)
    return PdeDataset("sod", inputs, outputs, x, seed, p)


_BUILDERS = {"advection": _build_advection, "burgers": _build_burgers, "sod": _build_sod}


def dataset_build(problem: str, seed: int, counts: dict[str, int],
                  params: dict | None = None) -> dict[str, PdeDataset]:
    """Generate every requested split of a problem deterministically."""
    merged = dataset_params(problem, params)
    if not counts:
        raise ValueError("need at least one split count")
    out = {}
    for split, n in counts.items():
        if n < 1:
            raise ValueError(f"split {split!r} needs a positive sample count, got {n}")
        out[split] = _BUILDERS[problem](seed, split, int(n), merged)
    return out


def save_dataset(path, datasets: dict[str, PdeDataset]) -> None:
    """Write splits as a split table (radonet.store): x_grid.npy, one inputs
    and one outputs array per split, and a manifest.json describing them."""
    if not datasets:
        raise ValueError("no splits to save")
    first = next(iter(datasets.values()))
    if any(ds.problem != first.problem or ds.seed != first.seed for ds in datasets.values()):
        raise ValueError("all splits in a dataset must share problem and seed")
    manifest = {
        "format_version": DATASET_VERSION,
        "problem": first.problem,
        "seed": first.seed,
        "params": first.params,  # defaults and JSON config values; tuples dump as lists
    }
    store.write_splits(Path(path), manifest, {"x_grid": first.x_grid},
                       {split: {"inputs": ds.inputs, "outputs": ds.outputs}
                        for split, ds in datasets.items()})


def load_dataset(path, splits=None) -> dict[str, PdeDataset]:
    """Re-load the named splits (None: every split) of a dataset directory,
    leaving out names it lacks; anything malformed in any split, including
    an array header that claims more data than its file holds, raises
    ValueError."""
    manifest, shared, loaded = store.read_splits(
        Path(path), "dataset", DATASET_VERSION, {"problem": str, "seed": int, "params": dict},
        {"x_grid": 1}, {"inputs": 2, "outputs": 2}, splits)
    return {split: PdeDataset(manifest["problem"], cols["inputs"], cols["outputs"],
                              shared["x_grid"], manifest["seed"], manifest["params"])
            for split, cols in loaded.items()}
