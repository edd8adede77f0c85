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
from functools import partial
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
    """One split of generated operator data. outputs has no columns where
    the loader was asked for the inputs only, and where the vanilla train
    has dropped the train split's fields once its targets are built."""

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
        """problem_geometry of this split's problem and parameters."""
        return problem_geometry(self.problem, self.params)


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


def problem_geometry(problem: str, p: dict) -> tuple[tuple[float, float], bool]:
    """(lo, hi), the physical domain of a problem's output fields, and
    whether they are periodic on it, as its parameters p set them."""
    if problem == "sod":
        lo, hi = p["domain"]
        return (float(lo), float(hi)), False
    # advection grids cover one period from 0; burgers solves on the unit circle
    return (0.0, float(p["period"]) if problem == "advection" else 1.0), True


def uniform_grid(domain: tuple[float, float], periodic: bool, n: int) -> np.ndarray:
    """n uniform points over domain: its right end left out where periodic."""
    lo, hi = domain
    return lo + np.arange(n) / n * (hi - lo) if periodic else np.linspace(lo, hi, n)


def _x_grid(problem: str, p: dict) -> np.ndarray:
    """The grid of a problem's output fields; burgers' is the solver's grid."""
    n = p["n_modes"] if problem == "burgers" else p["n_grid"]
    return uniform_grid(*problem_geometry(problem, p), n)


def dataset_bytes(problem: str, counts: dict[str, int], params: dict | None = None) -> int:
    """dataset_build's peak bytes, summed over the two processes of
    split_rows: 1 float a row and output point or sensor (the columns the
    rows are written into), 9 more a row and Fourier mode where the Burgers
    solver holds its stages, 32 a row for an exact problem's inputs (6 at
    most) and the garbage drawing rows leaves for the collector, and 32 a
    point or sensor for the two processes' one-row temporaries."""
    p = dataset_params(problem, params)
    points = p["n_modes"] + p["sensors"] if problem == "burgers" else p["n_grid"]
    row = points + (9 * p["n_modes"] if problem == "burgers" else 32)
    return 8 * (row * sum(counts.values()) + 32 * points)


# Each builder writes the rows `rows` (a range) of one split into its columns
# out. A row draws from its own substream of (seed, problem, split, row index),
# so any range of rows comes out as the same bytes as those rows of the split.


def _advection_row(rng: np.random.Generator, p: dict, x: np.ndarray):
    from .advection import advection_exact, encode_box_params, sample_box_params

    params = sample_box_params(rng, p["height_range"], p["width_range"], p["shift_range"])
    return encode_box_params(params), advection_exact(params, x, p["speed"], p["final_time"],
                                                      p["period"])


def _sod_row(rng: np.random.Generator, p: dict, x: np.ndarray):
    from .riemann import euler_riemann_exact, sod_params_sample, total_energy

    z, state = sod_params_sample(rng)
    rho, u, pres = euler_riemann_exact(state, x, p["final_time"])
    return z, total_energy(rho, u, pres, state.gamma)


# the problems solved exactly row by row: the width of an input row, and the
# function that draws a row's parameters and returns (input row, output row)
_EXACT_ROWS = {"advection": (3, _advection_row), "sod": (6, _sod_row)}


def _build_exact(problem: str, seed: int, split: str, rows: range, out: dict, p: dict,
                 x: np.ndarray):
    row = _EXACT_ROWS[problem][1]
    for i in rows:
        out["inputs"][i], out["outputs"][i] = row(substream(seed, problem, split, str(i)), p, x)


def _build_burgers(seed: int, split: str, rows: range, out: dict, p: dict, x: np.ndarray):
    from .burgers import burgers_solve
    from .grf import grf_draw, grf_eval

    sensor_grid = np.arange(p["sensors"]) / p["sensors"]
    for i in rows:
        coeffs = grf_draw(substream(seed, "burgers", split, str(i)), p["grf_modes"],
                          p["grf_convention"])
        out["inputs"][i] = grf_eval(coeffs, sensor_grid)
        out["outputs"][i] = grf_eval(coeffs, x)
    # the initial fields, solved in place as one batch of FFTs; each row is
    # transformed on its own, so a batch of some of the rows gives those rows' bytes
    u0 = out["outputs"][rows.start:rows.stop]
    u0[:] = burgers_solve(u0, p["nu"], p["final_time"], dt=p["dt"])


def dataset_build(problem: str, seed: int, counts: dict[str, int],
                  params: dict | None = None) -> dict[str, PdeDataset]:
    """Generate every requested split of a problem deterministically; the
    rows are made on two cores where radonet.parallel.split_rows can, and a
    split of fewer than one row raises ValueError."""
    from ..parallel import split_rows

    merged = dataset_params(problem, params)
    if not counts:
        raise ValueError("need at least one split count")
    x = _x_grid(problem, merged)
    build = _build_burgers if problem == "burgers" else partial(_build_exact, problem)
    width = merged["sensors"] if problem == "burgers" else _EXACT_ROWS[problem][0]
    columns = split_rows({split: int(n) for split, n in counts.items()},
                         {"inputs": width, "outputs": x.size},
                         lambda split, rows, out: build(seed, split, rows, out, merged, x))
    return {split: PdeDataset(problem, cols["inputs"], cols["outputs"], x, seed, merged)
            for split, cols in columns.items()}


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


def load_dataset(path, splits=None, outputs: bool = True) -> dict[str, PdeDataset]:
    """Re-load the named splits (None: every split) of a dataset directory,
    leaving out names it lacks, with their outputs unless outputs is False
    (then each split's outputs is an (n_samples, 0) array); anything
    malformed in any split or column, including an array header that claims
    more data than its file holds, raises ValueError."""
    manifest, shared, loaded = store.read_splits(
        Path(path), "dataset", DATASET_VERSION, {"problem": str, "seed": int, "params": dict},
        {"x_grid": 1}, {"inputs": 2, "outputs": 2}, splits,
        None if outputs else ("inputs",))
    return {split: PdeDataset(manifest["problem"], cols["inputs"],
                              cols["outputs"] if outputs else np.empty((len(cols["inputs"]), 0)),
                              shared["x_grid"], manifest["seed"], manifest["params"])
            for split, cols in loaded.items()}
