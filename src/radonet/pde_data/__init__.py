"""Data generators: exact and spectral solvers plus dataset containers."""

from .advection import BoxWaveParams, advection_exact, box_wave, encode_box_params, sample_box_params
from .burgers import burgers_solve
from .grf import GrfCoefficients, grf_draw, grf_eval, grf_mode_std, grf_sample
from .riemann import (
    RiemannState,
    euler_riemann_exact,
    riemann_state_from_z,
    sod_params_sample,
    solve_star,
    star_region,
    total_energy,
)
from .dataset import PdeDataset, dataset_build, dataset_params, load_dataset, save_dataset

__all__ = [
    "BoxWaveParams", "advection_exact", "box_wave", "encode_box_params", "sample_box_params",
    "burgers_solve",
    "GrfCoefficients", "grf_draw", "grf_eval", "grf_mode_std", "grf_sample",
    "RiemannState", "euler_riemann_exact", "riemann_state_from_z", "sod_params_sample",
    "solve_star", "star_region", "total_energy",
    "PdeDataset", "dataset_build", "dataset_params", "load_dataset", "save_dataset",
]
