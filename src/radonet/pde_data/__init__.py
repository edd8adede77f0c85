"""Data generators: exact and spectral solvers plus dataset containers.

Only the dataset container is imported here. Each solver lives in its own
submodule (advection, burgers, grf, riemann), which the dataset builder
imports when it generates that problem, so a stage that only reads a
dataset never loads a solver.
"""

from .dataset import PdeDataset, dataset_build, dataset_params, load_dataset, save_dataset

__all__ = ["PdeDataset", "dataset_build", "dataset_params", "load_dataset", "save_dataset"]
