"""Run one `radonet` CLI stage with span recording around its layer functions.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <radonet cli arguments>

The program under test is not edited. This script imports `radonet.cli`,
replaces each traced function everywhere a radonet module holds a reference
to it (so `radonet.models.mlp_forward`, `radonet.training.adam_step`,
`radonet.cli.train`, `radonet.pde_data.dataset.burgers_solve`, ... all
resolve to the wrapper), runs `radonet.cli.main` and, when the stage exits,
writes the recorded spans to SPANS_JSON. Wrappers pass arguments and return
values through untouched, so a traced stage writes the same artifact bytes
as an untraced one; the benchmark checks that.

Each span is [name, start_s, end_s, parent_index, child_seconds, extra]:
parent_index is -1 for a span no other traced span encloses, child_seconds
is the time covered by its direct children (so self time is
end - start - child_seconds), and extra holds counts computed from array
shapes and sizes (flop counts, bytes, parameters), or null.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (layer, module that defines the function, function name)
TRACED = [
    ("nn", "radonet.nn", "mlp_forward"),
    ("nn", "radonet.nn", "mlp_backward"),
    ("nn", "radonet.nn", "adam_step"),
    ("models", "radonet.models", "deeponet_forward_batch"),
    ("models", "radonet.models", "deeponet_backward_batch"),
    ("models", "radonet.models", "radaptive_predict_graph"),
    ("models", "radonet.models", "save_bundle"),
    ("models", "radonet.models", "load_bundle"),
    ("training", "radonet.training", "train"),
    ("training", "radonet.training", "model_predict"),
    ("training", "radonet.training", "loss_mse"),
    ("training", "radonet.training", "loss_weighted"),
    ("training", "radonet.training", "loss_coordinate"),
    ("reconstruct", "radonet.reconstruct", "monotone_fix"),
    ("reconstruct", "radonet.reconstruct", "recover_uniform"),
    ("reconstruct", "radonet.reconstruct", "rel_l2_error"),
    ("pde_data", "radonet.pde_data.dataset", "dataset_build"),
    ("pde_data", "radonet.pde_data.burgers", "burgers_solve"),
    ("pde_data", "radonet.pde_data.riemann", "euler_riemann_exact"),
    ("pde_data", "radonet.pde_data.advection", "advection_exact"),
    ("pde_data", "radonet.pde_data.grf", "grf_eval"),
    ("pde_data", "radonet.pde_data.dataset", "save_dataset"),
    ("pde_data", "radonet.pde_data.dataset", "load_dataset"),
    ("equidistribution", "radonet.equidistribution", "preprocess_sample"),
    ("equidistribution", "radonet.equidistribution", "density_arclength"),
    ("equidistribution", "radonet.equidistribution", "limit_density_ratio"),
    ("equidistribution", "radonet.equidistribution", "equidistribute_1d"),
    ("equidistribution", "radonet.equidistribution", "save_preprocessed"),
    ("equidistribution", "radonet.equidistribution", "load_preprocessed"),
    ("cli", "radonet.cli", "content_hash"),
    ("cli", "radonet.cli", "write_provenance"),
]


def _dense_flops(layer_sizes, rows: int) -> int:
    return sum(2 * rows * a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _dataset_bytes(datasets) -> int:
    total = 0
    for ds in datasets.values():
        total += ds.inputs.nbytes + ds.outputs.nbytes
    first = next(iter(datasets.values()), None)
    return total + (first.x_grid.nbytes if first is not None else 0)


def _tree_bytes(root) -> int:
    return sum(f.stat().st_size for f in Path(root).rglob("*")
               if f.is_file() and f.name != "provenance.json")


def _takes_repair_loop(knots, domain) -> bool:
    """True unless monotone_fix returns its input through the fast path."""
    import numpy as np

    y = np.asarray(knots, dtype=np.float64)
    return not (y[0] == domain[0] and y[-1] == domain[1] and bool(np.all(np.diff(y) > 0.0)))


# Counts computed from the call's arguments and result; each returns a dict.
# Forward: 2*B*in*out flop per dense layer. Backward: weight gradient plus the
# propagated delta, 4*B*in*out. Adam reads p, m, v, g and writes p, m, v:
# 7 float64 words per parameter at the least.
EXTRA = {
    "nn.mlp_forward": lambda a, k, r: {
        "flop": _dense_flops(a[0].layer_sizes, len(a[1]))},
    "nn.mlp_backward": lambda a, k, r: {
        "flop": 2 * _dense_flops(a[0].layer_sizes, len(a[2]))},
    "nn.adam_step": lambda a, k, r: {"params": a[1].n_params()},
    "training.train": lambda a, k, r: {
        "loss": k.get("loss", "mse"), "epochs": r[1].epochs_run},
    "reconstruct.monotone_fix": lambda a, k, r: {"repaired": _takes_repair_loop(*a)},
    "pde_data.burgers_solve": lambda a, k, r: {
        "sample_steps": (a[0].shape[0] if a[0].ndim == 2 else 1)
        * int(round(a[2] / (a[3] if len(a) > 3 else k.get("dt", 1e-4))))},
    "pde_data.save_dataset": lambda a, k, r: {"bytes": _dataset_bytes(a[1])},
    "pde_data.load_dataset": lambda a, k, r: {"bytes": _dataset_bytes(r)},
    "cli.content_hash": lambda a, k, r: {"bytes": _tree_bytes(a[0])},
}


class SpanRecorder:
    """Keeps spans in memory; `wrap` returns a timing wrapper for one function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, extra_fn = self.spans, self._stack, EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if extra_fn is not None:
                span[5] = extra_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        import radonet.cli  # noqa: F401 - imports every module the stages use

        for layer, module, func in TRACED:
            original = getattr(importlib.import_module(module), func)
            wrapper = self.wrap(f"{layer}.{func}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "radonet" and not mod_name.startswith("radonet."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))
        os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_JSON -- <radonet cli arguments>\n")
        return 2
    recorder = SpanRecorder()
    recorder.install()
    import radonet.cli

    try:
        return radonet.cli.main(argv[2:])
    finally:
        recorder.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
