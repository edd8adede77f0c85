"""Fixed reference load whose run time measures how fast the machine is right now.

Usage: python3 perfbench/refload.py

The benchmark starts this script as a child process next to the pipeline
stages and times it from outside. It imports no radonet code, so a change to
the program under test cannot change its time; only the machine's speed can.
It starts the interpreter and imports numpy, then runs a dense layer forward
and backward at the benchmark's sizes (250 rows, width 128) 300 times,
through BLAS at the stages' thread count, and prints the seconds that loop
took. The rest of the wall time is start-up, import and exit.
"""

import time

import numpy as np

rng = np.random.default_rng(0)
h = rng.standard_normal((250, 128))
w = rng.standard_normal((128, 128)) / np.sqrt(128.0)
t0 = time.perf_counter()
for _ in range(300):
    h = np.tanh(h @ w)
    g = (1.0 - h * h) @ w.T
print(time.perf_counter() - t0)
