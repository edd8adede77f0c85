"""Print the numeric environment a pipeline stage runs with, as one JSON line.

Run with the same interpreter and environment as the stages. Reports the
numpy version, the BLAS library numpy was built against, and the number of
threads the loaded OpenBLAS will use, read from the library itself.
"""

import ctypes
import json
import sys

import numpy as np


def _loaded_openblas() -> list[str]:
    # this process's own memory map lists the shared objects numpy loaded
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) >= 6 and "openblas" in fields[-1].lower() and ".so" in fields[-1]:
                paths.add(fields[-1])
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def main() -> int:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "openblas_config": None,
    }
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "openblas_get_num_threads64_", "openblas_get_num_threads"),
                        ctypes.c_int)
        if threads is not None:
            record["blas_threads"] = int(threads)
            config = _call(lib, ("scipy_openblas_get_config64_", "openblas_get_config64_",
                                 "openblas_get_config"), ctypes.c_char_p)
            record["openblas_config"] = config.decode() if config else None
            break
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
