"""The one on-disk array container: manifest.json plus one .npy file per array.

Datasets, preprocessed sets and model bundles are stored this way. A reader
asks for an array's name, dtype and number of dimensions and gets exactly
that or a ValueError; it reads no array data before the .npy header's shape
times itemsize has been found to equal the bytes left in the file.
"""

from __future__ import annotations

import io
import json
import math
import os
import tokenize
from pathlib import Path

import numpy as np

# np.save writes version 1.0 headers, whose text numpy caps at 10000 bytes
_HEADER_BYTES = 16384

# what numpy's header parser raises on malformed header text
_HEADER_ERRORS = (ValueError, TypeError, SyntaxError, RecursionError, tokenize.TokenError)


def write_array(root: Path, name: str, arr, dtype: str = "<f8") -> None:
    np.save(root / f"{name}.npy", np.ascontiguousarray(arr, dtype=dtype))


def write_manifest(root: Path, manifest: dict, sort_keys: bool = True) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=sort_keys)
    (root / "manifest.json").write_text(text + "\n")


def read_manifest(root: Path, what: str, version: int, fields: dict) -> dict:
    """root/manifest.json, which must be a JSON object with this format_version
    and the entries that check_fields asks of it."""
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValueError(f"{root}: not a {what} (cannot read manifest.json: {exc})") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{root}: manifest.json must hold a JSON object")
    if manifest.get("format_version") != version:
        raise ValueError(f"{root}: {what} format version "
                         f"{manifest.get('format_version')!r} unsupported")
    return check_fields(root, manifest, fields)


def check_fields(root: Path, doc: dict, fields: dict, prefix: str = "") -> dict:
    """doc, a manifest or an object inside one, refused unless each entry of
    fields is there with a value of that kind: a JSON type (so true is not an
    int), [T] for a list of T, or a dict of fields for an object."""
    for key, kind in fields.items():
        value, name = doc.get(key), prefix + key
        if isinstance(kind, dict):
            if type(value) is not dict:
                raise ValueError(f"{root / 'manifest.json'}: entry {name!r} must be an object")
            check_fields(root, value, kind, name + ".")
        elif isinstance(kind, list):
            if not (type(value) is list and all(type(v) is kind[0] for v in value)):
                raise ValueError(f"{root / 'manifest.json'}: entry {name!r} must be a list "
                                 f"of {kind[0].__name__}")
        elif type(value) is not kind:
            raise ValueError(f"{root / 'manifest.json'}: entry {name!r} must be a "
                             f"{kind.__name__}")
    return doc


def read_array(root: Path, name: str, ndim: int, dtype: str = "<f8") -> np.ndarray:
    """root/<name>.npy, refused unless its header gives this dtype, C order
    and ndim dimensions, and its data fills the rest of the file exactly."""
    path = root / f"{name}.npy"
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        head = io.BytesIO(fh.read(min(size, _HEADER_BYTES)))
        try:
            if np.lib.format.read_magic(head) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            shape, fortran_order, found = np.lib.format.read_array_header_1_0(head)
        except _HEADER_ERRORS as exc:
            raise ValueError(f"{path}: not a valid .npy header ({exc})") from exc
        if (found != np.dtype(dtype) or fortran_order or len(shape) != ndim
                or any(n < 0 for n in shape)):
            raise ValueError(f"{path}: holds a {found} array of shape {shape} "
                             f"(fortran_order={fortran_order}), expected {dtype} "
                             f"with {ndim} dimensions in C order")
        count = math.prod(shape)
        left = size - head.tell()
        if count * found.itemsize != left:
            raise ValueError(f"{path}: header describes {count * found.itemsize} bytes of "
                             f"data but {left} bytes follow it")
        fh.seek(head.tell())
        return np.fromfile(fh, dtype=found, count=count).reshape(shape)
