"""The one on-disk array container: manifest.json plus one <f8 .npy file per array.

Datasets, preprocessed sets (both split tables, see write_splits) and model
bundles are stored this way. A reader asks for an array's name and number of
dimensions and gets exactly that or a ValueError; it reads no array data
before the .npy header's shape times itemsize has been found to equal the
bytes left in the file. A split table may be read for some of its splits
and columns only; the headers of the others are checked all the same. A
column may also be read one row at a time (read_rows).
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

_DTYPE = np.dtype("<f8")


def write_array(root: Path, name: str, arr) -> None:
    np.save(root / f"{name}.npy", np.ascontiguousarray(arr, dtype=_DTYPE))


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


def _open(path: Path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from exc


def _header(fh, path: Path, ndim: int) -> tuple[tuple, int]:
    """(shape, offset of the data) of the .npy file fh, open at its start,
    refused unless its header gives <f8, C order and ndim dimensions, and
    its data fills the rest of the file exactly."""
    size = os.fstat(fh.fileno()).st_size
    head = io.BytesIO(fh.read(min(size, _HEADER_BYTES)))
    try:
        if np.lib.format.read_magic(head) != (1, 0):
            raise ValueError("not a version 1.0 .npy file")
        shape, fortran_order, found = np.lib.format.read_array_header_1_0(head)
    except _HEADER_ERRORS as exc:
        raise ValueError(f"{path}: not a valid .npy header ({exc})") from exc
    if (found != _DTYPE or fortran_order or len(shape) != ndim
            or any(n < 0 for n in shape)):
        raise ValueError(f"{path}: holds a {found} array of shape {shape} "
                         f"(fortran_order={fortran_order}), expected {_DTYPE.str} "
                         f"with {ndim} dimensions in C order")
    described, left = math.prod(shape) * _DTYPE.itemsize, size - head.tell()
    if described != left:
        raise ValueError(f"{path}: header describes {described} bytes of data but {left} "
                         "bytes follow it")
    return shape, head.tell()


def _read(root: Path, name: str, ndim: int, data: bool) -> tuple[tuple, np.ndarray | None]:
    """(shape, array) of root/<name>.npy, with no array read when data is
    False, refused as _header refuses it."""
    path = root / f"{name}.npy"
    with _open(path) as fh:
        shape, offset = _header(fh, path, ndim)
        if not data:
            return shape, None
        fh.seek(offset)
        return shape, np.fromfile(fh, dtype=_DTYPE, count=math.prod(shape)).reshape(shape)


def read_array(root: Path, name: str, ndim: int) -> np.ndarray:
    """root/<name>.npy, refused unless its header gives <f8, C order and ndim
    dimensions, and its data fills the rest of the file exactly."""
    return _read(root, name, ndim, True)[1]


def write_splits(root: Path, manifest: dict, shared: dict, splits: dict) -> None:
    """A split table: each shared array as <name>.npy, each split's columns
    (arrays with one row per sample) as <column>_<split>.npy, and manifest
    plus splits.{split}.n_samples as manifest.json."""
    root.mkdir(parents=True, exist_ok=True)
    for name, arr in shared.items():
        write_array(root, name, arr)
    for split, columns in splits.items():
        for name, arr in columns.items():
            write_array(root, f"{name}_{split}", arr)
    write_manifest(root, dict(manifest, splits={
        split: {"n_samples": len(next(iter(cols.values())))} for split, cols in splits.items()}))


def read_splits(root: Path, what: str, version: int, fields: dict, shared: dict,
                columns: dict, splits=None, load=None) -> tuple[dict, dict, dict]:
    """(manifest, shared arrays, {split: {column: array}}) of a split table
    with at least one split, where shared and columns give each array's
    number of dimensions; a column must hold its split's n_samples rows.

    splits names the splits whose columns are loaded (None: all of them), and
    load the columns loaded in them (None: all of them); a name the table
    lacks is left out. Every other column, of these splits or the others, is
    checked as thoroughly, header, size and rows, but its data is not read.
    """
    manifest = read_manifest(root, what, version, dict(fields, splits=dict))
    if not manifest["splits"]:
        raise ValueError(f"{root / 'manifest.json'}: entry 'splits' is empty")
    check_fields(root, manifest["splits"], dict.fromkeys(manifest["splits"], {"n_samples": int}),
                 "splits.")
    load = columns if load is None else load
    out = {}
    for split, entry in manifest["splits"].items():
        wanted = splits is None or split in splits
        cols = {name: _read(root, f"{name}_{split}", ndim, wanted and name in load)
                for name, ndim in columns.items()}
        if any(shape[0] != entry["n_samples"] for shape, _ in cols.values()):
            raise ValueError(f"{root}: split {split!r} columns disagree with its n_samples")
        if wanted:
            out[split] = {name: arr for name, (_, arr) in cols.items() if name in load}
    return manifest, {name: read_array(root, name, ndim) for name, ndim in shared.items()}, out


def read_rows(root: Path, column: str, split: str, rows):
    """The rows `rows` (indices, in their order) of a split table's column,
    each as a fresh 1-d array read from <column>_<split>.npy on its own, so
    that no more than a row is held. The file is checked as read_array
    checks it and opened when the first row is asked for, so a process
    forked before then reads through a file of its own; a row the checked
    data does not hold, or one the file no longer holds, raises ValueError.
    """
    path = root / f"{column}_{split}.npy"
    with _open(path) as fh:
        (n, width), offset = _header(fh, path, 2)
        for i in rows:
            if not 0 <= i < n:
                raise ValueError(f"{path}: has no row {i}, only {n} rows")
            row = np.empty(width, dtype=_DTYPE)
            if os.preadv(fh.fileno(), [row], offset + row.nbytes * i) != row.nbytes:
                raise ValueError(f"{path}: row {i} ends before its {width} values")
            yield row
