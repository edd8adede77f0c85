"""Helpers for testing the array container loaders against corrupt input.

A container is a directory of manifest.json plus .npy files (radonet.store),
possibly with containers in subdirectories, as a radaptive bundle's coord/
and sol/. `corrupt` draws one damage to one file of it at any depth,
`load_guarded` runs a loader with every read of an .npy file checked
against that file's size.
"""

import io
import json
import shutil
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from radonet import store


class ReadGuard:
    """A binary file that fails the test on any read longer than the file."""

    def __init__(self, path, mode="rb"):
        self._fh = open(path, mode)
        self._size = self._fh.seek(0, 2)
        self._fh.seek(0)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, n=-1):
        assert 0 <= n <= self._size, f"read of {n} bytes from a {self._size}-byte file"
        return self._fh.read(n)


def load_guarded(loader, root):
    with mock.patch.object(store, "open", ReadGuard, create=True):
        return loader(root)


def snapshot(root) -> dict[str, bytes]:
    """Every file of a container directory and its subdirectories, by path
    relative to root."""
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def restore(root, files: dict[str, bytes]) -> None:
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for name, blob in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(blob)


def split_npy(blob: bytes) -> tuple[dict, bytes]:
    """(header dict, data bytes) of a well-formed version 1.0 .npy file."""
    fh = io.BytesIO(blob)
    np.lib.format.read_magic(fh)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    header = {"descr": np.lib.format.dtype_to_descr(dtype),
              "fortran_order": fortran_order, "shape": shape}
    return header, blob[fh.tell():]


def join_npy(header: dict, body: bytes) -> bytes:
    """A version 1.0 .npy file whose header dict holds whatever values it is
    given, each written as its repr."""
    text = "{" + "".join(f"'{k}': {v!r}, " for k, v in sorted(header.items())) + "}"
    text += " " * (-(len(text) + 11) % 64) + "\n"
    raw = text.encode("utf-8")
    return b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + body


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                          st.floats(allow_nan=False), st.text(max_size=6))
_SHAPES = st.one_of(st.tuples(), st.lists(st.integers(-2**70, 2**70), max_size=4).map(tuple),
                    st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple),
                    _JSON_SCALARS)
_DESCRS = st.one_of(st.sampled_from(["<f8", "<i8", ">f8", "<f4", "|O", "<U8", "V8", "|b1", "x"]),
                    _JSON_SCALARS)
_HEADER_VALUES = {"shape": _SHAPES, "descr": _DESCRS,
                  "fortran_order": st.one_of(st.booleans(), _JSON_SCALARS)}


def corrupt(files: dict[str, bytes], data) -> dict[str, bytes]:
    """files with one drawn damage: a file truncated, dropped or with bytes
    flipped; an .npy header's shape, dtype or fortran_order rewritten; body
    bytes cut or appended; or a manifest entry replaced by a JSON scalar."""
    files = dict(files)
    name = data.draw(st.sampled_from(sorted(files)))
    blob = files[name]
    kinds = ["truncate", "flip", "drop"]
    kinds += ["entry"] if name.endswith("manifest.json") else ["header", "body"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        files[name] = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        out = bytearray(blob)
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            out[pos] = data.draw(st.integers(0, 255))
        files[name] = bytes(out)
    elif kind == "drop":
        del files[name]
    elif kind == "entry":
        manifest = json.loads(blob)
        manifest[data.draw(st.sampled_from(sorted(manifest)))] = data.draw(_JSON_SCALARS)
        files[name] = json.dumps(manifest).encode()
    else:
        header, body = split_npy(blob)
        if kind == "header":
            key = data.draw(st.sampled_from(sorted(_HEADER_VALUES)))
            header[key] = data.draw(_HEADER_VALUES[key])
        else:
            cut = data.draw(st.integers(-len(body), 64))
            body = body[:cut] if cut < 0 else body + bytes(cut)
        files[name] = join_npy(header, body)
    return files
