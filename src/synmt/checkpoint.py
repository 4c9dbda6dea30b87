"""Versioned binary parameter container.

Layout, all integers little-endian:

    magic     8 bytes   b"SAWRCKPT"
    version   uint32    currently 1
    count     uint32    number of entries
    entry * count:
        name_len  uint16
        name      utf-8 bytes
        precision uint8     0 = float64, 1 = float32, 2 = raw bytes (uint8)
        ndim      uint8
        dims      ndim * uint32
        data      raw little-endian floats, C order
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SAWRCKPT"
VERSION = 1
_PREC = {"f64": (0, "<f8"), "f32": (1, "<f4")}
_PREC_BY_TAG = {0: "<f8", 1: "<f4", 2: "<u1"}
_BYTES_TAG = 2


def save_checkpoint(path, state: dict[str, np.ndarray], precision: str = "f64"):
    if precision not in _PREC:
        raise ValueError(f"precision must be one of {sorted(_PREC)}, got {precision!r}")
    tag, dtype = _PREC[precision]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(state)))
        for name, arr in state.items():
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(arr)
            # uint8 entries (serialized metadata blobs) bypass the float cast
            entry_tag, entry_dtype = ((_BYTES_TAG, "<u1") if arr.dtype == np.uint8
                                      else (tag, dtype))
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<BB", entry_tag, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(entry_dtype).tobytes())


class BlobReader:
    """Cursor over a file's bytes that checks every length against what is left.

    A read past the end raises DataError naming the path and the byte offset.
    """

    def __init__(self, path, blob, off=0):
        self.path, self.blob, self.off = path, blob, off

    def take(self, n):
        left = len(self.blob) - self.off
        if n > left:
            raise DataError(f"{self.path}: truncated at byte {self.off} "
                            f"({n} bytes needed, {left} left)")
        self.off += n
        return self.blob[self.off - n:self.off]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n, encoding="utf-8"):
        start = self.off
        try:
            return self.take(n).decode(encoding)
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: invalid {encoding} text at byte "
                            f"{start + exc.start}") from None

    def finish(self):
        if self.off != len(self.blob):
            raise DataError(f"{self.path}: {len(self.blob) - self.off} trailing bytes")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    r = BlobReader(path, blob, 8)
    version, count = r.unpack("<II")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        tag, ndim = r.unpack("<BB")
        if tag not in _PREC_BY_TAG:
            raise DataError(f"{path}: unknown precision tag {tag} for {name}")
        shape = r.unpack(f"<{ndim}I")
        dtype = np.dtype(_PREC_BY_TAG[tag])
        arr = np.frombuffer(r.take(math.prod(shape) * dtype.itemsize),
                            dtype=dtype).reshape(shape)
        if tag == _BYTES_TAG:
            state[name] = arr.copy()
        else:
            state[name] = arr.astype(np.float64) if tag == 0 else arr.astype(np.float32)
    r.finish()
    return state


def pop_meta(state, path) -> dict:
    """Remove and parse the JSON object a model stores under "__meta__"."""
    if "__meta__" not in state:
        raise DataError(f"{path}: no __meta__ entry; not a model checkpoint")
    try:
        meta = json.loads(bytes(state.pop("__meta__")).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"{path}: unreadable __meta__ entry ({exc})") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: __meta__ is not a JSON object")
    return meta


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
