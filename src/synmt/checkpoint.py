"""Versioned binary container of named arrays, the package's one binary format.

It holds model checkpoints and SAWR caches alike; each carries a JSON object
in a uint8 "__meta__" entry, which pack_meta encodes and pop_meta decodes.

Layout, all integers little-endian:

    magic     8 bytes   b"SAWRCKPT"
    version   uint32    currently 1
    count     uint32    number of entries
    entry * count:
        name_len  uint16
        name      utf-8 bytes
        precision uint8     0 = float64, 2 = raw bytes (uint8)
        ndim      uint8
        dims      ndim * uint32
        data      raw little-endian floats, C order

open_new, below, is the one way the package writes a file, open_input the
one way it opens an input, and read_text the one way it reads a text file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SAWRCKPT"
VERSION = 1
_PREC_BY_TAG = {0: "<f8", 2: "<u1"}
_NATIVE_BY_TAG = {0: np.float64, 2: np.uint8}
_BYTES_TAG = 2


def save_checkpoint(path, state: dict[str, np.ndarray]):
    """Write float arrays as float64 (tag 0) and uint8 arrays as raw bytes
    (tag 2), the two tags load_checkpoint reads.

    A C-contiguous little-endian float64 (or uint8) array is written from its
    own buffer; any other array is converted into one copy first."""
    with open_new(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(state)))
        for name, arr in state.items():
            raw = name.encode("utf-8")
            arr = np.asarray(arr)
            # uint8 entries (serialized metadata blobs) bypass the float cast
            entry_tag = _BYTES_TAG if arr.dtype == np.uint8 else 0
            arr = np.ascontiguousarray(arr, dtype=_PREC_BY_TAG[entry_tag])
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<BB", entry_tag, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.data)


class FileReader:
    """Cursor over an open binary file that checks every length against what
    is left of it.

    A read past the end raises DataError naming the path and the byte offset.
    """

    def __init__(self, path, f, off=0):
        self.path, self.f, self.off = path, f, off
        self.size = os.fstat(f.fileno()).st_size
        f.seek(off)

    def claim(self, n):
        """Move past the next n bytes, which must be there."""
        left = self.size - self.off
        if n > left:
            raise DataError(f"{self.path}: truncated at byte {self.off} "
                            f"({n} bytes needed, {left} left)")
        self.off += n

    def take(self, n) -> bytes:
        self.claim(n)
        return self.f.read(n)

    def fill(self, arr: np.ndarray):
        """Read arr's bytes, claimed already, straight into a fresh arr."""
        self.f.readinto(arr.reshape(-1).view(np.uint8))

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n):
        start = self.off
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: invalid utf-8 text at byte "
                            f"{start + exc.start}") from None

    def finish(self):
        if self.off != self.size:
            raise DataError(f"{self.path}: {self.size - self.off} trailing bytes")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Every entry of a checkpoint, by name, each read from the file straight
    into its own array, so loading holds the entries once and no copy of the
    file; a malformed file, a repeated name or a precision tag other than 0
    and 2 included, is a DataError."""
    with open_input(path) as f:
        if f.read(8) != MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic)")
        r = FileReader(path, f, 8)
        version, count = r.unpack("<II")
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        state: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            if name in state:
                raise DataError(f"{path}: entry {name!r} appears twice")
            tag, ndim = r.unpack("<BB")
            if tag not in _PREC_BY_TAG:
                raise DataError(f"{path}: unknown precision tag {tag} for {name}")
            shape = r.unpack(f"<{ndim}I")
            dtype = np.dtype(_PREC_BY_TAG[tag])
            r.claim(math.prod(shape) * dtype.itemsize)
            try:  # an empty entry can still name more axes, or elements, than numpy allows
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:
                raise DataError(f"{path}: entry {name!r} has an unusable shape ({exc})") from None
            r.fill(arr)
            state[name] = arr.astype(_NATIVE_BY_TAG[tag], copy=False)  # a no-op on little-endian
        r.finish()
    return state


def pack_meta(meta: dict) -> np.ndarray:
    """The "__meta__" entry that stores the JSON object meta; pop_meta reads it."""
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def pop_meta(state, path) -> dict:
    """Remove and parse the JSON object pack_meta stored under "__meta__"."""
    if "__meta__" not in state:
        raise DataError(f"{path}: no __meta__ entry")
    try:
        meta = json.loads(bytes(state.pop("__meta__")).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"{path}: unreadable __meta__ entry ({exc})") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: __meta__ is not a JSON object")
    return meta


@contextlib.contextmanager
def meta_errors(path):
    """A missing or unusable __meta__ field, met while building a model, is a DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: __meta__ lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid __meta__ ({exc})") from None


@contextlib.contextmanager
def open_new(path, mode="w"):
    """Open an output file whose whole body the with-block writes.

    The body goes to the sibling path + ".tmp<pid>". When the block ends
    cleanly, an existing regular file at path is unlinked and the temp file
    renamed to path; it keeps the old file's permission bits. A file is never
    truncated or renamed over, because on ext4 both force the file's data to
    disk at once. If the block raises, the temp file is removed and the old
    file is left as it was. A crash between unlink and rename leaves no file
    at path and the whole new body in the temp sibling. Nothing is fsynced,
    so none of this holds across a power loss.

    A target that exists and is not a regular file (a symlink, a device, a
    FIFO) is written in place. An OSError from opening the file or swapping
    it in becomes a DataError naming path. mode is "w" (utf-8 text) or "wb".
    """
    path = os.fspath(path)
    encoding = None if "b" in mode else "utf-8"
    try:
        old = os.lstat(path)
    except OSError:
        old = None  # absent, or unreachable: the open below says which
    in_place = old is not None and not stat.S_ISREG(old.st_mode)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        f = open(path if in_place else tmp, mode, encoding=encoding)
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if in_place:
        with f:
            yield f
        return
    try:
        with f:
            if old is not None:
                os.fchmod(f.fileno(), stat.S_IMODE(old.st_mode))
            yield f
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    try:
        if old is not None:
            os.unlink(path)
        os.rename(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise _cannot_write(path, exc) from None


def read_text(path, error=DataError) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise error naming
    the file and the line; a file that cannot be opened is a DataError."""
    with open_input(path) as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: not valid UTF-8") from None


def read_lines(path) -> list[str]:
    """read_text's lines without their newlines; \\r\\n and \\r end a line
    too, as in a file opened in text mode."""
    return [line.rstrip("\n") for line in io.StringIO(read_text(path), newline=None)]


def open_input(path):
    """path opened for binary reading; an OSError (a missing file, a
    directory, no permission) is a DataError naming path."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None


def _cannot_write(path, exc):
    return DataError(f"{path}: cannot write ({exc.strerror or exc})")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open_input(path) as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
