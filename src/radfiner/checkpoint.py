"""Plain-text parameter checkpoints.

Header `#radfiner-ckpt v1`, then one line per entry, sorted by name:

    <name> <ndim> <dim0> ... <value0> <value1> ...

Values are row-major, written with repr() so save/load round-trips are
byte-identical.  Entries cover trainable parameters and batch-norm
running statistics alike; the loader returns a flat name -> array dict
and leaves interpretation to the model.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError, read_text

CKPT_HEADER = "#radfiner-ckpt v1"


def save_entries(path, entries: dict[str, np.ndarray]) -> None:
    lines = [CKPT_HEADER]
    for name in sorted(entries):
        if " " in name:
            raise ValueError(f"entry name contains a space: {name!r}")
        arr = np.asarray(entries[name], dtype=np.float64)
        parts = [name, str(arr.ndim), *map(str, arr.shape)]
        parts.extend(repr(float(v)) for v in arr.reshape(-1))
        lines.append(" ".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_entries(path) -> dict[str, np.ndarray]:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CKPT_HEADER:
        raise DataFormatError(f"{path}: expected header {CKPT_HEADER!r}")
    entries: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) < 2:
            raise DataFormatError(f"{path}:{lineno}: truncated entry")
        name = parts[0]
        if name in entries:
            raise DataFormatError(f"{path}:{lineno}: duplicate entry {name}")
        try:
            ndim = int(parts[1])
            shape = tuple(int(v) for v in parts[2:2 + ndim])
            values = [float(v) for v in parts[2 + ndim:]]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: unparseable entry") from None
        if ndim < 0 or any(d < 0 for d in shape):
            raise DataFormatError(f"{path}:{lineno}: {name} declares a negative size")
        if len(shape) != ndim or len(values) != math.prod(shape):
            raise DataFormatError(
                f"{path}:{lineno}: {name} declares shape {shape} but has "
                f"{len(values)} values")
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{path}:{lineno}: {name} holds a non-finite value")
        entries[name] = np.array(values, dtype=np.float64).reshape(shape)
    return entries
