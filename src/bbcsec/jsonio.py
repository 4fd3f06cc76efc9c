"""Deterministic JSON writing for all file formats.

Floats are emitted with 17 significant digits so every value round-trips
bit-exactly and the files carry at least 15 significant digits. Output is
locale-independent by construction (plain str.format, '.' decimal point).
Nested containers are indented two spaces per level.
"""

import hashlib
import json
from pathlib import Path

import numpy as np


def _fmt(value, level: int) -> str:
    pad = "  " * (level + 1)
    close = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_fmt(v, level + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + close + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else list(value)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(_fmt(v, level) for v in seq) + "]"
        items = ",\n".join(f"{pad}{_fmt(v, level + 1)}" for v in seq)
        return "[\n" + items + "\n" + close + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float not representable in JSON: {x}")
        return f"{x:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    return _fmt(obj, 0) + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
