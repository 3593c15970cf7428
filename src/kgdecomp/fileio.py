"""Text document helpers shared by the matrix and factor-tree formats.

Documents are JSON. The writer is hand-rolled for one reason: every float
must carry at least 17 significant digits, and the stdlib encoder emits
shortest-repr floats ("1.0"), which round-trip exactly but violate that
requirement for round values. Reading uses json.loads unchanged.
"""

from __future__ import annotations

import json
import math
from typing import Tuple

import numpy as np

from .errors import ParseError

__all__ = [
    "dump_json",
    "parse_json",
    "is_json_number",
    "matrix_to_document",
    "matrix_from_document",
]


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".16e")


def dump_json(obj, indent: int = 0) -> str:
    """Serializes nested dict/list/str/bool/int/float/None to JSON text.

    Floats are written as %.16e (17 significant digits, full round trip).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dump_json(v, indent + 1) for v in obj]
        if all(len(p) < 48 and "\n" not in p for p in parts) and len(parts) <= 8:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_json(text: str):
    """json.loads wrapped to raise ParseError with a line:column location."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, location=f"line {exc.lineno}, column {exc.colno}")


def is_json_number(value, integer: bool = False) -> bool:
    """Whether a parsed JSON value is a finite number (an integer if asked).

    json.loads reads true/false as bool, a subclass of int, so a plain
    isinstance test would take them for 1 and 0; this one does not. It
    also reads the non-standard NaN, Infinity and -Infinity as floats,
    which no document field may hold, and an integer may be too large for
    any float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if integer:
        return isinstance(value, int)
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def complex_entries(matrix: np.ndarray) -> list:
    """Row-major [re, im] pair list for a complex matrix."""
    flat = np.asarray(matrix, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def entries_to_matrix(entries, n: int, location: str) -> np.ndarray:
    """Parses a row-major [re, im] pair list back into a 2^n x 2^n matrix."""
    count = len(entries) if isinstance(entries, list) else None
    # 4^n has bit length 2n + 1, so a huge n fails before 4^n is built
    if count is None or count.bit_length() != 2 * n + 1 or count != 4**n:
        got = type(entries).__name__ if count is None else count
        raise ParseError(f"expected 4^{n} [re, im] entries, got {got}", location)
    dim = 2**n
    flat = np.empty(dim * dim, dtype=complex)
    for idx, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not (is_json_number(pair[0]) and is_json_number(pair[1]))
        ):
            raise ParseError("entry is not an [re, im] pair", f"{location}[{idx}]")
        flat[idx] = complex(pair[0], pair[1])
    return flat.reshape(dim, dim)


def matrix_to_document(matrix: np.ndarray) -> str:
    """Renders a 2^n x 2^n matrix as the matrix file format.

    The document is a JSON object with fields `n` (qubit count) and
    `entries` (row-major [re, im] pairs, length 4^n).
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    n = int(round(np.log2(dim)))
    if matrix.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"matrix shape {matrix.shape} is not 2^n x 2^n")
    return dump_json({"n": n, "entries": complex_entries(matrix)}) + "\n"


def matrix_from_document(text: str) -> Tuple[int, np.ndarray]:
    """Parses a matrix file document into (n, matrix).

    Raises:
        ParseError: malformed JSON, missing fields, or wrong entry count.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be an object", "top level")
    if "n" not in doc or "entries" not in doc:
        raise ParseError("matrix document needs fields 'n' and 'entries'", "top level")
    n = doc["n"]
    if not is_json_number(n, integer=True) or n < 1:
        raise ParseError(f"'n' must be a positive integer, got {n!r}", "n")
    return n, entries_to_matrix(doc["entries"], n, "entries")
