"""Text document helpers shared by the matrix and factor-tree formats.

Documents are JSON. The writer is hand-rolled for one reason: every float
must carry at least 17 significant digits, and the stdlib encoder emits
shortest-repr floats ("1.0"), which round-trip exactly but violate that
requirement for round values. A matrix, the bulk of every matrix and tree
document, is handed to the writer as a 2-D complex array and written as
its row-major [re, im] pair list with one finiteness check and one
"%.16e" format call for the whole payload, the same bytes as a Python
list of float pairs. The layout of such a list is one %-template
(pair_list_template), which the tree writer (factors.serialize) also
fills: it keeps a cached template per record shape and formats a whole
tree in one call, leaving only the report block to dump_json. Reading
uses json.loads unchanged; a pair list of plain finite numbers then
becomes a matrix in one array conversion.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
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
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".16e")


def pair_list_template(pairs: int, indent: int) -> str:
    """The %-template of a list of `pairs` [re, im] float pairs at indent,
    one "[%.16e, %.16e]" row per line, as dump_json lays it out; "[]"
    for none. The tree writer fills it inside its record templates."""
    if not pairs:
        return "[]"
    row = "  " * (indent + 1) + "[%.16e, %.16e]"
    return "[\n" + ",\n".join([row] * pairs) + "\n" + "  " * indent + "]"


def _pair_list(matrix: np.ndarray, indent: int) -> str:
    """The row-major [re, im] pair list of a 2-D complex array, one pair
    per line, as dump_json writes a Python list of float pairs."""
    flat = np.ascontiguousarray(matrix, dtype=complex).view(float).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[~finite][0]
        raise ValueError(f"cannot serialize non-finite float {float(bad)!r}")
    return pair_list_template(flat.size // 2, indent) % tuple(flat.tolist())


def dump_json(obj, indent: int = 0) -> str:
    """Serializes nested dict/list/str/bool/int/float/None to JSON text.

    Floats are written as %.16e (17 significant digits, full round trip).
    A 2-D complex ndarray is written as its row-major list of [re, im]
    pairs, the same bytes as that list of Python floats, and refused with
    ValueError if any entry is not finite; any other ndarray, like any
    other type, raises TypeError. The exact types of a document (float,
    str, int, dict, list) are dispatched first, and their scalar members
    are written inside the dict and list loops.
    """
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is np.ndarray:
        if obj.ndim != 2 or obj.dtype.kind != "c":
            raise TypeError(f"cannot serialize {obj.dtype} array of {obj.ndim} dimensions")
        return _pair_list(obj, indent)
    if kind is not dict and kind is not list:
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt_float(obj)
        if isinstance(obj, str):
            return _encode_str(obj)
        if isinstance(obj, dict):
            kind = dict
        elif not isinstance(obj, (list, tuple)):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    pad = "  " * indent
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            kind = type(value)
            if kind is float and math.isfinite(value):
                text = "%.16e" % value
            elif kind is str:
                text = _encode_str(value)
            elif kind is int:
                text = str(value)
            else:
                text = dump_json(value, indent + 1)
            key = _encode_str(key if type(key) is str else str(key))
            items.append(f"{inner}{key}: {text}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if not obj:
        return "[]"
    parts = []
    for value in obj:
        kind = type(value)
        if kind is float and math.isfinite(value):
            parts.append("%.16e" % value)
        elif kind is str:
            parts.append(_encode_str(value))
        elif kind is int:
            parts.append(str(value))
        else:
            parts.append(dump_json(value, indent + 1))
    # a pair is at least 48 characters, so a pair list never fits on one line
    if len(parts) <= 8 and all(len(p) < 48 and "\n" not in p for p in parts):
        return "[" + ", ".join(parts) + "]"
    return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"


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


_PLAIN_NUMBERS = (float, int)


def _pairs_array(entries) -> np.ndarray:
    """The flat float array re0, im0, re1, ... of a list of [re, im]
    pairs whose values are all finite Python floats or ints, or None for
    any other list.

    bool fails the type test; an int beyond float range, a NaN or an
    inf also gives None, and the per-entry loop then names the entry.
    """
    for pair in entries:
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) not in _PLAIN_NUMBERS
            or type(pair[1]) not in _PLAIN_NUMBERS
        ):
            return None
    try:
        values = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def entries_to_matrix(entries, n: int, location: str) -> np.ndarray:
    """Parses a row-major [re, im] pair list back into a 2^n x 2^n matrix.

    A list of finite float or int pairs, the only kind a valid document
    holds, is converted in one array operation; any other list goes
    through the per-entry loop, which names the first bad entry.
    """
    count = len(entries) if isinstance(entries, list) else None
    # 4^n has bit length 2n + 1, so a huge n fails before 4^n is built
    if count is None or count.bit_length() != 2 * n + 1 or count != 4**n:
        got = type(entries).__name__ if count is None else count
        raise ParseError(f"expected 4^{n} [re, im] entries, got {got}", location)
    dim = 2**n
    values = _pairs_array(entries)
    if values is not None:
        return values.view(complex).reshape(dim, dim)
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
    return dump_json({"n": n, "entries": matrix}) + "\n"


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
