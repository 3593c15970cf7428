"""Text document helpers shared by the matrix and factor-tree formats.

Documents are JSON, which any JSON reader reads; json.loads reads them
here. The writer is hand-rolled for one reason: every float must carry
at least 17 significant digits, and the stdlib encoder emits
shortest-repr floats ("1.0"), which round-trip exactly but violate that
requirement for round values.

The layout, which this module alone holds: two spaces of indent per
level; an object puts each key on its own line; a list goes on one line,
", "-separated, only if it has at most 8 items and each is one line of
under 48 characters, else one item per line; a float is "%.16e" and
counts as 24 characters, the widest it prints, so that the layout never
depends on a value. A 2-D complex array is written as its row-major
[re, im] pair list, which that rule always puts one pair per line.

One walker (template) lays a document out as a %-template, each float a
"%.16e" slot, and collects the floats in document order as chunks (an
array's are one chunk). fill checks the floats for finiteness once,
names the first that is not finite, and formats them all in one %
call; dump_json is the two in turn. The tree writer (factors.serialize)
caches the templates of its records and fills a whole tree at once.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Tuple

import numpy as np

from .errors import ParseError
from .linalg import _concatenate

__all__ = [
    "dump_json",
    "parse_json",
    "is_json_number",
    "matrix_to_document",
    "matrix_from_document",
]

# a float's place while the text is laid out, as wide as the widest
# "%.16e" text ("-1.2345678901234567e-300"); JSON text holds no NUL
_SLOT = "\0" * 24
# a "%" of a string while the text is laid out, one character wide like
# the "%" it stands for; an encoded string holds no raw control character
_PERCENT = "\1"


class Verbatim(str):
    """Template text that template() places as it stands, such as a
    template it built before. Its length as text, not as printed, is its
    width, so it belongs where no one-line choice depends on it: as a
    dict value, or holding a line break."""


def template(obj, indent: int = 0) -> Tuple[str, list]:
    """The %-template of obj as a document at indent, and its floats as
    chunks in document order, for fill.

    obj is nested dict/list/tuple/str/bool/int/float/None, where a 2-D
    complex ndarray stands for its [re, im] pair list and a Verbatim is
    placed as it stands. Any other type, or any other ndarray, raises
    TypeError.
    """
    chunks = []
    text = _walk(obj, indent, chunks)
    return text.replace(_SLOT, "%.16e").replace(_PERCENT, "%%"), chunks


def _walk(obj, indent: int, chunks: list) -> str:
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind != "c":
            raise TypeError(f"cannot serialize {obj.dtype} array of {obj.ndim} dimensions")
        chunks.append(np.ascontiguousarray(obj, dtype=complex).view(float).ravel())
        return _list([f"[{_SLOT}, {_SLOT}]"] * obj.size, indent)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        chunks.append((obj,))
        return _SLOT
    if isinstance(obj, Verbatim):
        return obj
    if isinstance(obj, str):
        return _encode_str(obj).replace("%", _PERCENT)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * indent
        items = [
            f"{pad}  {_walk(str(key), 0, chunks)}: {_walk(value, indent + 1, chunks)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return _list([_walk(value, indent + 1, chunks) for value in obj], indent)


def _list(parts: list, indent: int) -> str:
    if not parts:
        return "[]"
    if len(parts) <= 8 and all(len(p) < 48 and "\n" not in p for p in parts):
        return "[" + ", ".join(parts) + "]"
    pad = "  " * indent
    return "[\n" + pad + "  " + (",\n  " + pad).join(parts) + "\n" + pad + "]"


def fill(text: str, chunks: list) -> str:
    """A %-template filled with its chunks of floats, which are checked
    for finiteness first: ValueError names the first in document order
    that is not finite."""
    # the () gives a float64 array even for no chunks
    flat = _concatenate([(), *chunks])
    finite = np.isfinite(flat)
    if not np.logical_and.reduce(finite):
        raise ValueError(f"cannot serialize non-finite float {float(flat[~finite][0])!r}")
    return text % tuple(flat.tolist())


def dump_json(obj, indent: int = 0) -> str:
    """Serializes nested dict/list/str/bool/int/float/None to JSON text
    laid out at indent, as the module docstring sets out.

    A 2-D complex ndarray is written as its row-major list of [re, im]
    pairs. ValueError names the first float that is not finite; any
    other type, or any other ndarray, raises TypeError.
    """
    return fill(*template(obj, indent))


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

    Raises:
        ValueError: the array is not 2^n x 2^n with n >= 1; the message
            names its shape.
    """
    matrix = np.asarray(matrix, dtype=complex)
    shape = matrix.shape
    dim = shape[0] if len(shape) == 2 else 0
    # dim & (dim - 1) is 0 only for a power of two, or for 0
    if shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"matrix shape {shape} is not 2^n x 2^n with n >= 1")
    return dump_json({"n": dim.bit_length() - 1, "entries": matrix}) + "\n"


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
