"""Prints one `name sha256` line per input of a fixed decomposition set.

The digest is the SHA-256 of `serialize(decompose_full(g, n))` with the
report's `wall_time` zeroed, the one clock-dependent field. An input
that fails prints `name ErrorClass: message` instead. A change that
should leave every tree byte-identical is checked by running this on the
parent checkout and on the change, then diffing the two outputs:

    PYTHONPATH=src python3 tests/tree_digests.py > after.txt

The inputs (86): the committed `perfbench/fixtures/verify` matrices,
Haar SU(8) seeds 0..49, Haar SU(4) seed 0, Haar SU(16) seeds 20251 and
20252, the identities at n = 2, 3, 4, and expm_skew(0.7 P) for ten
three-qubit Pauli words P.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Iterator, Tuple

import numpy as np

from kgdecomp import (
    FactorTree,
    decompose_full,
    expm_skew,
    haar_special_unitary,
    pauli_word,
    serialize,
)
from kgdecomp.fileio import matrix_from_document

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify"
PAULI_WORDS = ("XXX", "IIZ", "ZZX", "XYZ", "IXI", "YYI", "ZIZ", "XIX", "IXX", "YZY")


def tree_digest(tree: FactorTree) -> str:
    """SHA-256 of the serialized tree, with wall_time zeroed."""
    report = dataclasses.replace(tree.report, wall_time=0.0)
    document = serialize(dataclasses.replace(tree, report=report))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def inputs() -> Iterator[Tuple[str, np.ndarray, int]]:
    """(name, matrix, n) for every input of the set, in a fixed order."""
    for path in sorted(FIXTURES.glob("*.matrix.json")):
        n, g = matrix_from_document(path.read_text(encoding="utf-8"))
        yield path.name, g, n
    for seed in range(50):
        yield f"haar3-s{seed}", haar_special_unitary(3, np.random.default_rng(seed)), 3
    yield "haar2-s0", haar_special_unitary(2, np.random.default_rng(0)), 2
    for seed in (20251, 20252):
        yield f"haar4-s{seed}", haar_special_unitary(4, np.random.default_rng(seed)), 4
    for n in (2, 3, 4):
        yield f"identity-n{n}", np.eye(2**n, dtype=complex), n
    for label in PAULI_WORDS:
        yield f"exp-0.7{label}", expm_skew(0.7 * pauli_word(label).matrix), 3


def digest_line(name: str, g: np.ndarray, n: int) -> str:
    try:
        return f"{name} {tree_digest(decompose_full(g, n))}"
    except Exception as exc:  # the failure itself is what gets compared
        return f"{name} {type(exc).__name__}: {exc}"


def main() -> int:
    for name, g, n in inputs():
        print(digest_line(name, g, n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
