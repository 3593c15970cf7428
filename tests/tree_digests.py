"""Prints one `name sha256` line per input of a fixed decomposition set.

The digest is the SHA-256 of `serialize(decompose_full(g, n))` with the
report's `wall_time` zeroed, the one clock-dependent field. An input
that fails prints `name ErrorClass: message` instead. A change that
should leave every tree byte-identical is checked by running this on the
parent checkout and on the change, then diffing the two outputs:

    PYTHONPATH=src python3 tests/tree_digests.py > after.txt

The inputs (93): the committed `perfbench/fixtures/verify` matrices,
Haar SU(8) seeds 0..49, Haar SU(4) seed 0, Haar SU(16) seeds 20251 and
20252, the identities at n = 2, 3, 4, expm_skew(0.7 P) for ten
three-qubit Pauli words P, and seven structured gates scaled into SU:
Toffoli, CCZ, the three- and four-qubit Fourier transforms, the swap of
qubits 1 and 3, and the Pauli gates XXX and IIZ. The structured gates
have degenerate spectra: their involution logs meet the eigenvalue -1.
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


def _special(u: np.ndarray) -> np.ndarray:
    """u scaled by det(u)^(-1/N), which puts a unitary into SU(N)."""
    return u * np.linalg.det(u) ** (-1.0 / u.shape[0])


def _permutation(image) -> np.ndarray:
    """The three-qubit gate sending basis index i to image(i)."""
    u = np.zeros((8, 8), dtype=complex)
    for index in range(8):
        u[image(index), index] = 1.0
    return u


def _qft(n: int) -> np.ndarray:
    j = np.arange(2**n)
    return np.exp(2j * np.pi * np.outer(j, j) / 2**n) / np.sqrt(2**n)


def structured_gates() -> Iterator[Tuple[str, np.ndarray, int]]:
    """(name, matrix, n) of the structured gates; qubit 1 is the most
    significant bit of the basis index."""
    yield "toffoli", _permutation(lambda i: i ^ 1 if i & 0b110 == 0b110 else i), 3
    yield "ccz", np.diag([1.0] * 7 + [-1.0]).astype(complex), 3
    yield "qft3", _qft(3), 3
    yield "qft4", _qft(4), 4
    swap13 = lambda i: (i & 0b010) | ((i >> 2) & 1) | ((i & 1) << 2)
    yield "swap13", _permutation(swap13), 3
    for label in ("XXX", "IIZ"):
        # a Pauli word's matrix carries a factor i/2
        yield label.lower(), -2j * pauli_word(label).matrix, 3


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
    for name, u, n in structured_gates():
        yield name, _special(u), n


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
