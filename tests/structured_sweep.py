"""Prints one `name status identities` line per structured input at n = 3, 4.

The corpus (180 inputs) holds 15 inputs of each of six families at
n = 3 and at n = 4, all drawn from default_rng(7) and scaled into SU by
det^(-1/N): random permutation matrices, +-1 diagonals, diagonals of
8th roots of unity, Clifford circuits of 6n gates drawn from H, S and
CNOT, A (x) B with Haar A on n - 1 qubits and a Haar one-qubit B, and
controlled-U with a Haar U on the last n - 1 qubits. Degenerate spectra
are the point: they put the eigenvalue -1 into the involution logs and
degenerate clusters into the Cartan stages. Lines are shaped like those of
pauli_sweep.py, and a change is compared by running this on the parent
checkout and on the change, then diffing:

    PYTHONPATH=src python3 tests/structured_sweep.py > after.txt

As in pauli_sweep.py, the totals go to stderr as one last line.
"""

from __future__ import annotations

import sys
from typing import Iterator, Tuple

import numpy as np

from kgdecomp import haar_special_unitary
from pauli_sweep import run_sweep

PER_FAMILY = 15
SEED = 7

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.diag([1.0, 1j])


def _special(u: np.ndarray) -> np.ndarray:
    """u scaled by det(u)^(-1/N), which puts a unitary into SU(N)."""
    return u * np.linalg.det(u) ** (-1.0 / u.shape[0])


def _on_qubit(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """A one-qubit gate on `qubit` of n; qubit 0 is the most significant."""
    return np.kron(np.kron(np.eye(2**qubit), gate), np.eye(2 ** (n - 1 - qubit)))


def _cnot(control: int, target: int, n: int) -> np.ndarray:
    u = np.zeros((2**n, 2**n), dtype=complex)
    for index in range(2**n):
        flipped = index ^ (1 << (n - 1 - target))
        u[flipped if index >> (n - 1 - control) & 1 else index, index] = 1.0
    return u


def permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.eye(2**n, dtype=complex)[:, rng.permutation(2**n)]


def sign_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.diag(rng.choice([1.0, -1.0], 2**n)).astype(complex)


def root8_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.diag(np.exp(0.25j * np.pi * rng.integers(0, 8, 2**n)))


def clifford(rng: np.random.Generator, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for _ in range(6 * n):
        kind = rng.integers(3)
        if kind == 2:
            control, target = rng.choice(n, 2, replace=False)
            gate = _cnot(int(control), int(target), n)
        else:
            gate = _on_qubit((_H, _S)[kind], int(rng.integers(n)), n)
        u = gate @ u
    return u


def kron_product(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.kron(haar_special_unitary(n - 1, rng), haar_special_unitary(1, rng))


def controlled(rng: np.random.Generator, n: int) -> np.ndarray:
    half = 2 ** (n - 1)
    u = np.eye(2**n, dtype=complex)
    u[half:, half:] = haar_special_unitary(n - 1, rng)
    return u


FAMILIES = (
    ("perm", permutation),
    ("sign", sign_diagonal),
    ("root8", root8_diagonal),
    ("clifford", clifford),
    ("kron", kron_product),
    ("ctrl", controlled),
)


def inputs() -> Iterator[Tuple[str, np.ndarray]]:
    """(name, matrix) for every input of the corpus, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for n in (3, 4):
        for family, draw in FAMILIES:
            for index in range(PER_FAMILY):
                yield f"{family}-n{n}-{index:02d}", _special(draw(rng, n))


def main() -> int:
    return run_sweep(inputs())


if __name__ == "__main__":
    sys.exit(main())
