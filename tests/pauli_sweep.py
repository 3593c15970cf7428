"""Prints one `name status identities` line per Pauli exponential at n = 3.

The inputs (252) are expm_skew(a P) for a in ANGLES and P every
three-qubit Pauli word except III, named like `exp-0.3XIX`. The status
is `ok` or the class of the error that decomposition raised, and
identities counts the tree's identity factors (see identity_factors),
0 for a failed input. A change to the Cartan stages is compared by
running this on the parent checkout and on the change, then diffing:

    PYTHONPATH=src python3 tests/pauli_sweep.py > after.txt
"""

from __future__ import annotations

import itertools
import sys
import warnings
from typing import Iterable, Iterator, Tuple

import numpy as np

from kgdecomp import FactorKind, FactorTree, decompose_full, expm_skew, pauli_word

ANGLES = (0.3, 0.7, 1.5, 2.5)


def inputs() -> Iterator[Tuple[str, np.ndarray]]:
    """(name, matrix) for every input of the sweep, in a fixed order."""
    for angle in ANGLES:
        for letters in itertools.product("IXYZ", repeat=3):
            label = "".join(letters)
            if label != "III":
                yield f"exp-{angle}{label}", expm_skew(angle * pauli_word(label).matrix)


def identity_factors(tree: FactorTree) -> int:
    """The number of factors of tree that act as the identity.

    A Cartan factor counts when every coefficient is within 1e-8 of 0; a
    matrix factor when its payload minus its (0, 0) multiple of I has
    norm at most 1e-8, so a root-of-unity payload counts too.
    """
    count = 0
    for factor in tree.factors:
        if factor.kind is FactorKind.CARTAN_EXP:
            count += all(abs(c) <= 1e-8 for _, c in factor.coeffs)
        else:
            m = factor.matrix
            count += np.linalg.norm(m - m[0, 0] * np.eye(len(m))) <= 1e-8
    return count


def sweep_line(name: str, g: np.ndarray) -> str:
    """Decomposes g in SU(2^n) and reports its status and identity factors."""
    identities = 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = decompose_full(g, int(g.shape[0]).bit_length() - 1)
        status = "ok"
        identities = identity_factors(tree)
    except Exception as exc:  # the failure class is what gets compared
        status = type(exc).__name__
    return f"{name} {status} {identities}"


def run_sweep(corpus: Iterable[Tuple[str, np.ndarray]]) -> int:
    """Prints the sweep line of every input of corpus to stdout, then one
    `ok N/M, identity factors K` tally to stderr, so that stdout stays
    diffable line for line."""
    passed = total = identities = 0
    for name, g in corpus:
        line = sweep_line(name, g)
        print(line, flush=True)
        _, status, count = line.rsplit(" ", 2)
        total += 1
        passed += status == "ok"
        identities += int(count)
    print(f"ok {passed}/{total}, identity factors {identities}", file=sys.stderr)
    return 0


def main() -> int:
    return run_sweep(inputs())


if __name__ == "__main__":
    sys.exit(main())
