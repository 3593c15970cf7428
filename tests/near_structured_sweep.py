"""Prints one `name status identities` line per near-structured input.

The base corpus (439 inputs) is the structured sweep (180), the Pauli
sweep (252) and the seven structured gates of tree_digests.py, scaled
into SU. Base input i is multiplied by exp(i eps H / ||H||_F), with H a
traceless Gaussian Hermitian matrix drawn from default_rng([123, i]),
the same H for every eps, for eps in EPSILONS; a name such as
`eps1e-08-perm-n3-00` carries eps. Such inputs lie within eps of a
degenerate spectrum: a stage that snaps values closer than its threshold
drops a part of their size, which shows as a ReconstructionError where
it exceeds the E_a bound. Lines are shaped like those of pauli_sweep.py,
and a change is compared by running this on the parent checkout and on
the change, then diffing:

    PYTHONPATH=src python3 tests/near_structured_sweep.py > after.txt

As in pauli_sweep.py, the totals go to stderr as one last line.
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Sequence, Tuple

import numpy as np

import pauli_sweep
import structured_sweep
import tree_digests
from kgdecomp import expm_skew

EPSILONS = (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7)
SEED = 123


def base_inputs() -> List[Tuple[str, np.ndarray]]:
    """(name, matrix) of the 439 unperturbed inputs, in a fixed order."""
    corpus = list(structured_sweep.inputs()) + list(pauli_sweep.inputs())
    for name, u, _ in tree_digests.structured_gates():
        corpus.append((name, tree_digests._special(u)))
    return corpus


def _direction(index: int, dim: int) -> np.ndarray:
    """i H / ||H||_F for the traceless Gaussian Hermitian H of input index."""
    rng = np.random.default_rng([SEED, index])
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    h -= (np.trace(h).real / dim) * np.eye(dim)
    return 1j * h / np.linalg.norm(h)


def inputs(epsilons: Sequence[float] = EPSILONS) -> Iterator[Tuple[str, np.ndarray]]:
    """(name, matrix) for every input of the sweep, in a fixed order."""
    corpus = base_inputs()
    directions = [_direction(i, len(g)) for i, (_, g) in enumerate(corpus)]
    for eps in epsilons:
        for (name, g), direction in zip(corpus, directions):
            yield f"eps{eps:.0e}-{name}", g @ expm_skew(eps * direction)


def main() -> int:
    return pauli_sweep.run_sweep(inputs())


if __name__ == "__main__":
    sys.exit(main())
