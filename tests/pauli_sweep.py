"""Prints one `name status steps` line per Pauli exponential at n = 3.

The inputs (252) are expm_skew(a P) for a in ANGLES and P every
three-qubit Pauli word except III, named like `exp-0.3XIX`. The status
is `ok` or the class of the error that decomposition raised, and steps
counts the Newton steps taken over every optimizer start of every
stage, failed starts included. A change to the optimizer is compared by
running this on the parent checkout and on the change, then diffing:

    PYTHONPATH=src python3 tests/pauli_sweep.py > after.txt
"""

from __future__ import annotations

import itertools
import sys
import warnings
from typing import Iterator, Tuple

import numpy as np

from kgdecomp import decompose_full, engine, expm_skew, pauli_word

ANGLES = (0.3, 0.7, 1.5, 2.5)


def inputs() -> Iterator[Tuple[str, np.ndarray]]:
    """(name, matrix) for every input of the sweep, in a fixed order."""
    for angle in ANGLES:
        for letters in itertools.product("IXYZ", repeat=3):
            label = "".join(letters)
            if label != "III":
                yield f"exp-{angle}{label}", expm_skew(angle * pauli_word(label).matrix)


def sweep_line(name: str, g: np.ndarray) -> str:
    """Decomposes g in SU(2^n) and reports its status and Newton steps."""
    polish = engine._newton_polish
    steps = 0

    def counting_polish(*args):
        nonlocal steps
        result = polish(*args)
        steps += result[2]
        return result

    engine._newton_polish = counting_polish
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decompose_full(g, int(g.shape[0]).bit_length() - 1)
        status = "ok"
    except Exception as exc:  # the failure class is what gets compared
        status = type(exc).__name__
    finally:
        engine._newton_polish = polish
    return f"{name} {status} {steps}"


def main() -> int:
    for name, g in inputs():
        print(sweep_line(name, g), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
