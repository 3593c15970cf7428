"""The Pauli sweep prints one `name status identities` line per input."""

import numpy as np

from kgdecomp import decompose_full
from pauli_sweep import identity_factors, inputs, sweep_line


def test_sweep_line_reports_status_and_identity_factors():
    sweep = dict(inputs())
    g = sweep["exp-0.3IIX"]
    # IIX is a word of H_3, so the h stage keeps K1 = I and every factor
    # but the one Cartan exponential is the identity
    assert sweep_line("exp-0.3IIX", g) == "exp-0.3IIX ok 8"
    tree = decompose_full(g, 3)
    assert identity_factors(tree) == len(tree.factors) - 1 == 8

    failed = sweep_line("scaled", 1.1 * np.eye(8, dtype=complex))
    assert failed == "scaled NotUnitaryError 0"
    assert len(sweep) == 252
