"""The Pauli sweep prints one `name status steps` line per input and
leaves the engine as it found it."""

import numpy as np

from kgdecomp import decompose_full, engine
from pauli_sweep import inputs, sweep_line


def test_sweep_line_reports_status_and_newton_steps():
    polish = engine._newton_polish
    sweep = dict(inputs())
    g = sweep["exp-0.3XIX"]
    name, status, steps = sweep_line("exp-0.3XIX", g).split()
    # the one failed start here, K = I in the h stage, ends at 0 steps,
    # so the count matches the steps the tree reports
    tree = decompose_full(g, 3)
    assert (name, status) == ("exp-0.3XIX", "ok")
    assert int(steps) == sum(v for _, v in tree.report.optimizer_stats) > 0

    failed = sweep_line("scaled", 1.1 * np.eye(8, dtype=complex))
    assert failed == "scaled NotUnitaryError 0"
    assert engine._newton_polish is polish
    assert len(sweep) == 252
