"""Inputs within 1e-9 or 1e-8 of a structured gate decompose to E_a at
rounding level: no stage snap drops more than rounding."""

import numpy as np
import pytest

from kgdecomp import KgDecompError, decompose_full
from near_structured_sweep import base_inputs, inputs


def test_corpus_is_fixed_and_unperturbed_at_zero():
    base = base_inputs()
    assert len(base) == len({name for name, _ in base}) == 439
    for (name, g), (line_name, h) in zip(base, inputs((0.0,))):
        assert line_name == f"eps0e+00-{name}"
        assert np.array_equal(g, h)


@pytest.mark.slow
@pytest.mark.parametrize("eps", [1e-9, 1e-8])
def test_near_structured_inputs_lose_only_rounding(eps):
    # a cluster tolerance of 1e-9 gauged values that far apart as one
    # cluster, a ReconstructionError on 2 inputs at 1e-9 and 73 at 1e-8;
    # setting the phases within 1e-9 above -pi to pi moved e^{i phase} by
    # up to 1e-9, an E_a of up to 7e-10, inside the bound
    failed, worst = [], 0.0
    for name, g in inputs((eps,)):
        try:
            tree = decompose_full(g, len(g).bit_length() - 1)
        except KgDecompError as exc:
            failed.append(f"{name} {type(exc).__name__}")
            continue
        worst = max(worst, tree.report.approx_error)
    assert not failed, failed
    assert worst <= 1e-12
