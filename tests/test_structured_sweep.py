"""The structured sweep draws a fixed 180-input corpus and reports each
input like the Pauli sweep; two of its inputs decompose in tier-1."""

import numpy as np
import pytest

from kgdecomp import decompose_full
from structured_sweep import inputs, sweep_line


def test_corpus_is_fixed_and_special_unitary():
    corpus = list(inputs())
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names)) == 180
    again = dict(inputs())
    for name, g in corpus:
        assert np.array_equal(again[name], g)
        assert np.linalg.norm(g @ g.conj().T - np.eye(len(g))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["perm-n3-00", "sign-n3-00"])
def test_structured_inputs_decompose(name):
    # the -1 eigenvalue of theta_Z(g^dag) g once made compute_m's
    # principal log theta-even here, a SubspaceViolationError
    g = dict(inputs())[name]
    line_name, status, steps = sweep_line(name, g).split()
    assert (line_name, status) == (name, "ok") and int(steps) > 0
    assert decompose_full(g, 3).report.approx_error <= 1e-10
