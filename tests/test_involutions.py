"""Axis-involution tests against the explicit conjugation oracle."""

import numpy as np
import pytest

from kgdecomp import AxisInvolution, DimensionMismatchError, pauli_word


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def conjugator(n, axis):
    sigma = pauli_word(axis).matrix / 0.5j  # bare sigma from the scaled word
    out = np.eye(1, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, np.eye(2, dtype=complex))
    return np.kron(out, sigma)


@pytest.mark.parametrize("axis", ["Z", "X"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_matches_explicit_conjugation(axis, n):
    rng = np.random.default_rng(10 * n + ord(axis))
    inv = AxisInvolution(n, axis)
    c = conjugator(n, axis)
    for _ in range(5):
        a = random_matrix(rng, 2**n)
        assert np.allclose(inv.apply(a), c @ a @ c, atol=1e-14)


def test_apply_is_involutive():
    rng = np.random.default_rng(1)
    for axis in ("Z", "X"):
        inv = AxisInvolution(3, axis)
        a = random_matrix(rng, 8)
        assert np.allclose(inv.apply(inv.apply(a)), a, atol=0)


def test_apply_is_an_automorphism():
    rng = np.random.default_rng(2)
    inv = AxisInvolution(3, "X")
    a = random_matrix(rng, 8)
    b = random_matrix(rng, 8)
    assert np.allclose(inv.apply(a @ b), inv.apply(a) @ inv.apply(b), atol=1e-12)


def test_rejects_bad_axis():
    with pytest.raises(ValueError):
        AxisInvolution(3, "Y")


def test_rejects_bad_dimension():
    inv = AxisInvolution(3, "Z")
    with pytest.raises(DimensionMismatchError):
        inv.apply(np.eye(4))


def test_dim_property():
    assert AxisInvolution(4, "X").dim == 16
