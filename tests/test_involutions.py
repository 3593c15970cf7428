"""Axis-involution tests against the explicit conjugation oracle."""

import numpy as np
import pytest

from kgdecomp import (
    AxisInvolution,
    DimensionMismatchError,
    SubspaceViolationError,
    pauli_word,
)


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


@pytest.mark.parametrize("axis", ["Z", "X"])
def test_even_part_is_the_fixed_projection(axis):
    rng = np.random.default_rng(3)
    inv = AxisInvolution(3, axis)
    a = random_matrix(rng, 8)
    assert np.allclose(inv.even_part(a), 0.5 * (a + inv.apply(a)), atol=1e-15)


@pytest.mark.parametrize("axis", ["Z", "X"])
def test_odd_reflection_squares_to_the_projector_and_is_odd(axis):
    # E is spanned by basis vectors 0..3 of SU(8): Z- and X-invariant,
    # with two +1 and two -1 vectors of I..IZ
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(random_matrix(rng, 4))
    v = np.zeros((8, 4), dtype=complex)
    v[:4] = q
    inv = AxisInvolution(3, axis)
    j = inv.odd_reflection(v)
    projector = v @ v.conj().T
    assert np.linalg.norm(j - j.conj().T) < 1e-14
    assert np.linalg.norm(j @ j - projector) < 1e-13
    assert np.linalg.norm(inv.apply(j) + j) < 1e-13


def test_odd_reflection_rejects_an_unbalanced_split():
    # E = span(e_0) lies in the +1 eigenspace of I..IZ: no odd J exists
    v = np.zeros((8, 1), dtype=complex)
    v[0, 0] = 1.0
    with pytest.raises(SubspaceViolationError, match="splits 1/0"):
        AxisInvolution(3, "Z").odd_reflection(v)
