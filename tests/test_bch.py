"""Truncated-BCH tests: low-order closed forms, series symmetry, exact
commuting collapse, and the two-factor split solver."""

import numpy as np
import pytest

from kgdecomp import (
    OrderTooHighError,
    RootSearchFailedError,
    build_kg_basis,
    expm_skew,
    haar_special_unitary,
    logm_unitary,
    pauli_word,
    solve_bch_split,
    truncated_bch,
)
from kgdecomp.bch import _word_coefficients


def comm(a, b):
    return a @ b - b @ a


def random_skew(rng, dim, scale):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a - a.conj().T
    a = a - np.trace(a) / dim * np.eye(dim)
    return scale * a


def test_word_coefficients_low_orders():
    # order 1: both singletons with weight 1
    c1 = _word_coefficients(1)
    assert c1[(0,)] == 1 and c1[(1,)] == 1
    # order 2: net 1/4 on ab and -1/4 on ba (evaluates to [a,b]/2)
    c2 = _word_coefficients(2)
    assert float(c2[(0, 1)]) == 0.25
    assert float(c2[(1, 0)]) == -0.25
    assert (0, 0) not in c2 and (1, 1) not in c2


def test_order_two_closed_form():
    rng = np.random.default_rng(0)
    a = random_skew(rng, 8, 0.3)
    b = random_skew(rng, 8, 0.3)
    want = a + b + 0.5 * comm(a, b)
    assert np.linalg.norm(truncated_bch(a, b, 2) - want) < 1e-14


def test_order_three_closed_form():
    rng = np.random.default_rng(1)
    a = random_skew(rng, 4, 0.3)
    b = random_skew(rng, 4, 0.3)
    want = (
        a + b + 0.5 * comm(a, b)
        + comm(a, comm(a, b)) / 12.0
        + comm(b, comm(b, a)) / 12.0
    )
    assert np.linalg.norm(truncated_bch(a, b, 3) - want) < 1e-14


def test_series_antisymmetry_under_reversal():
    # log(e^a e^b) = -log(e^{-b} e^{-a}) holds order by order
    rng = np.random.default_rng(2)
    a = random_skew(rng, 4, 0.2)
    b = random_skew(rng, 4, 0.2)
    for order in (2, 3, 4, 5):
        lhs = truncated_bch(a, b, order)
        rhs = -truncated_bch(-b, -a, order)
        assert np.linalg.norm(lhs - rhs) < 1e-13, order


def test_order_six_matches_exact_log_in_ball():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_skew(rng, 8, 0.01)
        b = random_skew(rng, 8, 0.01)
        exact = logm_unitary(expm_skew(a) @ expm_skew(b))
        assert np.linalg.norm(truncated_bch(a, b, 6) - exact) < 1e-8


def test_commuting_collapse_is_exact():
    a = 0.37 * pauli_word("IZ").matrix
    b = -1.2 * pauli_word("ZI").matrix
    got = truncated_bch(a, b, 6)
    assert np.array_equal(got, a + b)


def test_order_bounds():
    a = pauli_word("XI").matrix
    b = pauli_word("IY").matrix
    with pytest.raises(OrderTooHighError):
        truncated_bch(a, b, 9)
    with pytest.raises(ValueError):
        truncated_bch(a, b, 0)
    # empty spans would fail in np.stack, so this passes only if the
    # order is checked before any work
    with pytest.raises(OrderTooHighError):
        solve_bch_split(np.eye(8), [], [], 9)


def test_solve_bch_split_recovers_construction():
    rng = np.random.default_rng(5)
    kg = build_kg_basis(3)
    for _ in range(3):
        k_mat = sum(
            c * w.matrix
            for c, w in zip(rng.uniform(-0.01, 0.01, len(kg.k_set)), kg.k_set)
        )
        m_mat = sum(
            c * w.matrix
            for c, w in zip(rng.uniform(-0.01, 0.01, len(kg.m_set)), kg.m_set)
        )
        g = expm_skew(k_mat) @ expm_skew(m_mat)
        k_elt, m_elt, residual = solve_bch_split(g, kg.k_set, kg.m_set)
        assert np.linalg.norm(m_elt.matrix - m_mat) < 1e-9
        assert np.linalg.norm(k_elt.matrix - k_mat) < 1e-9
        assert residual < 1e-9


def test_solve_bch_split_fails_outside_ball():
    kg = build_kg_basis(3)
    g = haar_special_unitary(3, np.random.default_rng(6))
    with pytest.raises(RootSearchFailedError) as info:
        solve_bch_split(g, kg.k_set, kg.m_set)
    k_best, m_best, res_best = info.value.best
    assert res_best > 1e-6
