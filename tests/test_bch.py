"""Truncated-BCH tests: a Dynkin-expansion oracle, low-order closed
forms, series symmetry, exact commuting collapse, the two-factor split
solver and its on-demand scipy.optimize import."""

import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import kgdecomp
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


def comm(a, b):
    return a @ b - b @ a


def random_skew(rng, dim, scale):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a - a.conj().T
    a = a - np.trace(a) / dim * np.eye(dim)
    return scale * a


def _pair_compositions(total, k):
    """All k-tuples of pairs (r, s) with r + s >= 1 summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - (k - 1) + 1):
        for r in range(first + 1):
            for rest in _pair_compositions(total - first, k - 1):
                yield ((r, first - r),) + rest


@lru_cache(maxsize=None)
def dynkin_coefficients(n):
    """Net Dynkin coefficient of each degree-n word over {0: a, 1: b}."""
    coeffs = defaultdict(Fraction)
    for k in range(1, n + 1):
        for pairs in _pair_compositions(n, k):
            denom = n
            word = ()
            for r, s in pairs:
                denom *= factorial(r) * factorial(s)
                word += (0,) * r + (1,) * s
            coeffs[word] += Fraction((-1) ** (k - 1), k * denom)
    return coeffs


def dynkin_bch(a, b, order):
    """Reference: Dynkin's expansion with exact word coefficients,

    log(e^a e^b) = sum_k (-1)^(k-1)/k
        sum [a^r1 b^s1 ... a^rk b^sk] / ((sum_i r_i+s_i) prod_i r_i! s_i!)

    with right-nested brackets, summed degree by degree up to `order`.
    """
    mats = (a, b)
    total = np.zeros_like(a)
    for n in range(1, order + 1):
        for word, coeff in dynkin_coefficients(n).items():
            value = mats[word[-1]]
            for letter in reversed(word[:-1]):
                value = comm(mats[letter], value)
            total = total + float(coeff) * value
    return total


def test_truncated_bch_matches_dynkin_oracle():
    rng = np.random.default_rng(7)
    for dim in (4, 8, 16):
        for order in range(1, 9):
            for norm in (0.01, 0.1, 0.5, 1.0):
                a = random_skew(rng, dim, 1.0)
                b = random_skew(rng, dim, 1.0)
                a *= norm / np.linalg.norm(a)
                b *= norm / np.linalg.norm(b)
                want = dynkin_bch(a, b, order)
                got = truncated_bch(a, b, order)
                gap = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert gap < 1e-13, (dim, order, norm, gap)


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


def test_scipy_optimize_loads_only_for_the_split():
    script = (
        "import sys, numpy as np, kgdecomp, kgdecomp.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "kg = kgdecomp.build_kg_basis(3)\n"
        "kgdecomp.solve_bch_split(np.eye(8), kg.k_set, kg.m_set)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = Path(kgdecomp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    assert out == ["False", "True"]
