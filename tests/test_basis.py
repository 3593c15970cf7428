"""Recursive basis tests: cardinalities, orthogonality, involution
eigenvalue partitions, Abelian Cartan sets, and commutator closure.

The expected label sets at n = 3 and 4 are written out by unrolling the
recursion by hand once; the test freezes them.
"""

import numpy as np
import pytest

from kgdecomp import (
    AxisInvolution,
    BadLabelError,
    build_kg_basis,
    order_cartan_basis,
    pauli_word,
    project_onto_span,
)
from kgdecomp.basis import is_cartan_label, word_stack

H3_EXPECTED = ["IIX", "XXX", "YYX", "ZZX"]
F3_EXPECTED = ["XXZ", "YYZ", "ZZZ"]
H4_EXPECTED = ["IIIX", "IIXX", "XXIX", "XXXX", "YYIX", "YYXX", "ZZIX", "ZZXX"]
F4_EXPECTED = ["IIXZ", "XXIZ", "XXXZ", "YYIZ", "YYXZ", "ZZIZ", "ZZXZ"]


def test_pauli_word_matrix_convention():
    # single-qubit X word is (i/2) sigma_x
    got = pauli_word("X").matrix
    want = 0.5j * np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(got, want)


def test_pauli_word_rejects_bad_labels():
    for label in ("", "AB", "xy", "XQ"):
        with pytest.raises(BadLabelError):
            pauli_word(label)


def test_build_rejects_small_n():
    with pytest.raises(ValueError):
        build_kg_basis(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cardinalities(n):
    kg = build_kg_basis(n)
    assert len(kg.m_set) + len(kg.k_set) == 4**n - 1
    if n == 2:
        # seed level: the standard two-qubit Cartan triple, no F or
        # K0/K1 split yet (they first appear at n = 3)
        assert len(kg.h_set) == 3
        assert len(kg.f_set) == 0
        assert len(kg.k0_set) == len(kg.k1_set) == 0
    else:
        assert len(kg.h_set) == 2 ** (n - 1)
        assert len(kg.f_set) == 2 ** (n - 1) - 1
        assert len(kg.k0_set) == len(kg.k1_set) == 4 ** (n - 1) - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_duplicate_labels(n):
    kg = build_kg_basis(n)
    full = [w.label for w in kg.m_set + kg.k_set]
    assert len(full) == len(set(full))


@pytest.mark.parametrize("n", [3, 4])
def test_k_set_union_structure(n):
    kg = build_kg_basis(n)
    central = "I" * (n - 1) + "Z"
    union = {w.label for w in kg.k0_set} | {w.label for w in kg.k1_set} | {central}
    assert {w.label for w in kg.k_set} == union
    assert kg.z_word.label == central


def test_cartan_sets_frozen_labels():
    kg3 = build_kg_basis(3)
    assert [w.label for w in kg3.h_set] == H3_EXPECTED
    assert [w.label for w in kg3.f_set] == F3_EXPECTED
    kg4 = build_kg_basis(4)
    assert [w.label for w in kg4.h_set] == H4_EXPECTED
    assert [w.label for w in kg4.f_set] == F4_EXPECTED


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_is_cartan_label_matches_built_sets(n):
    kg = build_kg_basis(n)
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "IXYZ"]
    for family, expected in (("H", kg.h_set), ("F", kg.f_set)):
        found = [w for w in words if is_cartan_label(w, family, n)]
        assert found == [w.label for w in expected]


def test_is_cartan_label_reads_long_labels():
    # the check once recursed per letter and hit the recursion limit
    assert is_cartan_label("X" * 5000, "H", 5000)
    assert is_cartan_label("X" * 4999 + "Z", "F", 5000)
    assert not is_cartan_label("X" * 4999 + "Y", "H", 5000)


def test_cartan_sets_are_subsets():
    for n in (3, 4):
        kg = build_kg_basis(n)
        m_labels = {w.label for w in kg.m_set}
        k1_labels = {w.label for w in kg.k1_set}
        assert {w.label for w in kg.h_set} <= m_labels
        assert {w.label for w in kg.f_set} <= k1_labels


def test_trace_orthogonality_table_n3_exhaustive():
    # tr(w_p w_q) = -2^(n-2) delta_pq in the (i/2)-normalized basis
    kg = build_kg_basis(3)
    words = kg.m_set + kg.k_set
    mats = np.stack([w.matrix for w in words])
    table = np.einsum("aij,bji->ab", mats, mats)
    want = -2.0 * np.eye(len(words))
    assert np.max(np.abs(table - want)) < 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_involution_eigenvalue_partitions(n):
    inv_z = AxisInvolution(n, "Z")
    inv_x = AxisInvolution(n, "X")
    kg = build_kg_basis(n)
    for w in kg.k_set:
        assert np.array_equal(inv_z.apply(w.matrix), w.matrix), w.label
    for w in kg.m_set:
        assert np.array_equal(inv_z.apply(w.matrix), -w.matrix), w.label
    for w in kg.k0_set:
        assert np.array_equal(inv_x.apply(w.matrix), w.matrix), w.label
    for w in kg.k1_set:
        assert np.array_equal(inv_x.apply(w.matrix), -w.matrix), w.label
    assert np.array_equal(inv_x.apply(kg.z_word.matrix), -kg.z_word.matrix)


def test_seed_partition_is_local_vs_nonlocal():
    # the two-qubit seed splits along locality, not axis conjugation:
    # k words act on one qubit, m words on both (the recursion never
    # applies an axis involution at this level)
    kg = build_kg_basis(2)
    for w in kg.k_set:
        assert sorted(w.label).count("I") == 1, w.label
    for w in kg.m_set:
        assert "I" not in w.label, w.label


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cartan_sets_abelian(n):
    kg = build_kg_basis(n)
    for name in ("h_set", "f_set"):
        words = getattr(kg, name)
        for a in words:
            for b in words:
                comm = a.matrix @ b.matrix - b.matrix @ a.matrix
                assert np.max(np.abs(comm)) < 1e-15, (name, a.label, b.label)


def test_commutator_closure_n3():
    # [k, k] stays in k, [k, m] lands in m, [m, m] lands back in k;
    # closure residuals after projection stay at rounding level
    kg = build_kg_basis(3)
    k_mats = [w.matrix for w in kg.k_set]
    m_mats = [w.matrix for w in kg.m_set]

    def worst(pairs, span):
        out = 0.0
        for a, b in pairs:
            comm = a @ b - b @ a
            _, residual = project_onto_span(comm, span)
            out = max(out, float(np.linalg.norm(residual)))
        return out

    kk = [(a, b) for a in k_mats for b in k_mats]
    km = [(a, b) for a in k_mats for b in m_mats]
    mm = [(a, b) for a in m_mats for b in m_mats]
    assert worst(kk, kg.k_set) < 1e-12
    assert worst(km, kg.m_set) < 1e-12
    assert worst(mm, kg.k_set) < 1e-12


def test_m_set_recursion_entry_points():
    kg = build_kg_basis(3)
    labels = [w.label for w in kg.m_set]
    assert labels[0] == "IIX"
    assert labels[1] == "IIY"
    assert "XXX" in labels and "ZZX" in labels


def test_order_cartan_basis_sorts_by_label():
    kg = build_kg_basis(3)
    shuffled = (kg.h_set[2], kg.h_set[0], kg.h_set[3], kg.h_set[1])
    assert [w.label for w in order_cartan_basis(shuffled)] == H3_EXPECTED


def test_basis_words_have_matching_length():
    kg = build_kg_basis(4)
    for w in kg.m_set + kg.k_set:
        assert len(w.label) == 4
        assert w.matrix.shape == (16, 16)


def test_word_stack_is_cached_and_read_only():
    kg = build_kg_basis(3)
    stack = word_stack(kg.h_set)
    # an equal tuple built afresh hits the same cache entry
    assert word_stack(tuple(list(kg.h_set))) is stack
    assert np.array_equal(stack, np.stack([w.matrix for w in kg.h_set]))
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0

