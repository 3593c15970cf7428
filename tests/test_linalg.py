"""Linear-algebra primitive tests.

Oracle policy: expm/logm are checked against scipy.linalg (independent
implementations), projections against hand-built decompositions, and
single frozen values are derived in the comments where they appear.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from kgdecomp import (
    BranchAmbiguityWarning,
    DimensionMismatchError,
    NonOrthogonalBasisError,
    NotSkewHermitianError,
    NotUnitaryError,
    SingularMatrixError,
    build_kg_basis,
    commutation_defect,
    eigenphase_mismatch,
    expm_skew,
    logm_unitary,
    nearest_special_unitary,
    pauli_word,
    project_onto_span,
)
from kgdecomp.linalg import expm_skew_many


def random_skew(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a - a.conj().T
    # traceless: drop the imaginary diagonal mean
    a = a - np.trace(a) / dim * np.eye(dim)
    return scale * a


def test_expm_skew_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_skew(rng, 8)
        assert np.linalg.norm(expm_skew(a) - scipy.linalg.expm(a)) < 1e-12


def test_expm_skew_known_rotation():
    # exp((i theta / 2) sigma_z) = diag(e^{i theta/2}, e^{-i theta/2})
    theta = np.pi / 3
    got = expm_skew(theta * pauli_word("Z").matrix)
    want = np.diag([np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)])
    assert np.linalg.norm(got - want) < 1e-15


def test_expm_skew_rejects_non_skew():
    with pytest.raises(NotSkewHermitianError):
        expm_skew(np.eye(2))


def test_expm_skew_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        expm_skew(np.zeros((2, 3)))


def test_expm_skew_many_matches_single():
    rng = np.random.default_rng(2)
    stack = np.stack([random_skew(rng, 4) for _ in range(5)])
    batch = expm_skew_many(stack)
    for i in range(5):
        assert np.linalg.norm(batch[i] - expm_skew(stack[i])) < 1e-13


def test_logm_unitary_round_trip():
    # eigenphases must stay inside (-pi, pi) for the principal branch
    # to invert exactly, so the generator is kept small in spectral norm
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_skew(rng, 8, scale=1.0)
        a = a * (1.0 / np.linalg.norm(a, ord=2))
        assert np.linalg.norm(logm_unitary(expm_skew(a)) - a) < 1e-12


def test_logm_unitary_matches_scipy():
    rng = np.random.default_rng(4)
    u = expm_skew(random_skew(rng, 6, scale=0.2))
    assert np.linalg.norm(logm_unitary(u) - scipy.linalg.logm(u)) < 1e-10


def test_logm_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        logm_unitary(2 * np.eye(2))


def test_logm_unitary_warns_at_branch_cut():
    with pytest.warns(BranchAmbiguityWarning):
        logm_unitary(np.diag([-1.0 + 0j, 1.0]))


def test_logm_unitary_odd_branch_resolves_the_minus_one_cluster():
    # diag(-1, -1, 1, 1) with J swapping the first two basis vectors:
    # the log is i pi J there, which exponentiates back to -1, and no
    # warning is raised for the resolved cluster
    u = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)

    def odd_branch(v):
        return v @ swap @ v.conj().T

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = logm_unitary(u, odd_branch=odd_branch)
    assert np.linalg.norm(scipy.linalg.expm(log) - u) < 1e-12
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = 1j * np.pi * swap
    assert np.linalg.norm(log - want) < 1e-12


def test_project_onto_span_recovers_coordinates():
    w1 = pauli_word("XI")
    w2 = pauli_word("IY")
    off = pauli_word("ZZ")
    x = 2.0 * w1.matrix + 3.0 * w2.matrix + 0.5 * off.matrix
    coords, residual = project_onto_span(x, [w1, w2])
    assert coords == pytest.approx([2.0, 3.0], abs=1e-14)
    # ||0.5 * (i/2) ZZ||_F = 0.5 * 1 = 0.5 since ||(i/2) P||_F = 1 on 2 qubits
    assert np.linalg.norm(residual) == pytest.approx(0.5, abs=1e-14)


def _span_sets(n):
    kg = build_kg_basis(n)
    sets = {
        name: getattr(kg, name)
        for name in ("m_set", "k_set", "k0_set", "k1_set", "h_set", "f_set")
    }
    sets["k1_set+z"] = kg.k1_set + (kg.z_word,)
    return sets


@pytest.mark.parametrize("n", [3, 4])
def test_project_onto_span_matches_lstsq(n):
    # distinct words need no Gram matrix: the coordinates must equal the
    # least-squares solution over the float64 view of the stacked words,
    # and the residual must be trace-orthogonal to every word
    rng = np.random.default_rng(40 + n)
    dim = 2**n
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for name, words in _span_sets(n).items():
        coords, residual = project_onto_span(x, words)
        columns = np.stack([w.matrix for w in words]).reshape(len(words), -1)
        want, *_ = np.linalg.lstsq(
            columns.view(float).T, x.reshape(-1).view(float), rcond=None
        )
        assert np.max(np.abs(coords - want)) < 1e-13, name
        overlaps = columns.view(float) @ residual.reshape(-1).view(float)
        assert np.max(np.abs(overlaps)) < 1e-13, name


def test_project_onto_span_rejects_degenerate_basis():
    for labels in (("XI", "XI"), ("XI", "IY", "XI"), ("XI", "XII")):
        words = [pauli_word(label) for label in labels]
        with pytest.raises(NonOrthogonalBasisError):
            project_onto_span(words[0].matrix, words)
        with pytest.raises(NonOrthogonalBasisError):
            commutation_defect(words[0].matrix, words)


def test_nearest_special_unitary_fixes_scaling_and_phase():
    rng = np.random.default_rng(5)
    base = expm_skew(random_skew(rng, 4, scale=0.4))
    dirty = 1.7 * np.exp(0.3j) * base
    repaired, phase = nearest_special_unitary(dirty)
    assert abs(np.linalg.det(repaired) - 1) < 1e-12
    assert np.linalg.norm(repaired @ repaired.conj().T - np.eye(4)) < 1e-12
    # polar factor of c e^{i phi} U is e^{i phi} U; det-normalizing
    # leaves U times a 4th root of unity, here the identity root
    assert np.linalg.norm(repaired - base * np.exp(1j * (0.3 - phase / 4))) < 1e-12


def test_nearest_special_unitary_rejects_singular():
    with pytest.raises(SingularMatrixError):
        nearest_special_unitary(np.diag([1.0, 0.0]))


def test_commutation_defect_zero_for_commuting():
    z1 = pauli_word("ZI").matrix
    assert commutation_defect(z1, [pauli_word("IZ")]) == 0.0


def test_commutation_defect_known_value():
    # [(i/2)X x I, (i/2)Y x I] = -(i/2) Z x I with Frobenius norm 1
    x = pauli_word("XI").matrix
    assert commutation_defect(x, [pauli_word("YI")]) == pytest.approx(1.0, abs=1e-14)


def test_commutation_defect_averages_over_basis():
    # adding a commuting word halves the defect: sqrt(1)/2
    x = pauli_word("XI").matrix
    words = [pauli_word("YI"), pauli_word("IZ")]
    assert commutation_defect(x, words) == pytest.approx(0.5, abs=1e-14)


def test_commutation_defect_scales_linearly():
    # the commutator is linear in the off-span contamination
    kg = build_kg_basis(3)
    base = 0.4 * pauli_word("XXX").matrix
    noise = pauli_word("ZIX").matrix
    e3 = commutation_defect(base + 1e-3 * noise, kg.h_set)
    e4 = commutation_defect(base + 1e-4 * noise, kg.h_set)
    assert e3 == pytest.approx(10.0 * e4, rel=1e-6)
    assert e3 > 0


def test_eigenphase_mismatch_zero_for_conjugate():
    rng = np.random.default_rng(6)
    u = expm_skew(random_skew(rng, 8, scale=0.5))
    k = expm_skew(random_skew(rng, 8, scale=0.5))
    assert eigenphase_mismatch(u, k @ u @ k.conj().T) < 1e-12


def test_eigenphase_mismatch_known_value():
    # spectra {0, pi/2} vs {0, -pi/2}: best alignment differs by pi/2
    u1 = np.diag([1.0, 1j])
    u2 = np.diag([1.0, -1j])
    assert eigenphase_mismatch(u1, u2) == pytest.approx(np.pi / 2, abs=1e-12)


def test_eigenphase_mismatch_handles_branch_cut():
    # phases +-(pi - eps) straddle the cut; direct sorted comparison
    # would see 2 pi - 2 eps, the cyclic alignment sees 2 eps
    eps = 1e-3
    u1 = np.diag([np.exp(1j * (np.pi - eps)), np.exp(-1j * (np.pi - eps))])
    u2 = np.diag([np.exp(1j * (np.pi - 2 * eps)), np.exp(-1j * (np.pi - 2 * eps))])
    assert eigenphase_mismatch(u1, u2) == pytest.approx(eps, abs=1e-9)
