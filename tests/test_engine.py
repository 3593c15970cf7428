"""Engine tests: stage identities, the torus formulas against word-stack
oracles, the Newton step kept for the benchmark's spans,
construct-then-recover properties, extraction patterns, and the full
recursion on registers of up to seven qubits."""

import warnings

import numpy as np
import pytest

from kgdecomp import (
    AxisInvolution,
    DimensionMismatchError,
    FactorKind,
    FactorTree,
    NotTensorWithIdentityError,
    NotUnitaryError,
    OptimizerFailedError,
    ReconstructionError,
    SubspaceViolationError,
    Tolerances,
    build_kg_basis,
    compute_m,
    decompose_full,
    decompose_one_level,
    eigenphase_mismatch,
    expand,
    expm_skew,
    extract_last_qubit,
    extract_subunitary,
    haar_special_unitary,
    khk_stage,
    pauli_word,
    product,
    residual_k,
)
from kgdecomp import basis as basis_module
from kgdecomp.basis import binary_weights, cartan_torus, word_stack
from kgdecomp import engine, linalg
from kgdecomp import factors as factors_module
from kgdecomp.config import DEFAULT_TOLS, SUBSPACE_TOL
from kgdecomp.engine import _minimize_full, _newton_polish
from kgdecomp.linalg import AlgebraElement, as_matrix
from tree_digests import _special, structured_gates


def random_span_element(rng, words, scale=0.3):
    coords = rng.uniform(-scale, scale, len(words))
    return sum(c * w.matrix for c, w in zip(coords, words))


def random_k_unitary(rng, kg, scale=0.4):
    return expm_skew(random_span_element(rng, kg.k_set, scale))


def test_newton_step_solves_the_residual_jacobian(monkeypatch):
    # With D the part of h diagonal in v's eigenbasis B (its Cartan
    # projection), K <- K exp(delta) moves h by -[delta, h] to first
    # order, and the step must solve the Newton equation at D,
    # [delta, D] = h - D, with delta in k. Near a Cartan element every
    # gap of D is open, so the k-projection of the step loses nothing.
    rng = np.random.default_rng(15)
    kg = build_kg_basis(3)
    inv = AxisInvolution(3, "Z")
    torus = np.linalg.eigh(-1j * cartan_torus("H", 3).v)
    basis = torus[1]
    k = random_k_unitary(rng, kg, scale=1e-2)
    h = k.conj().T @ random_span_element(rng, kg.h_set, 0.4) @ k
    cartan_part = basis @ np.diag(np.diag(basis.conj().T @ h @ basis)) @ basis.conj().T

    steps = []
    monkeypatch.setattr(engine, "expm_skew", lambda a: steps.append(a) or expm_skew(a))
    _newton_polish(np.eye(8, dtype=complex), h, torus, (inv,), 1)
    (delta,) = steps

    assert 1e-4 < np.linalg.norm(delta) < 1.0  # an unclipped step
    assert np.linalg.norm(inv.apply(delta) - delta) < 1e-14
    assert np.linalg.norm(delta + delta.conj().T) < 1e-14
    bracket = delta @ cartan_part - cartan_part @ delta
    assert np.linalg.norm(bracket - (h - cartan_part)) < 1e-12


def test_compute_m_recovers_constructed_split():
    rng = np.random.default_rng(0)
    kg = build_kg_basis(3)
    inv = AxisInvolution(3, "Z")
    for _ in range(5):
        m_true = random_span_element(rng, kg.m_set, scale=0.2)
        k_true = random_k_unitary(rng, kg)
        g = k_true @ expm_skew(m_true)
        m = compute_m(g, inv)
        assert np.linalg.norm(m.matrix - m_true) < 1e-10
        assert m.residual_norm < 1e-12
        k_back = residual_k(g, m)
        assert np.linalg.norm(k_back - k_true) < 1e-10


def test_compute_m_involution_identity():
    rng = np.random.default_rng(1)
    inv = AxisInvolution(3, "Z")
    g = haar_special_unitary(3, rng)
    m = compute_m(g, inv)
    w = inv.apply(g.conj().T) @ g
    assert np.linalg.norm(expm_skew(2.0 * m.matrix) - w) < 1e-12


@pytest.mark.parametrize("name", ["toffoli", "ccz", "qft3", "swap13", "xxx", "iiz"])
def test_compute_m_is_theta_odd_on_structured_gates(name):
    # theta(g^dag) g has the eigenvalue -1 on these gates, where the
    # principal log is theta-even; both stages' logs must stay odd
    (g,) = [_special(u) for label, u, _ in structured_gates() if label == name]
    inv_z, inv_x = AxisInvolution(3, "Z"), AxisInvolution(3, "X")
    m_z = compute_m(g, inv_z)
    k0 = residual_k(g, m_z)
    m_x = compute_m(k0, inv_x, (inv_z,))
    for x, inv, m in ((g, inv_z, m_z), (k0, inv_x, m_x)):
        w = inv.apply(x.conj().T) @ x
        assert np.linalg.norm(expm_skew(2.0 * m.matrix) - w) < 1e-10
        assert np.linalg.norm(inv.apply(m.matrix) + m.matrix) < 1e-12
        assert m.residual_norm <= SUBSPACE_TOL


def test_compute_m_rejects_non_unitary():
    inv = AxisInvolution(3, "Z")
    with pytest.raises(NotUnitaryError):
        compute_m(1.5 * np.eye(8), inv)


def test_compute_m_rejects_a_log_off_its_subspace():
    # a Haar input is not fixed by theta_Z, so its theta_X log has a large
    # theta_Z-odd part, which the theta_X stage's fixing must refuse
    g = haar_special_unitary(3, np.random.default_rng(2))
    inv_z, inv_x = AxisInvolution(3, "Z"), AxisInvolution(3, "X")
    assert compute_m(g, inv_x).residual_norm < 1e-12
    with pytest.raises(SubspaceViolationError):
        compute_m(g, inv_x, (inv_z,))


def test_minimize_to_cartan_recovers_spectrum():
    rng = np.random.default_rng(3)
    kg = build_kg_basis(3)
    for trial in range(5):
        h_true = random_span_element(rng, kg.h_set, scale=0.4)
        k_prime = random_k_unitary(rng, kg)
        m0_mat = k_prime @ h_true @ k_prime.conj().T
        m0 = AlgebraElement(matrix=m0_mat)
        k1, h, _ = _minimize_full(m0, cartan_torus("H", 3))
        assert h.residual_norm < 1e-10
        assert eigenphase_mismatch(expm_skew(h.matrix), expm_skew(h_true)) < 1e-8
        conj = k1.conj().T @ m0_mat @ k1
        assert np.linalg.norm(conj - h.matrix) < 1e-9


def test_minimize_to_cartan_zero_input_short_circuits():
    m0 = AlgebraElement(matrix=np.zeros((8, 8), dtype=complex))
    k1, h, _ = _minimize_full(m0, cartan_torus("H", 3))
    assert np.array_equal(k1, np.eye(8))
    assert np.linalg.norm(h.matrix) == 0.0


def test_minimize_to_cartan_rounding_level_input_counts_as_zero():
    # a stage input at rounding level, such as the 3.2e-12 one of
    # clifford-n4-08 in tests/structured_sweep.py, has no Cartan direction
    # worth solving for
    rng = np.random.default_rng(18)
    kg = build_kg_basis(3)
    m0 = random_span_element(rng, kg.k1_set)
    m0 = AlgebraElement(matrix=1e-11 * m0 / np.linalg.norm(m0))
    k1, h, _ = _minimize_full(m0, cartan_torus("F", 3))
    assert np.array_equal(k1, np.eye(8))
    assert np.linalg.norm(h.matrix) == 0.0


def test_minimize_to_cartan_failure_carries_best():
    # XXI is theta_Z-even, so no element of exp(k) conjugates it into the
    # theta_Z-odd span of H_3: the projection residual stays ||m0||
    m0 = AlgebraElement(matrix=0.7 * pauli_word("XXI").matrix)
    with pytest.raises(OptimizerFailedError) as info:
        _minimize_full(m0, cartan_torus("H", 3))
    best_k1, best_h = info.value.best
    assert best_k1.shape == (8, 8)
    assert isinstance(best_h, AlgebraElement)
    assert best_h.residual_norm == pytest.approx(np.linalg.norm(m0.matrix), rel=1e-12)
    # the message says how close the solution got
    assert "relative commutator" in str(info.value)
    assert "projection residual 9.899e-01" in str(info.value)


@pytest.mark.parametrize("family", ["h", "f"])
def test_minimize_to_cartan_keeps_an_in_span_input(family):
    # an m0 already in the span needs no rotation: K1 = I exactly, and h
    # carries m0's own coordinates
    rng = np.random.default_rng(19)
    torus = cartan_torus(family.upper(), 4)
    coords = rng.uniform(-0.5, 0.5, len(torus.labels))
    m0 = sum(c * pauli_word(label).matrix for c, label in zip(coords, torus.labels))
    k1, h, _ = _minimize_full(AlgebraElement(matrix=m0), torus)
    assert np.array_equal(k1, np.eye(16))
    assert np.allclose(h.coords, coords, rtol=0.0, atol=1e-14)


def test_minimize_to_cartan_gauge_keeps_a_degenerate_rotation_small():
    # m0 = a IIX + b IIY has one singular value of multiplicity 4, so the
    # SVD alone leaves K1 = diag(A, B) free up to a common 4 x 4 unitary;
    # the cluster gauge must pick the rotation on the last qubit alone,
    # K1 = I (x) diag(e^{i beta}, e^{-i beta}), as the A (x) B inputs of
    # tests/structured_sweep.py need for their identity factors
    m0 = 0.4 * pauli_word("IIX").matrix + 0.3 * pauli_word("IIY").matrix
    k1, h, _ = _minimize_full(AlgebraElement(matrix=m0), cartan_torus("H", 3))
    top, bottom = np.diag(k1)[0::2], np.diag(k1)[1::2]
    assert np.linalg.norm(k1 - np.diag(np.diag(k1))) < 1e-14
    assert np.ptp(top) < 1e-14 and np.ptp(bottom) < 1e-14
    assert abs(top[0] * bottom[0] - 1.0) < 1e-14
    assert np.allclose(h.coords, (0.5, 0.0, 0.0, 0.0), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", ["h", "f"])
def test_torus_formulas_match_word_stack_oracles(family, n):
    # a seeded span element plus off-span noise, with the words shuffled:
    # the torus's coordinates, residual, E_s and relative commutator
    # match the word-stack projection, commutation_defect and the
    # matrix formula ||[v, x]|| / (||v|| ||x||)
    rng = np.random.default_rng(100 * n + (family == "f"))
    kg = build_kg_basis(n)
    torus = cartan_torus(family.upper(), n)
    canonical = tuple(pauli_word(label) for label in torus.labels)
    words = tuple(canonical[i] for i in rng.permutation(len(canonical)))
    rows = torus.rows_of(word.label for word in words)
    v = np.tensordot(binary_weights(torus.labels), word_stack(canonical), axes=1)
    noise = random_span_element(rng, kg.m_set + kg.k_set)
    noise /= np.linalg.norm(noise)
    for eps in (0.0, 1e-9, 1e-3, 1.0):
        x = random_span_element(rng, words, scale=0.8) + eps * noise
        xt = torus.q.conj().T @ x @ torus.q
        c, p, residual_norm = engine._torus_split(xt, torus)
        coords, residual = linalg.project_onto_span(x, words)
        assert np.max(np.abs(c[rows] - coords)) <= 1e-13
        assert abs(residual_norm - np.linalg.norm(residual)) <= 1e-13
        assert np.linalg.norm(
            (torus.q * (1j * p)) @ torus.q.conj().T - (x - residual)
        ) <= 1e-13
        es = linalg.commutation_defect(x, words)
        assert abs(engine._subspace_error(xt, torus) - es) <= 1e-13
        rel = np.linalg.norm(v @ x - x @ v) / (np.linalg.norm(v) * np.linalg.norm(x))
        assert abs(engine._relative_commutator(xt, torus) - rel) <= 1e-13
        # the central word I..IZ splits off by its diagonal
        (alpha,), rest = linalg.project_onto_span(x, (kg.z_word,))
        alpha_t, rest_t = engine._central_split(x)
        assert abs(alpha_t - alpha) <= 1e-13
        assert np.linalg.norm(rest_t - rest) <= 1e-13


def _closed_form_k_by_cluster_svds(m0_mat, torus):
    # reference: the closed form with one polar SVD per value cluster,
    # singletons included
    u = torus.u
    if torus.name[0] == "H":
        v1, values, v2h = np.linalg.svd(-1j * m0_mat[0::2, 1::2])
        v2 = v2h.conj().T
    else:
        values, v1 = np.linalg.eigh(-1j * m0_mat[0::2, 0::2])
        v2 = v1
    overlap = u.conj().T @ (v1 + v2)
    rotation = np.zeros_like(overlap)
    tol = engine._CLUSTER_TOL * np.max(np.abs(values))
    cuts = np.flatnonzero(np.abs(np.diff(values)) > tol) + 1
    for run in np.split(np.arange(len(values)), cuts):
        w, _, zh = np.linalg.svd(overlap[np.ix_(run, run)])
        rotation[np.ix_(run, run)] = zh.conj().T @ w.conj().T
    half = u.shape[0]
    k = np.zeros((2 * half, 2 * half), dtype=complex)
    k[0::2, 0::2] = v1 @ rotation @ u.conj().T
    k[1::2, 1::2] = v2 @ rotation @ u.conj().T
    det = np.linalg.det(k[0::2, 0::2]) * np.linalg.det(k[1::2, 1::2])
    return k * np.exp(-1j * np.angle(det) / (2 * half))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_singleton_gauge_matches_cluster_svds(monkeypatch, n):
    # a Haar stage has only singleton value clusters, whose polar factor
    # _closed_form_k sets as conj(o) / |o| without an SVD
    stages = []
    solve = engine._minimize_full

    def recording_solve(m0, torus):
        stages.append((as_matrix(m0), torus))
        return solve(m0, torus)

    monkeypatch.setattr(engine, "_minimize_full", recording_solve)
    decompose_full(haar_special_unitary(n, np.random.default_rng(n)), n)
    assert {int(torus.name[1:]) for _, torus in stages} == set(range(3, n + 1))
    for m0_mat, torus in stages:
        want = _closed_form_k_by_cluster_svds(m0_mat, torus)
        assert np.max(np.abs(engine._closed_form_k(m0_mat, torus) - want)) <= 1e-13


def test_newton_polish_evaluates_its_last_step():
    # m0 = k h k^dag with k a 1e-3 rotation: K = I is off by ~1e-3 and
    # the one allowed Newton step lands much closer, so it must be kept
    rng = np.random.default_rng(17)
    kg = build_kg_basis(3)
    h_true = random_span_element(rng, kg.h_set, scale=0.4)
    k = random_k_unitary(rng, kg, scale=1e-3)
    m0 = k @ h_true @ k.conj().T
    v = cartan_torus("H", 3).v
    torus = np.linalg.eigh(-1j * v)
    rel_identity = np.linalg.norm(v @ m0 - m0 @ v) / (
        np.linalg.norm(v) * np.linalg.norm(m0)
    )
    eye = np.eye(8, dtype=complex)
    best_k, rel, steps = _newton_polish(eye, m0, torus, (AxisInvolution(3, "Z"),), 1)
    assert steps == 1
    assert not np.array_equal(best_k, eye)
    # a Newton step: the defect of the 1e-3 start falls quadratically
    assert rel < 1e-2 * rel_identity


def test_khk_stage_reconstructs():
    rng = np.random.default_rng(5)
    kg = build_kg_basis(3)
    inv = AxisInvolution(3, "Z")
    g = haar_special_unitary(3, rng)
    stage = khk_stage(g, inv, kg.h_set)
    k1h = stage.k1 @ expm_skew(stage.h.matrix) @ stage.k1.conj().T
    assert np.linalg.norm(g - stage.k0 @ k1h) < 1e-10


@pytest.mark.parametrize("axis, family", [("X", "h"), ("Z", "f"), ("Z", "h-reversed")])
def test_khk_stage_refuses_other_pairs(axis, family):
    # the closed form solves only the theta_Z stage against H_n, and its
    # coordinates come in canonical order, so a reordered H_n is refused
    kg = build_kg_basis(3)
    cartan = {"h": kg.h_set, "f": kg.f_set, "h-reversed": kg.h_set[::-1]}[family]
    g = haar_special_unitary(3, np.random.default_rng(5))
    with pytest.raises(ValueError, match="pairs theta_Z with H_3"):
        khk_stage(g, AxisInvolution(3, axis), cartan)


def test_secondary_m_pair_involution_identities():
    rng = np.random.default_rng(6)
    kg = build_kg_basis(3)
    inv_z = AxisInvolution(3, "Z")
    inv_x = AxisInvolution(3, "X")
    g = haar_special_unitary(3, rng)
    stage = khk_stage(g, inv_z, kg.h_set)
    w = stage.k0 @ stage.k1
    k01_dag = stage.k1.conj().T
    m1 = compute_m(w, inv_x, (inv_z,))
    m2 = compute_m(k01_dag, inv_x, (inv_z,))
    assert np.linalg.norm(
        expm_skew(2 * m1.matrix) - inv_x.apply(w.conj().T) @ w
    ) < 1e-12
    assert np.linalg.norm(
        expm_skew(2 * m2.matrix) - inv_x.apply(k01_dag.conj().T) @ k01_dag
    ) < 1e-12


def test_secondary_stage_reconstructs_its_input():
    kg = build_kg_basis(3)
    inv_x = AxisInvolution(3, "X")
    g = haar_special_unitary(3, np.random.default_rng(7))
    stage = khk_stage(g, AxisInvolution(3, "Z"), kg.h_set)
    for w in (stage.k0 @ stage.k1, stage.k1.conj().T):
        factors, phi, psi, _ = engine._secondary_stage(w, 3, inv_x)
        assert [f.kind for f in factors] == [
            FactorKind.SUB_UNITARY, FactorKind.CARTAN_EXP,
            FactorKind.SUB_UNITARY, FactorKind.LAST_QUBIT,
        ]
        rebuilt = product(FactorTree(3, phi - psi, factors))
        assert np.linalg.norm(rebuilt - w) < 1e-10


def test_extract_subunitary_round_trip():
    rng = np.random.default_rng(8)
    a = haar_special_unitary(2, rng)
    phase = 2.0 * np.pi / 13.0
    k = np.exp(1j * phase) * np.kron(a, np.eye(2))
    sub, phi = extract_subunitary(k, 3)
    assert abs(np.linalg.det(sub) - 1) < 1e-12
    assert np.linalg.norm(np.exp(1j * phi) * np.kron(sub, np.eye(2)) - k) < 1e-12


def test_extract_subunitary_rejects_entangling_matrix():
    rng = np.random.default_rng(9)
    with pytest.raises(NotTensorWithIdentityError):
        extract_subunitary(haar_special_unitary(3, rng), 3)


def test_extract_subunitary_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        extract_subunitary(np.eye(8), 4)


def test_extract_last_qubit_known_diagonal():
    kg = build_kg_basis(3)
    alpha = 0.8
    got = extract_last_qubit(alpha * kg.z_word.matrix, 3)
    want = np.diag([np.exp(0.5j * alpha), np.exp(-0.5j * alpha)])
    assert np.linalg.norm(got - want) < 1e-14


def test_extract_last_qubit_rejects_off_center():
    with pytest.raises(SubspaceViolationError):
        extract_last_qubit(pauli_word("XXX").matrix, 3)


def test_decompose_one_level_shape_and_reconstruction():
    rng = np.random.default_rng(10)
    g = haar_special_unitary(3, rng)
    level = decompose_one_level(g, 3)
    kinds = [f.kind for f in level.factors]
    assert kinds == [
        FactorKind.SUB_UNITARY, FactorKind.CARTAN_EXP, FactorKind.SUB_UNITARY,
        FactorKind.LAST_QUBIT, FactorKind.CARTAN_EXP, FactorKind.SUB_UNITARY,
        FactorKind.CARTAN_EXP, FactorKind.SUB_UNITARY, FactorKind.LAST_QUBIT,
    ]
    assert [f.basis_name for f in level.factors if f.coeffs] == ["F3", "H3", "F3"]
    out = np.exp(1j * level.phase) * np.eye(8, dtype=complex)
    for f in level.factors:
        out = out @ expand(f, 3)
    assert np.linalg.norm(g - out) < 1e-10
    assert [lbl for lbl, _ in level.subspace_errors] == ["f0[F3]", "h[H3]", "f1[F3]"]


def test_decompose_one_level_rejects_small_n():
    with pytest.raises(ValueError):
        decompose_one_level(np.eye(4), 2)


def test_decompose_full_base_case_passthrough():
    rng = np.random.default_rng(11)
    g = haar_special_unitary(2, rng)
    tree = decompose_full(g, 2)
    assert len(tree.factors) == 1
    assert tree.factors[0].kind is FactorKind.SUB_UNITARY
    assert tree.factors[0].level_qubits == 3
    assert np.linalg.norm(product(tree) - g) < 1e-14


def test_decompose_full_identity_input():
    tree = decompose_full(np.eye(8, dtype=complex), 3)
    assert tree.report.approx_error < 1e-12


def test_decompose_full_su8_tree_shape():
    rng = np.random.default_rng(12)
    g = haar_special_unitary(3, rng)
    tree = decompose_full(g, 3)
    assert len(tree.factors) == 9
    assert tree.report.approx_error < 1e-10
    assert len(tree.report.subspace_errors) == 3
    # the closed-form stages take no iterations and report none
    assert tree.report.optimizer_stats == ()


def test_decompose_full_su16_recurses_fully():
    rng = np.random.default_rng(13)
    g = haar_special_unitary(4, rng)
    tree = decompose_full(g, 4)
    # 9 top-level slots, each SubUnitary replaced by its own 9 factors
    assert len(tree.factors) == 4 * 9 + 5
    assert all(
        f.level_qubits == 3
        for f in tree.factors
        if f.kind is FactorKind.SUB_UNITARY
    )
    assert tree.report.approx_error < 1e-9
    labels = [lbl for lbl, _ in tree.report.subspace_errors]
    assert "K0/h[H3]" in labels and "K3/f1[F3]" in labels
    assert np.linalg.norm(product(tree) - g) == pytest.approx(
        tree.report.approx_error, abs=1e-12
    )


def test_decompose_full_gates_reconstruction_through_product(monkeypatch):
    # the E_a gate applies each factor as a block; no factor is padded
    def padded(*_args):
        raise AssertionError("expand called in the E_a gate")

    monkeypatch.setattr(engine, "expand", padded)
    monkeypatch.setattr(factors_module, "expand", padded)
    g = haar_special_unitary(4, np.random.default_rng(17))
    tree = decompose_full(g, 4)
    assert tree.report.approx_error == float(np.linalg.norm(g - product(tree)))


def test_decompose_full_su32_haar():
    g = haar_special_unitary(5, np.random.default_rng(0))
    tree = decompose_full(g, 5)
    assert tree.report.approx_error <= DEFAULT_TOLS.reconstruct_bound(5)
    assert np.linalg.norm(product(tree) - g) == pytest.approx(
        tree.report.approx_error, abs=1e-12
    )


def test_decompose_full_su64_haar():
    g = haar_special_unitary(6, np.random.default_rng(0))
    tree = decompose_full(g, 6)
    assert tree.report.approx_error <= DEFAULT_TOLS.reconstruct_bound(6)


@pytest.mark.slow
def test_decompose_full_su128_haar():
    g = haar_special_unitary(7, np.random.default_rng(0))
    tree = decompose_full(g, 7)
    assert tree.report.approx_error <= DEFAULT_TOLS.reconstruct_bound(7)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("scale", [1e-9, 1e-8])
def test_near_identity_input_decomposes(n, scale):
    # stage inputs of norm ~scale, just above the zero cutoff: the value
    # clusters of the closed form must scale with the input, or every
    # distinct singular value or eigenvalue falls into one cluster
    dim = 2**n
    rng = np.random.default_rng(0)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = a - a.conj().T
    x -= np.trace(x) / dim * np.eye(dim)
    x /= np.linalg.norm(x)
    tree = decompose_full(expm_skew(scale * x), n)
    assert tree.report.approx_error <= DEFAULT_TOLS.reconstruct_bound(n)


@pytest.mark.parametrize(
    "label, angle", [("XIX", 0.3), ("IXX", 2.5), ("ZIZ", 0.3), ("ZIZ", 2.5)]
)
def test_degenerate_pauli_exponentials_decompose(label, angle):
    # each nonzero stage input of these gates has repeated singular
    # values or eigenvalues, so its solve relies on the cluster gauge
    g = expm_skew(angle * pauli_word(label).matrix)
    tree = decompose_full(g, 3)
    assert tree.report.approx_error <= 1e-10


@pytest.mark.parametrize("n", [4, 5])
def test_cartan_coordinates_are_stable_under_rounding(n):
    # the closed-form stages are continuous in g for generic inputs, so a
    # 1e-14 perturbation moves every Cartan coordinate by rounding only.
    # The global phase may still jump by a root of unity and is not
    # compared.
    dim = 2**n
    for seed in range(4):
        rng = np.random.default_rng(seed)
        g = haar_special_unitary(n, rng)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = a - a.conj().T
        x -= np.trace(x) / dim * np.eye(dim)
        x /= np.linalg.norm(x)
        coords = []
        for u in (g, g @ expm_skew(1e-14 * x)):
            tree = decompose_full(u, n)
            coords.append([c for f in tree.factors if f.coeffs for _, c in f.coeffs])
        assert np.max(np.abs(np.subtract(*coords))) <= 1e-9, seed


def test_decompose_full_and_product_stack_no_words(monkeypatch):
    # the Cartan words are reached through their tori and every other
    # subspace by involution averages, so no word stack is ever built,
    # and the engine never builds the level's full word basis
    def refuse(words):
        raise AssertionError(f"stacked {len(tuple(words))} words")

    def refuse_basis(n):
        raise AssertionError(f"built the {4**n - 1} words of level {n}")

    for module in (basis_module, linalg, engine, factors_module):
        monkeypatch.setattr(module, "word_stack", refuse, raising=False)
    monkeypatch.setattr(engine, "build_kg_basis", refuse_basis)
    g = haar_special_unitary(5, np.random.default_rng(0))
    tree = decompose_full(g, 5)
    assert np.linalg.norm(product(tree) - g) < 1e-12


def test_decompose_full_enforces_reconstruction_bound():
    g = haar_special_unitary(3, np.random.default_rng(16))
    with pytest.raises(ReconstructionError, match="exceeds 1.000e-30"):
        decompose_full(g, 3, tols=Tolerances(reconstruct=1e-30))
    # a NaN bound would pass every tree and a non-positive one fail all
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            Tolerances(reconstruct=bad)


@pytest.mark.parametrize("name", ["structure", "cartan", "subspace", "pattern"])
def test_fixed_tolerances_are_not_settable(name):
    with pytest.raises(TypeError):
        Tolerances(**{name: 1e-6})


def test_decompose_full_validates_input():
    with pytest.raises(DimensionMismatchError):
        decompose_full(np.eye(8), 4)
    with pytest.raises(NotUnitaryError):
        decompose_full(1.01 * np.eye(8), 3)
    # rejected before any det is taken, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitaryError, match="non-finite"):
            decompose_full(np.full((8, 8), np.nan), 3)
    with pytest.raises(ValueError):
        decompose_full(np.eye(2), 1)
