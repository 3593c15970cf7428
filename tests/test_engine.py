"""Engine tests: objective oracle values, stage identities,
construct-then-recover properties, extraction patterns, and the full
recursion on small registers."""

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
    build_v,
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
    objective,
    pauli_word,
    product,
    residual_k,
)
from kgdecomp import basis as basis_module
from kgdecomp import engine, linalg
from kgdecomp import factors as factors_module
from kgdecomp.config import CARTAN_TOL, DEFAULT_TOLS, SUBSPACE_TOL
from kgdecomp.engine import _minimize_full, _newton_polish
from kgdecomp.linalg import AlgebraElement
from tree_digests import _special, structured_gates


def random_span_element(rng, words, scale=0.3):
    coords = rng.uniform(-scale, scale, len(words))
    return sum(c * w.matrix for c, w in zip(coords, words))


def random_k_unitary(rng, kg, scale=0.4):
    return expm_skew(random_span_element(rng, kg.k_set, scale))


def test_build_v_weights_and_norm():
    # sorted H3 is (IIX, XXX, YYX, ZZX) and ZZX = XXX YYX IIX up to phase
    kg = build_kg_basis(3)
    v = build_v(kg.h_set)
    assert v.coords == (1.0, 2.0, 4.0, 0.0)
    # ||v||^2 = 2^(n-2) * sum w_i^2 since ||w||^2 = 2^(n-2)
    assert np.linalg.norm(v.matrix) ** 2 == pytest.approx(2.0 * 21.0, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_build_v_binary_weights_make_v_regular(n):
    kg = build_kg_basis(n)
    if n == 4:
        assert build_v(kg.h_set).coords == (1, 2, 4, 0, 8, 0, 0, 0)
        assert build_v(kg.f_set).coords == (1, 2, 4, 8, 0, 0, 0)
    for cartan in (kg.h_set, kg.f_set):
        v = build_v(cartan)
        assert sorted(c for c in v.coords if c) == [2.0**i for i in range(n)]
        # 2^n distinct eigenvalues with gap 1: [v, h] = 0 exactly when h
        # is diagonal in v's eigenbasis
        eig = np.linalg.eigvalsh(-1j * v.matrix)
        assert np.min(np.diff(eig)) == pytest.approx(1.0, abs=1e-9)


def test_objective_frozen_value():
    # theta = 0 leaves m0 in place; with m0 = u_XXX - u_ZZX and weights
    # (1, 2, 4, 0) on sorted H3, f = 16 (2 tr(u^2) - 0 tr(u^2)) and
    # tr(u^2) = -2, giving -64
    kg = build_kg_basis(3)
    m0 = AlgebraElement(
        matrix=pauli_word("XXX").matrix - pauli_word("ZZX").matrix
    )
    v = build_v(kg.h_set)
    theta = np.zeros(len(kg.k_set))
    got = objective(v, m0, theta, kg.k_set)
    assert got == pytest.approx(-64.0, rel=1e-12)


def test_objective_invariant_under_full_torus_turn():
    # 4 pi on the central word exponentiates to the identity, so the
    # objective must return to its theta = 0 value exactly
    kg = build_kg_basis(3)
    m0 = AlgebraElement(
        matrix=pauli_word("XXX").matrix - pauli_word("ZZX").matrix
    )
    v = build_v(kg.h_set)
    theta0 = np.zeros(len(kg.k_set))
    theta1 = np.zeros(len(kg.k_set))
    z_index = [w.label for w in kg.k_set].index("IIZ")
    theta1[z_index] = 4.0 * np.pi
    assert objective(v, m0, theta1, kg.k_set) == pytest.approx(
        objective(v, m0, theta0, kg.k_set), rel=1e-12
    )


def test_objective_rejects_wrong_theta_shape():
    kg = build_kg_basis(3)
    v = build_v(kg.h_set)
    m0 = AlgebraElement(matrix=pauli_word("XXX").matrix)
    with pytest.raises(DimensionMismatchError):
        objective(v, m0, np.zeros(3), kg.k_set)


def test_newton_residual_is_scaled_objective_gradient():
    # On the chart K <- K exp(t k_j) the objective's derivative is
    # c_N Re tr(k_j [v, h]), so the k-coordinates of [v, h] that the
    # Newton step drives to zero are -grad_j / (c_N ||k_j||^2). With
    # h = K^dag m0 K as the objective's m0, theta = +-eps e_j evaluates
    # f at K exp(+-eps k_j).
    rng = np.random.default_rng(15)
    kg = build_kg_basis(3)
    v = build_v(kg.h_set)
    m0 = random_span_element(rng, kg.m_set)
    k = random_k_unitary(rng, kg)
    h = AlgebraElement(matrix=k.conj().T @ m0 @ k)
    k_stack = np.stack([w.matrix for w in kg.k_set])
    norms2 = np.linalg.norm(k_stack, axis=(1, 2)) ** 2
    comm = v.matrix @ h.matrix - h.matrix @ v.matrix
    residual = np.einsum("qji,ji->q", k_stack.conj(), comm).real / norms2

    c_n = 2.0 * 8
    eps = 1e-5
    grad = np.empty(len(kg.k_set))
    for j in range(len(kg.k_set)):
        step = np.zeros(len(kg.k_set))
        step[j] = eps
        grad[j] = (
            objective(v, h, step, kg.k_set) - objective(v, h, -step, kg.k_set)
        ) / (2.0 * eps)
    want = -grad / (c_n * norms2)
    assert np.max(np.abs(want)) > 1e-2
    assert np.allclose(residual, want, rtol=0.0, atol=1e-7 * np.max(np.abs(want)))


def test_newton_step_solves_the_residual_jacobian(monkeypatch):
    # With D the part of h diagonal in v's eigenbasis B (its Cartan
    # projection), K <- K exp(delta) moves h by -[delta, h] to first
    # order, and the step must solve the Newton equation at D,
    # [delta, D] = h - D, with delta in k. Near a Cartan element every
    # gap of D is open, so the k-projection of the step loses nothing.
    rng = np.random.default_rng(15)
    kg = build_kg_basis(3)
    inv = AxisInvolution(3, "Z")
    torus = np.linalg.eigh(-1j * build_v(kg.h_set).matrix)
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
        k1, h, _, _ = _minimize_full(m0, kg.h_set, (AxisInvolution(3, "Z"),))
        assert h.residual_norm < 1e-10
        assert eigenphase_mismatch(expm_skew(h.matrix), expm_skew(h_true)) < 1e-8
        conj = k1.conj().T @ m0_mat @ k1
        assert np.linalg.norm(conj - h.matrix) < 1e-9


def test_minimize_to_cartan_zero_input_short_circuits():
    kg = build_kg_basis(3)
    m0 = AlgebraElement(matrix=np.zeros((8, 8), dtype=complex))
    k1, h, _, _ = _minimize_full(m0, kg.h_set, (AxisInvolution(3, "Z"),))
    assert np.array_equal(k1, np.eye(8))
    assert np.linalg.norm(h.matrix) == 0.0


def test_minimize_to_cartan_rounding_level_input_counts_as_zero():
    # a stage input at rounding level has no Cartan direction worth a
    # Newton solve: one on the 3.2e-12 stage input of clifford-n4-08 in
    # tests/structured_sweep.py ends in OptimizerFailedError
    rng = np.random.default_rng(18)
    kg = build_kg_basis(3)
    m0 = random_span_element(rng, kg.k1_set)
    m0 = AlgebraElement(matrix=1e-11 * m0 / np.linalg.norm(m0))
    fixing = (AxisInvolution(3, "Z"), AxisInvolution(3, "X"))
    k1, h, steps, _ = _minimize_full(m0, kg.f_set, fixing)
    assert np.array_equal(k1, np.eye(8))
    assert np.linalg.norm(h.matrix) == 0.0
    assert steps == 0


def test_minimize_to_cartan_keeps_the_given_cartan_order():
    # coords follow the words as passed, so a reversed set must give
    # reversed-order coords that still rebuild h; the optimizer once
    # sorted the set and returned coords in the sorted order
    rng = np.random.default_rng(5)
    kg = build_kg_basis(3)
    cartan = tuple(reversed(kg.h_set))
    k_prime = random_k_unitary(rng, kg)
    m0_mat = k_prime @ random_span_element(rng, kg.h_set, 0.4) @ k_prime.conj().T
    fixing = (AxisInvolution(3, "Z"),)
    _, h, _, _ = _minimize_full(AlgebraElement(matrix=m0_mat), cartan, fixing)
    rebuilt = sum(c * w.matrix for c, w in zip(h.coords, cartan))
    assert np.linalg.norm(rebuilt - h.matrix) < 1e-12


def test_minimize_to_cartan_failure_carries_best(monkeypatch):
    rng = np.random.default_rng(4)
    kg = build_kg_basis(3)
    # one Newton step from K = I leaves the relative commutator far above
    # the Cartan bound, which forces the failure path
    monkeypatch.setattr(engine, "MAX_NEWTON_STEPS", 1)
    monkeypatch.setattr(engine, "RESTARTS", 0)
    m0 = AlgebraElement(matrix=random_span_element(rng, kg.m_set, 0.3))
    with pytest.raises(OptimizerFailedError) as info:
        _minimize_full(m0, kg.h_set, (AxisInvolution(3, "Z"),))
    best_k1, best_h = info.value.best
    assert best_k1.shape == (8, 8)
    assert isinstance(best_h, AlgebraElement)
    # the message says how close the best start got
    assert "relative commutator" in str(info.value)
    assert "projection residual" in str(info.value)


def test_newton_polish_evaluates_its_last_step():
    # m0 = k h k^dag with k a 1e-3 rotation: K = I is off by ~1e-3 and
    # the one allowed Newton step lands much closer, so it must be kept
    rng = np.random.default_rng(17)
    kg = build_kg_basis(3)
    h_true = random_span_element(rng, kg.h_set, scale=0.4)
    k = random_k_unitary(rng, kg, scale=1e-3)
    m0 = k @ h_true @ k.conj().T
    v = build_v(kg.h_set).matrix
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
    assert stage.optimizer_iters >= 0


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
        factors, phi, psi, _, _ = engine._secondary_stage(w, 3, kg, inv_x)
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
    assert len(tree.report.optimizer_stats) == 3


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


@pytest.mark.parametrize("label, angle", [("XIX", 0.3), ("IXX", 2.5)])
def test_identity_start_decomposes(label, angle, monkeypatch):
    # In the h stage the K = I start has every off-diagonal entry of
    # B^dag h B on a zero gap of its diagonal, so its first step is
    # exactly zero: that start must end at 0 steps, not stall to the step
    # cap, and the first seeded restart must converge.
    g = expm_skew(angle * pauli_word(label).matrix)
    polish = engine._newton_polish
    starts = []

    def recording_polish(*args):
        result = polish(*args)
        starts.append(result[1:])
        return result

    monkeypatch.setattr(engine, "_newton_polish", recording_polish)
    tree = decompose_full(g, 3)
    assert tree.report.approx_error <= 1e-10
    (rel, steps), (rel_next, _) = starts[:2]
    assert steps == 0 and rel > CARTAN_TOL
    assert rel_next <= CARTAN_TOL
    assert all(steps < engine.MAX_NEWTON_STEPS for _, steps in starts)


@pytest.mark.parametrize("label, angle", [("ZIZ", 0.3), ("ZIZ", 2.5)])
def test_restart_rescues_failed_identity_start(label, angle, monkeypatch):
    # The first Newton step from K = I is exactly zero on these inputs,
    # so that start ends above the Cartan bound; a seeded restart
    # converges in a few steps.
    g = expm_skew(angle * pauli_word(label).matrix)
    tree = decompose_full(g, 3)
    assert tree.report.approx_error <= 1e-10
    monkeypatch.setattr(engine, "RESTARTS", 0)
    with pytest.raises(OptimizerFailedError):
        decompose_full(g, 3)


def test_optimizer_checks_only_its_best_start(monkeypatch):
    # On exp(0.3 ZIZ) the K = I start of the one nonzero stage fails and a
    # restart converges; the acceptance checks (projection, E_s and the
    # eigenphase comparison) run once per call, not once per start. The
    # other stages meet the zero cutoff, which runs no Newton start and
    # no eigenphase check.
    calls = []

    def recording(name):
        inner = getattr(engine, name)

        def wrapper(*args, **kwargs):
            if name == "_minimize_full":
                calls.append([])
            calls[-1].append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(engine, name, wrapper)

    for name in (
        "_minimize_full",
        "_newton_polish",
        "commutation_defect",
        "eigenphase_mismatch",
    ):
        recording(name)
    decompose_full(expm_skew(0.3 * pauli_word("ZIZ").matrix), 3)
    newton_calls = [c for c in calls if "_newton_polish" in c]
    assert newton_calls
    for call in calls:
        assert call.count("commutation_defect") == 1
    for call in newton_calls:
        assert call.count("eigenphase_mismatch") == 1
    starts = sum(call.count("_newton_polish") for call in newton_calls)
    assert starts > len(newton_calls)


def test_su16_top_level_h_stage_is_short(su16_batch):
    # steps that solve the transposed system J^T delta = r take up to
    # 238 steps in this stage
    for result in su16_batch.results:
        assert result.tree is not None, result.message
        assert dict(result.tree.report.optimizer_stats)["n4:h"] <= 40


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


def test_decompose_full_stacks_only_cartan_words(monkeypatch):
    # every other subspace is an involution average, so no stack holds
    # more than the 2^(n-1) words of a level-n Cartan set
    sizes = []
    stack = basis_module.word_stack

    def recording_stack(words):
        words = tuple(words)
        sizes.append((len(words), words[0].n))
        return stack(words)

    for module in (basis_module, linalg, engine):
        monkeypatch.setattr(module, "word_stack", recording_stack)
    g = haar_special_unitary(5, np.random.default_rng(0))
    decompose_full(g, 5)
    assert {n for _, n in sizes} == {3, 4, 5}
    assert all(count <= 2 ** (n - 1) for count, n in sizes), max(sizes)


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
