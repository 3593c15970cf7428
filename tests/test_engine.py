"""Engine tests: stage identities, the torus formulas against word-stack
oracles, the block Cartan solve against the whole-register solves it
replaced, the Newton step kept for the benchmark's spans,
construct-then-recover properties, extraction patterns, and the full
recursion on registers of up to seven qubits."""

import cmath
import dataclasses
import math
import os
import re
import sys
from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg

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
    logm_unitary,
    pauli_word,
    product,
    residual_k,
    serialize,
)
from kgdecomp import basis as basis_module
from kgdecomp.basis import binary_weights, cartan_torus, word_stack
from kgdecomp import engine, linalg
from kgdecomp import involutions as involutions_module
from kgdecomp import factors as factors_module
from kgdecomp.config import DEFAULT_TOLS, SUBSPACE_TOL
from kgdecomp.engine import _minimize_full, _newton_polish
from kgdecomp.linalg import AlgebraElement, as_matrix
from tree_digests import _special, structured_gates
from torus_oracle import full_torus, full_torus_of

SQRT2 = float(np.sqrt(2.0))


def random_span_element(rng, words, scale=0.3):
    coords = rng.uniform(-scale, scale, len(words))
    return sum(c * w.matrix for c, w in zip(coords, words))


def random_k_unitary(rng, kg, scale=0.4):
    return expm_skew(random_span_element(rng, kg.k_set, scale))


def _block_diag(w0, w1):
    """diag(W0, W1) in the last-qubit block view."""
    w = np.zeros((2 * len(w0), 2 * len(w0)), dtype=complex)
    w[0::2, 0::2] = w0
    w[1::2, 1::2] = w1
    return w


def _stage_vectors(x, torus):
    """The vectors (V1, s, V2) that x's stage hands _minimize_full: the
    SVD -i Y = V1 s V2^dag of an H_n stage's block x = Y, or the eigh of
    -i C^ passed twice for an F_n stage's x = C^."""
    if torus.name[0] == "H":
        v1, values, v2h = linalg._svd(-1j * x)
        return v1, values, v2h.conj().T
    values, vecs = np.linalg.eigh(-1j * x)
    return vecs, values, vecs


def _stage_block(m, family):
    """The block of m that its stage's solve reads: Y = m[0::2, 1::2] of
    an H_n stage's m = [[0, Y], [-Y^dag, 0]], C^ = m[0::2, 0::2] of an
    F_n stage's m = diag(C^, -C^), in the last-qubit block view."""
    return m[0::2, 1::2] if family == "H" else m[0::2, 0::2]


def _stage_log(x, family):
    """The whole register's m of an H_n or F_n stage's block x."""
    if family == "F":
        return _block_diag(x, -x)
    m = np.zeros((2 * len(x), 2 * len(x)), dtype=complex)
    m[0::2, 1::2] = x
    m[1::2, 0::2] = -x.conj().T
    return m


def _solve(m0, torus):
    """(K, h, subspace_error) of _minimize_full on the block of m0 that
    its stage solves, given the vectors that stage hands it, with K and h
    built as khk_stage builds them."""
    x = _stage_block(as_matrix(m0), torus.name[0])
    solve = _minimize_full(x, torus, _stage_vectors(x, torus))
    k = _block_diag(solve.k.b0, solve.k.b1)
    return k, engine._cartan_element(solve, torus), solve.subspace_error


# The parent's Cartan solves, kept as oracles for the one block solve:
# the theta_Z stage's on 2^n matrices (_minimize_full_oracle, with
# _closed_form_k_oracle) and the F stage's on its block
# (_f_rotation_oracle), both reading the whole register's figures
# (_stage_figures_oracle).


def _figure_weights_oracle(mu, es_weights):
    # the rows (mu_a - mu_b)^2, C_ab, 1 - delta_ab and 1 over (a, b)
    dim = len(mu)
    gaps = mu[:, None] - mu[None, :]
    rows = (gaps * gaps, es_weights, 1.0 - np.eye(dim), np.ones((dim, dim)))
    return np.stack(rows).reshape(4, dim * dim)


def _stage_figures_oracle(xt, torus, block=False):
    # (c, p, residual_norm, rel, es) of the whole register's x~, or of the
    # block x~[0::2, 0::2] of an F-torus x~ = diag(X, -X)
    full = full_torus_of(torus)
    if block:
        signs, mu = torus.signs[:, 0::2], full.mu[0::2]
        weights = _figure_weights_oracle(mu, full.es_weights[0::2, 0::2])
    else:
        signs, mu = torus.signs, full.mu
        weights = _figure_weights_oracle(mu, full.es_weights)
    d = xt.diagonal()
    c = (2.0 / len(xt)) * (signs @ d.imag)
    p = 0.5 * (c @ signs)
    gap2, es2, off2, total2 = (weights @ (xt * xt.conj()).real.ravel()).tolist()
    on_diagonal = d - 1j * p
    residual_norm = math.sqrt(off2 + linalg._vdot(on_diagonal, on_diagonal).real)
    rel = math.sqrt(gap2 / total2) / math.sqrt(mu @ mu) if total2 > 0.0 else 0.0
    es = math.sqrt(es2) / len(torus.labels)
    if block:
        return c, p, SQRT2 * residual_norm, rel / SQRT2, SQRT2 * es
    return c, p, residual_norm, rel, es


def _closed_form_k_oracle(m0_mat, torus, svd):
    # (K, its BlockPair) of the H_n stage, svd = (V1, S, V2^dag) of -i Y
    u_dag = torus.u_dag
    v1, values, v2h = svd
    v2 = v2h.conj().T
    rotation = engine._cluster_gauge(u_dag @ (v1 + v2), values)
    a, b = v1 @ rotation @ u_dag, v2 @ rotation @ u_dag
    half = len(a)
    det = linalg._det(a) * linalg._det(b)
    turn = cmath.exp(-1j * cmath.phase(det) / (2 * half))
    a, b = turn * a, turn * b
    return _block_diag(a, b), engine.BlockPair(a, b, det * turn ** (2 * half))


ParentSolve = namedtuple(
    "ParentSolve", "k1 k1_blocks p coords residual_norm subspace_error"
)


def _minimize_full_oracle(m0_mat, torus, svd):
    # the theta_Z stage's solve on the whole register: the pretest from
    # diag(Q^dag m0 Q), K1 = I or _closed_form_k_oracle's, and the figures
    # of x~ = (K1 Q)^dag m0 (K1 Q)
    q = torus.q
    norm_m0 = linalg._norm(m0_mat)
    left = torus.q_dag @ m0_mat
    figures = None
    if not engine._off_span(norm_m0, np.add.reduce(left * q.T, axis=1)):
        figures = _stage_figures_oracle(left @ q, torus)
        if norm_m0 <= DEFAULT_TOLS.structure:
            k1, p = np.eye(len(m0_mat), dtype=complex), np.zeros(len(q))
            blocks = engine._identity_pair(len(m0_mat) // 2)
            coords = (0.0,) * len(torus.labels)
            return ParentSolve(k1, blocks, p, coords, norm_m0, figures[4])
    if figures is None or figures[2] > engine._IN_SPAN_TOL * norm_m0:
        k1, blocks = _closed_form_k_oracle(m0_mat, torus, svd)
        frame = k1 @ q
        figures = _stage_figures_oracle(frame.conj().T @ m0_mat @ frame, torus)
    else:
        k1 = np.eye(len(m0_mat), dtype=complex)
        blocks = engine._identity_pair(len(m0_mat) // 2)
    c, p, residual_norm, rel, es = figures
    spectrum = linalg._concatenate((-svd[1], svd[1][::-1]))
    solve = ParentSolve(k1, blocks, p, tuple(c.tolist()), residual_norm, es)
    if (rel <= engine.CARTAN_TOL and residual_norm <= SUBSPACE_TOL
            and engine._phases_match(p, spectrum)):
        return solve
    raise OptimizerFailedError("closed-form solve failed", best=None)


def _f_rotation_oracle(c_hat, values, vecs, torus):
    # (A, coords, residual_norm, subspace_error, det A) of the F stage on
    # its block: the same pretest, gauge, scale and checks
    u, u_dag = torus.u, torus.u_dag
    norm_m = SQRT2 * linalg._norm(c_hat)
    overlap = u_dag @ vecs
    figures = None
    if not engine._off_span(norm_m, SQRT2 * ((overlap * overlap.conj()).real @ values)):
        figures = _stage_figures_oracle(u_dag @ c_hat @ u, torus, block=True)
        if norm_m <= DEFAULT_TOLS.structure:
            coords = np.zeros(len(torus.labels))
            return np.eye(len(c_hat), dtype=complex), coords, norm_m, figures[4], 1.0
    if figures is None or figures[2] > engine._IN_SPAN_TOL * norm_m:
        a = vecs @ engine._cluster_gauge(overlap, values) @ u_dag
        det = linalg._det(a)
        turn = cmath.exp(-1j * cmath.phase(det * det) / (2 * len(a)))
        a = turn * a
        det_a = det * turn ** len(a)
        frame = a @ u
        figures = _stage_figures_oracle(frame.conj().T @ c_hat @ frame, torus, block=True)
    else:
        a, det_a = np.eye(len(c_hat), dtype=complex), 1.0
    c, p, residual_norm, rel, es = figures
    if (rel <= engine.CARTAN_TOL and residual_norm <= SUBSPACE_TOL
            and engine._phases_match(p, values)):
        return a, c, residual_norm, es, det_a
    raise OptimizerFailedError("closed-form solve failed", best=None)


def test_newton_step_solves_the_residual_jacobian(monkeypatch):
    # With D the part of h diagonal in v's eigenbasis B (its Cartan
    # projection), K <- K exp(delta) moves h by -[delta, h] to first
    # order, and the step must solve the Newton equation at D,
    # [delta, D] = h - D, with delta in k. Near a Cartan element every
    # gap of D is open, so the k-projection of the step loses nothing.
    rng = np.random.default_rng(15)
    kg = build_kg_basis(3)
    inv = AxisInvolution(3, "Z")
    torus = np.linalg.eigh(-1j * full_torus("H", 3).v)
    basis = torus[1]
    k = random_k_unitary(rng, kg, scale=1e-2)
    h = k.conj().T @ random_span_element(rng, kg.h_set, 0.4) @ k
    cartan_part = basis @ np.diag(np.diag(basis.conj().T @ h @ basis)) @ basis.conj().T

    steps = []
    monkeypatch.setattr(linalg, "expm_skew", lambda a: steps.append(a) or expm_skew(a))
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


def test_compute_m_rejects_a_register_of_another_size():
    # the theta_Z log reads the last-qubit blocks of any even size, so the
    # involution's size is checked before them, in compute_m and khk_stage
    g = haar_special_unitary(3, np.random.default_rng(4))
    inv_z4, inv_x4 = AxisInvolution(4, "Z"), AxisInvolution(4, "X")
    for inv, fixing in ((inv_z4, ()), (inv_x4, (inv_z4,))):
        with pytest.raises(DimensionMismatchError, match=r"\(16, 16\)"):
            compute_m(g, inv, fixing)
    with pytest.raises(DimensionMismatchError, match=r"\(16, 16\)"):
        khk_stage(g, AxisInvolution(4, "Z"), build_kg_basis(4).h_set)


def test_compute_m_rejects_a_log_off_its_subspace():
    # a Haar input is not fixed by theta_Z, so its theta_X log has a large
    # theta_Z-odd part, which the theta_X stage's fixing must refuse
    g = haar_special_unitary(3, np.random.default_rng(2))
    inv_z, inv_x = AxisInvolution(3, "Z"), AxisInvolution(3, "X")
    with pytest.raises(SubspaceViolationError):
        compute_m(g, inv_x, (inv_z,))


def test_compute_m_refuses_the_pairs_no_stage_takes():
    # a level takes theta_Z alone and theta_X fixing theta_Z; any other
    # pair has no closed-form log, and compute_m names the two it takes
    g = haar_special_unitary(3, np.random.default_rng(5))
    inv_z, inv_x = AxisInvolution(3, "Z"), AxisInvolution(3, "X")
    names = re.escape("(theta_Z, ()) or (theta_X, (theta_Z,))")
    for inv, fixing in ((inv_x, ()), (inv_z, (inv_x,)), (inv_z, (inv_z,))):
        with pytest.raises(ValueError, match=names):
            compute_m(g, inv, fixing)


def test_theta_x_log_refuses_an_input_off_the_block_form():
    # I..IX is special unitary but not fixed by theta_Z: its blocks W0 and
    # W1 are zero, so the theta_X stage's block log does not apply
    g = np.kron(np.eye(4), [[0.0, 1.0], [1.0, 0.0]]).astype(complex)
    inv_z, inv_x = AxisInvolution(3, "Z"), AxisInvolution(3, "X")
    with pytest.raises(SubspaceViolationError, match="theta_Z-fixed group"):
        compute_m(g, inv_x, (inv_z,))


def test_minimize_to_cartan_recovers_spectrum():
    rng = np.random.default_rng(3)
    kg = build_kg_basis(3)
    for trial in range(5):
        h_true = random_span_element(rng, kg.h_set, scale=0.4)
        k_prime = random_k_unitary(rng, kg)
        m0_mat = k_prime @ h_true @ k_prime.conj().T
        m0 = AlgebraElement(matrix=m0_mat)
        k1, h, _ = _solve(m0, cartan_torus("H", 3))
        assert h.residual_norm < 1e-10
        assert eigenphase_mismatch(expm_skew(h.matrix), expm_skew(h_true)) < 1e-8
        conj = k1.conj().T @ m0_mat @ k1
        assert np.linalg.norm(conj - h.matrix) < 1e-9


def test_minimize_to_cartan_zero_input_short_circuits():
    m0 = AlgebraElement(matrix=np.zeros((8, 8), dtype=complex))
    k1, h, _ = _solve(m0, cartan_torus("H", 3))
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
    k1, h, _ = _solve(m0, cartan_torus("F", 3))
    assert np.array_equal(k1, np.eye(8))
    assert np.linalg.norm(h.matrix) == 0.0


def test_minimize_to_cartan_failure_carries_best():
    # the closed form trusts the log's vectors; V1 = V2 = I with s = 0 do
    # not diagonalize x = Y, and their gauge leaves K = I up to rounding.
    # IIY is orthogonal to span H_3, so the projection residual stays
    # ||m0||, and the whole register's (K, h) pair rides in `best`
    m0 = 0.7 * pauli_word("IIY").matrix
    eye = np.eye(4, dtype=complex)
    with pytest.raises(OptimizerFailedError) as info:
        _minimize_full(m0[0::2, 1::2], cartan_torus("H", 3), (eye, np.zeros(4), eye))
    best_k1, best_h = info.value.best
    assert best_k1.shape == (8, 8)
    assert isinstance(best_h, AlgebraElement)
    assert best_h.residual_norm == pytest.approx(np.linalg.norm(m0), rel=1e-12)
    # the message says how close the solution got
    assert "relative commutator" in str(info.value)
    assert "projection residual 9.899e-01" in str(info.value)


@pytest.mark.parametrize("family", ["h", "f"])
def test_minimize_to_cartan_keeps_an_in_span_input(family):
    # an m0 already in the span needs no rotation: K1 = I exactly, and h
    # carries m0's own coordinates. The F set's solve reads the block C^
    # of m0 = diag(C^, -C^), whose rotation is A (x) I
    rng = np.random.default_rng(19)
    torus = cartan_torus(family.upper(), 4)
    coords = rng.uniform(-0.5, 0.5, len(torus.labels))
    m0 = sum(c * pauli_word(label).matrix for c, label in zip(coords, torus.labels))
    k1, h, _ = _solve(AlgebraElement(matrix=m0), torus)
    assert np.array_equal(k1, np.eye(16))
    assert np.allclose(h.coords, coords, rtol=0.0, atol=1e-14)


def test_minimize_to_cartan_gauge_keeps_a_degenerate_rotation_small():
    # m0 = a IIX + b IIY has one singular value of multiplicity 4, so the
    # SVD alone leaves K1 = diag(A, B) free up to a common 4 x 4 unitary;
    # the cluster gauge must pick the rotation on the last qubit alone,
    # K1 = I (x) diag(e^{i beta}, e^{-i beta}), as the A (x) B inputs of
    # tests/structured_sweep.py need for their identity factors
    m0 = 0.4 * pauli_word("IIX").matrix + 0.3 * pauli_word("IIY").matrix
    k1, h, _ = _solve(AlgebraElement(matrix=m0), cartan_torus("H", 3))
    top, bottom = np.diag(k1)[0::2], np.diag(k1)[1::2]
    assert np.linalg.norm(k1 - np.diag(np.diag(k1))) < 1e-14
    assert np.ptp(top) < 1e-14 and np.ptp(bottom) < 1e-14
    assert abs(top[0] * bottom[0] - 1.0) < 1e-14
    assert np.allclose(h.coords, (0.5, 0.0, 0.0, 0.0), rtol=0.0, atol=1e-14)


def _stage_part(x, family):
    """The part of x of its stage's form in the last-qubit block view:
    [[0, Y], [-Y^dag, 0]] for H_n, diag(C, -C) for F_n."""
    if family == "H":
        return _stage_log(x[0::2, 1::2], family)
    return _stage_log(0.5 * (x[0::2, 0::2] - x[1::2, 1::2]), family)


def _block_reading(x, torus):
    """engine._stage_figures on the rotated block D = U^dag x U of an x
    of its stage's form, K = I, with p spread over the whole register as
    p and -p interleaved."""
    u = torus.u
    c, p, *figures = engine._stage_figures(
        u.conj().T @ _stage_block(x, torus.name[0]) @ u, torus
    )
    return (c, np.array((p, -p)).T.ravel(), *figures)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", ["h", "f"])
def test_torus_formulas_match_word_stack_oracles(family, n):
    # a seeded span element plus off-span noise, with the words shuffled:
    # the torus's coordinates, residual, E_s and relative commutator
    # match the word-stack projection, commutation_defect and the
    # matrix formula ||[v, x]|| / (||v|| ||x||), read off the whole
    # register's x~ = Q^dag x Q for any noise, and off the stage's block
    # for noise of the stage's form
    rng = np.random.default_rng(100 * n + (family == "f"))
    kg = build_kg_basis(n)
    torus = cartan_torus(family.upper(), n)
    canonical = tuple(pauli_word(label) for label in torus.labels)
    words = tuple(canonical[i] for i in rng.permutation(len(canonical)))
    rows = torus.rows_of(word.label for word in words)
    v = np.tensordot(binary_weights(torus.labels), word_stack(canonical), axes=1)
    noise = random_span_element(rng, kg.m_set + kg.k_set)
    noise /= np.linalg.norm(noise)
    stage_noise = _stage_part(noise, family.upper())
    full_register = lambda x, torus: _stage_figures_oracle(
        torus.q.conj().T @ x @ torus.q, torus
    )
    for eps in (0.0, 1e-9, 1e-3, 1.0):
        span = random_span_element(rng, words, scale=0.8)
        for x, read in (
            (span + eps * noise, full_register),
            (span + eps * stage_noise, full_register),
            (span + eps * stage_noise, _block_reading),
        ):
            c, p, residual_norm, rel_t, es_t = read(x, torus)
            coords, residual = linalg.project_onto_span(x, words)
            assert np.max(np.abs(c[rows] - coords)) <= 1e-13
            assert abs(residual_norm - np.linalg.norm(residual)) <= 1e-13
            assert np.linalg.norm(
                (torus.q * (1j * p)) @ torus.q.conj().T - (x - residual)
            ) <= 1e-13
            es = linalg.commutation_defect(x, words)
            assert abs(es_t - es) <= 1e-13
            rel = np.linalg.norm(v @ x - x @ v) / (np.linalg.norm(v) * np.linalg.norm(x))
            assert abs(rel_t - rel) <= 1e-13
        # the central word I..IZ splits off by its diagonal
        x = span + eps * noise
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
    # _minimize_full sets as conj(o) / |o| without an SVD; both stages
    # of every level go through it
    stages = []
    solve = engine._minimize_full

    def recording_solve(x, torus, vectors):
        stages.append((_stage_log(x, torus.name[0]), torus, solve(x, torus, vectors)))
        return stages[-1][-1]

    monkeypatch.setattr(engine, "_minimize_full", recording_solve)
    decompose_full(haar_special_unitary(n, np.random.default_rng(n)), n)
    assert {int(torus.name[1:]) for _, torus, _ in stages} == set(range(3, n + 1))
    assert {torus.name[0] for _, torus, _ in stages} == {"H", "F"}
    for m0_mat, torus, got in stages:
        want = _closed_form_k_by_cluster_svds(m0_mat, torus)
        a, b, det = got.k
        assert np.max(np.abs(_block_diag(a, b) - want)) <= 1e-13
        # det is det K = 1 up to rounding, and an F stage's K is A (x) I
        assert abs(det - 1.0) <= 1e-13
        assert torus.name[0] == "H" or b is a


def _cluster_gauge_oracle(overlap, values):
    # _cluster_gauge as it was first written, through np.diag, np.divide
    # with a mask on every call, and flatnonzero on every call
    o = np.diagonal(overlap)
    rotation = np.diag(
        np.divide(o.conj(), np.abs(o), out=np.ones_like(o), where=o != 0)
    )
    tol = engine._CLUSTER_TOL * np.abs(values).max()
    cuts = np.flatnonzero(np.abs(values[1:] - values[:-1]) > tol) + 1
    if len(cuts) < len(values) - 1:
        bounds = np.concatenate(([0], cuts, [len(values)]))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop - start > 1:
                w, _, zh = linalg._svd(overlap[start:stop, start:stop])
                rotation[start:stop, start:stop] = zh.conj().T @ w.conj().T
    return rotation


def _gauge_cases():
    """(name, overlap, values): seeded overlaps with distinct values in
    both sort orders, an overlap with a zero diagonal entry, a two-value
    cluster and an all-equal cluster."""
    rng = np.random.default_rng(23)
    for size in (4, 8, 16):
        for seed in range(3):
            shape = (size, size)
            overlap = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            values = np.sort(rng.uniform(-1.5, 1.5, size))
            yield f"seeded{size}-{seed}-ascending", overlap, values
            yield f"seeded{size}-{seed}-descending", overlap, values[::-1].copy()
    overlap = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    values = np.sort(rng.uniform(0.0, 1.5, 8))
    for zero in (0, 3, 7):
        hole = overlap.copy()
        hole[zero, zero] = 0.0
        yield f"zero-diagonal-{zero}", hole, values
    pair = np.array([0.1, 0.4, 0.4 * (1.0 + 1e-12), 0.9, 1.1, 1.2, 1.3, 1.4])
    yield "two-value-cluster", overlap, pair
    yield "two-value-cluster-descending", overlap, pair[::-1].copy()
    pair_hole = overlap.copy()
    pair_hole[2, 2] = 0.0
    yield "two-value-cluster-zero-diagonal", pair_hole, pair
    yield "all-equal", overlap, np.full(8, 0.6)
    yield "all-zero", overlap, np.zeros(8)


def test_cluster_gauge_matches_its_first_form_bit_for_bit():
    for name, overlap, values in _gauge_cases():
        got = engine._cluster_gauge(overlap, values)
        want = _cluster_gauge_oracle(overlap, values)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_a_haar_level_calls_no_python_level_numpy_function():
    # a Haar SU(8) solve and its document reach numpy through ndarray
    # methods, ufuncs and C functions only: no numpy function written in
    # Python (np.diagonal, np.angle, np.sort, the .all() and .max() of
    # numpy/_core/_methods.py, the dispatchers of np.vdot, ...) and no
    # dataclasses.replace. Which numpy calls run Python is numpy's own
    # layout, pinned here as of numpy 2.4: a numpy that moves a ufunc
    # method or np.asarray into Python fails this test with the same
    # results
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    replace_code = dataclasses.replace.__code__
    for family in ("H", "F"):
        cartan_torus(family, 3)
    serialize(decompose_full(haar_special_unitary(3, np.random.default_rng(40)), 3))
    inputs = [haar_special_unitary(3, np.random.default_rng(41 + i)) for i in range(3)]
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(numpy_dir) or code is replace_code:
                calls.append(f"{code.co_filename}:{code.co_name}")

    sys.setprofile(hook)
    try:
        for g in inputs:
            serialize(decompose_full(g, 3))
    finally:
        sys.setprofile(None)
    assert calls == []


def test_newton_polish_evaluates_its_last_step():
    # m0 = k h k^dag with k a 1e-3 rotation: K = I is off by ~1e-3 and
    # the one allowed Newton step lands much closer, so it must be kept
    rng = np.random.default_rng(17)
    kg = build_kg_basis(3)
    h_true = random_span_element(rng, kg.h_set, scale=0.4)
    k = random_k_unitary(rng, kg, scale=1e-3)
    m0 = k @ h_true @ k.conj().T
    v = full_torus("H", 3).v
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
    g = haar_special_unitary(3, np.random.default_rng(7))
    stage = khk_stage(g, AxisInvolution(3, "Z"), kg.h_set)
    for w in (stage.k0 @ stage.k1, stage.k1.conj().T):
        w0, w1 = w[0::2, 0::2], w[1::2, 1::2]
        det = np.linalg.det(w0) * np.linalg.det(w1)
        factors, phi, psi, _ = engine._secondary_stage(w0, w1, 3, det)
        assert [f.kind for f in factors] == [
            FactorKind.SUB_UNITARY, FactorKind.CARTAN_EXP,
            FactorKind.SUB_UNITARY, FactorKind.LAST_QUBIT,
        ]
        rebuilt = product(FactorTree(3, phi - psi, factors))
        assert np.linalg.norm(rebuilt - w) < 1e-10


def _level_inputs(g, n):
    """The two theta_X stage inputs of one level on g: the argument
    tuples (W0, W1, det) the level hands the block stage, each paired with
    the 2^n input w = K0 K1 or K1^dag that the level used to form."""
    k0, solve = engine._theta_z_stage(g, cartan_torus("H", n))
    a, b, det_k1 = solve.k
    k0_mat, k1 = _block_diag(k0.b0, k0.b1), _block_diag(a, b)
    return (
        (k0_mat @ k1, (k0.b0 @ a, k0.b1 @ b, k0.det * det_k1)),
        (k1.conj().T, (a.conj().T, b.conj().T, np.conj(det_k1))),
    )


def _theta_x_inputs(n, seed):
    """The two theta_X stage argument tuples (W0, W1, det) of one level
    on Haar SU(2^n)."""
    g = haar_special_unitary(n, np.random.default_rng(seed))
    return tuple(args for _, args in _level_inputs(g, n))


def _spy_kernels(monkeypatch):
    """Records (name, size) for every call of a decomposition kernel, of
    scipy.linalg.schur and of the engine's expm_skew and logm_unitary;
    for _csd the size is that of its first block."""
    kernels = ("_eigh", "_svd", "_schur", "_det", "_csd")
    real = {name: getattr(linalg, name) for name in kernels}
    calls = []

    def spy(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, len(as_matrix(a))))
            return fn(a, *args, **kwargs)

        return wrapper

    for module in (engine, linalg, involutions_module):
        for name in kernels:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, real[name]))
    monkeypatch.setattr(scipy.linalg, "schur", spy("schur", scipy.linalg.schur))
    for name in ("expm_skew", "logm_unitary"):
        monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_secondary_stage_decomposes_only_half_blocks(monkeypatch, n):
    # the theta_X stage lives on one 2^(n-1) block: one Schur form of
    # P = W1^dag W0, which also gives the F rotation's eigenvectors, and
    # no 2^n matrix decomposed or exponentiated
    half = 2 ** (n - 1)
    inputs = _theta_x_inputs(n, n)
    cartan_torus("F", n)  # built once and cached, outside the stage
    calls = _spy_kernels(monkeypatch)
    for w0, w1, det in inputs:
        calls.clear()
        engine._secondary_stage(w0, w1, n, det)
        assert max(size for _, size in calls) == half, calls
        assert [call for call in calls if "schur" in call[0]] == [("_schur", half)]
        assert not any(name == "_eigh" for name, _ in calls), calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_theta_z_stage_decomposes_only_half_blocks(monkeypatch, n):
    # the theta_Z stage is one CSD of the four 2^(n-1) blocks: no Schur
    # form, no log or exponential, and no 2^n matrix decomposed
    half = 2 ** (n - 1)
    torus = cartan_torus("H", n)
    calls = _spy_kernels(monkeypatch)
    for seed in range(3):
        g = haar_special_unitary(n, np.random.default_rng(60 + seed))
        calls.clear()
        engine._theta_z_stage(g, torus)
        assert max(size for _, size in calls) == half, calls
        names = [name for name, _ in calls]
        assert names.count("_csd") == 1, calls
        assert not {"_schur", "schur", "logm_unitary", "expm_skew"} & set(names)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_z_log_matches_the_full_register_log(n):
    # the oracle: the principal log of w = theta_Z(g^dag) g on the whole
    # register, snapped onto its theta_Z-odd part
    inv_z = AxisInvolution(n, "Z")
    for seed in range(3):
        g = haar_special_unitary(n, np.random.default_rng(30 + 10 * n + seed))
        w = inv_z.apply(g.conj().T) @ g
        oracle = 0.5 * logm_unitary(w)
        oracle = oracle - inv_z.even_part(oracle)
        m = compute_m(g, inv_z)
        assert np.linalg.norm(m.matrix - oracle) <= 1e-12
        assert m.residual_norm <= 1e-12
        # the stage's block Y = m0[0::2, 1::2] and the SVD of -i Y, with
        # sorted values, as (V1, s, V2)
        y, residual_norm, _, (v1, values, v2) = engine._theta_z_log(g)
        assert np.array_equal(y, m.matrix[0::2, 1::2])
        assert residual_norm == m.residual_norm
        assert np.linalg.norm(-1j * y - (v1 * values) @ v2.conj().T) <= 1e-13
        assert np.all(np.diff(values) <= 0.0)


@pytest.mark.parametrize("name", ["toffoli", "ccz", "qft3", "swap13", "xxx"])
def test_theta_z_log_is_odd_on_structured_gates(name):
    # the CS angles of these gates are 0 or pi/2, the eigenvalue -1 of
    # theta_Z(g^dag) g (all but ccz have one): exp(2 m0) = w still holds,
    # m0 is exactly theta_Z-odd, and k0 = g e^(-m0) is block-diagonal
    (g,) = [_special(u) for label, u, _ in structured_gates() if label == name]
    inv_z = AxisInvolution(3, "Z")
    w = inv_z.apply(g.conj().T) @ g
    m0 = compute_m(g, inv_z)
    _, _, k0, _ = engine._theta_z_log(g)
    assert np.linalg.norm(expm_skew(2.0 * m0.matrix) - w) <= 1e-14
    assert np.array_equal(inv_z.apply(m0.matrix), -m0.matrix)
    k = residual_k(g, m0)
    off_blocks = np.hypot(np.linalg.norm(k[0::2, 1::2]), np.linalg.norm(k[1::2, 0::2]))
    assert off_blocks <= 1e-14
    # k0 comes as its two blocks and their determinant
    assert np.linalg.norm(k - _block_diag(k0.b0, k0.b1)) <= 1e-14
    assert abs(k0.det - np.linalg.det(k)) <= 1e-14


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_z_log_residual_matches_the_blockwise_products(n):
    # the oracle: ||g - diag(U1, U2) CS V^dag||_F as four block products
    for seed in range(3):
        g = haar_special_unitary(n, np.random.default_rng(90 + 10 * n + seed))
        blocks = (g[0::2, 0::2], g[0::2, 1::2], g[1::2, 0::2], g[1::2, 1::2])
        (u1, u2), theta, (v1h, v2h) = linalg._csd(*blocks)
        cos, sin = np.cos(theta), np.sin(theta)
        rebuilt = ((u1 * cos) @ v1h, (u1 * -sin) @ v2h, (u2 * sin) @ v1h, (u2 * cos) @ v2h)
        oracle = np.linalg.norm(np.stack(blocks) - np.stack(rebuilt))
        _, residual_norm, _, _ = engine._theta_z_log(g)
        assert residual_norm == pytest.approx(oracle, abs=1e-15)


@pytest.mark.parametrize("shift, tol", [(1e-6, 1e-7), (1e-2, SUBSPACE_TOL)])
def test_theta_z_log_refuses_a_csd_that_misses_g(monkeypatch, shift, tol):
    # a u1 moved by `shift` leaves a reconstruction residual of that size;
    # 1e-6 is under SUBSPACE_TOL, so that case lowers the bound below it
    csd = engine._csd

    def perturbed(*blocks):
        (u1, u2), theta, vh = csd(*blocks)
        return (u1 + shift, u2), theta, vh

    monkeypatch.setattr(engine, "_csd", perturbed)
    monkeypatch.setattr(engine, "SUBSPACE_TOL", tol)
    g = haar_special_unitary(3, np.random.default_rng(8))
    with pytest.raises(SubspaceViolationError, match="cosine-sine decomposition leaves"):
        engine._theta_z_log(g)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_x_log_matches_the_full_register_log(n):
    # the oracle: the principal log of w' = theta_X(w^dag) w on the whole
    # register, snapped by (1 - theta_X) / 2 and (1 + theta_Z) / 2
    inv_z, inv_x = AxisInvolution(n, "Z"), AxisInvolution(n, "X")
    for w0, w1, _ in _theta_x_inputs(n, 20 + n):
        w = _block_diag(w0, w1)
        w_prime = inv_x.apply(w.conj().T) @ w
        oracle = 0.5 * logm_unitary(w_prime)
        oracle = inv_z.even_part(oracle - inv_x.even_part(oracle))
        m = compute_m(w, inv_x, (inv_z,))
        assert np.linalg.norm(m.matrix - oracle) <= 1e-12
        assert m.residual_norm == pytest.approx(
            np.linalg.norm(w_prime - inv_z.even_part(w_prime)), abs=1e-15
        )


def test_theta_x_log_is_odd_on_structured_gates(monkeypatch):
    # the theta_X inputs of the structured gates meet the eigenvalue -1 of
    # P = W1^dag W0, where the log takes the branch pi: exp(2m) = w' still
    # holds and m stays exactly theta_X-odd
    seen = []
    stage = engine._secondary_stage

    def recording_stage(w0, w1, n, det):
        seen.append((_block_diag(w0, w1), n))
        return stage(w0, w1, n, det)

    monkeypatch.setattr(engine, "_secondary_stage", recording_stage)
    for _, u, n in structured_gates():
        decompose_full(_special(u), n)
    minus_one = 0
    for w, n in seen:
        inv_z, inv_x = AxisInvolution(n, "Z"), AxisInvolution(n, "X")
        w_prime = inv_x.apply(w.conj().T) @ w
        m = compute_m(w, inv_x, (inv_z,)).matrix
        assert np.linalg.norm(expm_skew(2.0 * m) - w_prime) < 1e-10
        assert np.array_equal(inv_x.apply(m), -m)
        assert np.array_equal(inv_z.apply(m), m)
        minus_one += np.count_nonzero(
            np.abs(np.linalg.eigvals(w_prime[0::2, 0::2]) + 1.0) < 1e-9
        )
    assert minus_one > 0


def _theta_x_log_oracle(g, inv_x):
    # the theta_X log as it was written on the whole register: theta_X
    # applied and w = theta_X(g^dag) g formed at 2^n, the off-diagonal
    # blocks of g and w measured, and both block determinants taken
    defect = engine._unitarity_defect(g)
    w = inv_x.apply(g.conj().T) @ g
    off_blocks = float(np.hypot(linalg._norm(g[0::2, 1::2]), linalg._norm(g[1::2, 0::2])))
    assert off_blocks <= SUBSPACE_TOL
    residual_norm = float(np.hypot(linalg._norm(w[0::2, 1::2]), linalg._norm(w[1::2, 0::2])))
    assert residual_norm <= SUBSPACE_TOL
    engine._check_det(linalg._det(g[0::2, 0::2]) * linalg._det(g[1::2, 1::2]))
    p = w[0::2, 0::2]
    log_tol = max(DEFAULT_TOLS.structure * len(g), 4.0 * defect)
    assert linalg._unitarity_gap(p) <= log_tol
    t, z = linalg._schur(p)
    eig = t.diagonal()
    phases = np.arctan2(eig.imag, eig.real)
    phases[phases <= engine._MINUS_ONE_BRANCH - np.pi] = np.pi
    return phases, z, residual_norm


def _secondary_stage_oracle(w, n, inv_x):
    # the theta_X stage as it was written on a 2^n input w
    torus = cartan_torus("F", n)
    phases, vecs, _ = _theta_x_log_oracle(w, inv_x)
    order = phases.argsort()
    phases, vecs = phases[order], vecs[:, order]
    half = len(vecs)
    alpha = float(np.add.reduce(phases)) / half
    values = 0.5 * (phases - alpha)
    c_hat = (vecs * (1j * values)) @ vecs.conj().T
    turn = np.exp(-0.5j * phases)
    even = (w[0::2, 0::2] @ vecs) * turn
    odd = (w[1::2, 1::2] @ vecs) * turn.conj()
    assert linalg._norm(even - odd) <= engine.PATTERN_TOL
    k = 0.5 * (even + odd) @ vecs.conj().T
    a, coords, residual_norm, subspace_error, det_a = _f_rotation_oracle(
        c_hat, values, vecs, torus
    )
    outer = k @ a
    phi = cmath.phase(linalg._det(outer)) / half
    psi = cmath.phase(det_a) / half
    sub = np.exp(-1j * phi) * outer
    inner = np.exp(-1j * psi) * a
    last = np.array([[cmath.exp(0.5j * alpha), 0], [0, cmath.exp(-0.5j * alpha)]])
    payloads = (sub, inner.conj().T, last)
    return payloads, tuple(coords.tolist()), residual_norm, phi, psi, subspace_error


def _structured_level_inputs():
    for name in ("toffoli", "qft3", "swap13", "xxx"):
        (g,) = [_special(u) for label, u, _ in structured_gates() if label == name]
        for pair in _level_inputs(g, 3):
            yield name, 3, pair


def _haar_level_inputs():
    for n in (3, 4, 5, 6):
        for seed in (50, 51):
            g = haar_special_unitary(n, np.random.default_rng(seed + 10 * n))
            for pair in _level_inputs(g, n):
                yield f"haar{n}-s{seed}", n, pair


def test_block_stage_matches_the_full_register_stage_bit_for_bit():
    # the level hands the stage (W0, W1) and the carried determinant; the
    # stage must return bitwise what the 2^n stage returned on w, on Haar
    # inputs and on gates whose P = W1^dag W0 has the eigenvalue -1
    minus_one = 0
    cases = list(_haar_level_inputs()) + list(_structured_level_inputs())
    for name, n, (w, (w0, w1, det)) in cases:
        inv_x = AxisInvolution(n, "X")
        want = _secondary_stage_oracle(w, n, inv_x)
        factors, phi, psi, es = engine._secondary_stage(w0, w1, n, det)
        sub, cartan, inner_dag, last = factors
        payloads = (sub.matrix, inner_dag.matrix, last.matrix)
        for got_payload, want_payload in zip(payloads, want[0]):
            assert got_payload.tobytes() == want_payload.tobytes(), name
        assert cartan.coeffs == tuple(zip(cartan_torus("F", n).labels, want[1])), name
        assert cartan.subspace_residual == want[2], name
        assert (phi, psi, es) == want[3:], name
        p = w[1::2, 1::2].conj().T @ w[0::2, 0::2]
        minus_one += np.count_nonzero(np.abs(np.linalg.eigvals(p) + 1.0) < 1e-9)
    assert minus_one > 0


@pytest.mark.parametrize("n, nth, path", [(4, 1, "f0[F4]"), (4, 5, "K1/f0[F3]")])
@pytest.mark.parametrize("spoil", ["nan", "scaled", "det"])
def test_a_spoiled_block_pair_is_refused_with_its_stage_path(
    monkeypatch, n, nth, path, spoil
):
    # the level's theta_X inputs are not checked on the whole register
    # any more; their blocks still pass a finiteness and unitarity check,
    # and the determinant the level carries is checked against 1, each
    # named by the stage's path. Stages run level first: at n = 4 the top
    # level's f0 is the first theta_X stage and K1's f0 the fifth
    real = engine._secondary_stage
    calls = []

    def spoiling(w0, w1, n, det):
        calls.append(n)
        if len(calls) == nth:
            if spoil == "nan":
                w1 = w1.copy()
                w1[0, 1] = np.nan
            elif spoil == "scaled":
                w0, w1 = 1.01 * w0, 1.01 * w1
            else:
                det = -det
        return real(w0, w1, n, det)

    monkeypatch.setattr(engine, "_secondary_stage", spoiling)
    g = haar_special_unitary(n, np.random.default_rng(33))
    message = {
        "nan": "non-finite",
        "scaled": "unitarity defect",
        "det": "determinant defect .* of the last-qubit blocks",
    }[spoil]
    with pytest.raises(NotUnitaryError, match=message) as info:
        decompose_full(g, n)
    assert info.value.stage == path
    assert str(info.value).startswith(f"{path}: ")


def test_compute_m_refuses_last_qubit_blocks_of_determinant_minus_one():
    # diag(W0, W1) is unitary and fixed by theta_Z, but det W0 det W1 = -1:
    # the public theta_X log still takes both block determinants
    rng = np.random.default_rng(34)
    w0 = haar_special_unitary(2, rng)
    w1 = haar_special_unitary(2, rng) @ np.diag([-1.0, 1.0, 1.0, 1.0])
    g = _block_diag(w0, w1)
    assert abs(np.linalg.det(g) + 1.0) <= 1e-12
    with pytest.raises(NotUnitaryError, match="of the last-qubit blocks"):
        compute_m(g, AxisInvolution(3, "X"), (AxisInvolution(3, "Z"),))


def test_a_haar_level_applies_no_involution_and_forms_no_full_input(monkeypatch):
    # a level hands each theta_X stage its two 2^(n-1) blocks: theta_X is
    # never applied, and no 2^n matrix is passed for K0 or either input
    g = haar_special_unitary(3, np.random.default_rng(35))
    decompose_one_level(g, 3)  # tori built and cached outside the spies
    applied = []
    apply = involutions_module.AxisInvolution.apply

    def spy_apply(self, a):
        applied.append(self)
        return apply(self, a)

    monkeypatch.setattr(involutions_module.AxisInvolution, "apply", spy_apply)
    shapes = []
    stage = engine._secondary_stage

    def spy_stage(w0, w1, n, det):
        shapes.append((w0.shape, w1.shape))
        return stage(w0, w1, n, det)

    monkeypatch.setattr(engine, "_secondary_stage", spy_stage)
    decompose_one_level(g, 3)
    assert applied == []
    assert shapes == [((4, 4), (4, 4))] * 2


def _full_register_xt(d, torus):
    """The whole register's x~ that a stage's rotated block D stands for,
    in the last-qubit block view: [[K, -H], [H, -K]] on H_n, with K and H
    the skew-Hermitian and Hermitian parts of D, and diag(D, -D) on F_n."""
    if torus.name[0] == "F":
        return _block_diag(d, -d)
    k, h = 0.5 * (d - d.conj().T), 0.5 * (d + d.conj().T)
    xt = _block_diag(k, -k)
    xt[0::2, 1::2] = -h
    xt[1::2, 0::2] = h
    return xt


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_torus_figures_equal_the_full_register(n):
    # on an x of its stage's form, [[0, Y], [-Y^dag, 0]] for H_n and
    # diag(C, -C) for F_n in the last-qubit block view, the figures read
    # off the rotated block D = (A U)^dag x (B U) equal those of the whole
    # register's x~ = (K Q)^dag x (K Q), K = diag(A, B), sqrt(2) factors
    # included; K = I, and a rotation K = diag(A, B), A (x) I on F_n
    for family in ("F", "H"):
        _assert_block_figures_equal_the_full_register(family, n)


def _assert_block_figures_equal_the_full_register(family, n):
    rng = np.random.default_rng(40 + n + 10 * (family == "H"))
    torus = cartan_torus(family, n)
    half = 2 ** (n - 1)
    span = _stage_block(
        sum(
            c * pauli_word(label).matrix
            for c, label in zip(rng.uniform(-0.5, 0.5, len(torus.labels)), torus.labels)
        ),
        family,
    )
    a = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    if family == "F":
        a = a - a.conj().T
        a -= np.trace(a) / half * np.eye(half)
    rotations = [(np.eye(half), np.eye(half))]
    rotations.append((haar_special_unitary(n - 1, rng), haar_special_unitary(n - 1, rng)))
    if family == "F":
        rotations[1] = (rotations[1][0], rotations[1][0])
    u = torus.u
    for eps in (0.0, 1e-6, 1.0):
        x_block = span + eps * a
        for k0, k1 in rotations:
            frame = _block_diag(k0, k1) @ torus.q
            xt = frame.conj().T @ _stage_log(x_block, family) @ frame
            d = (k0 @ u).conj().T @ x_block @ (k1 @ u)
            c, p, *figures = _stage_figures_oracle(xt, torus)
            c_b, p_b, *figures_b = engine._stage_figures(d, torus)
            assert np.max(np.abs(c - c_b)) <= 1e-14
            assert np.max(np.abs(p[0::2] - p_b)) <= 1e-14
            # residual, relative commutator and E_s
            for figure_b, figure in zip(figures_b, figures):
                assert figure_b == pytest.approx(figure, rel=1e-12, abs=1e-15)


def _torus_split_oracle(d, signs):
    # the figures as separate walks over x~, before _stage_figures read
    # them off one weighted sum: c and p off the diagonal of D
    c = (2.0 / len(d)) * (signs @ np.diagonal(d).imag)
    return c, 0.5 * (c @ signs)


def _residual_oracle(xt, p):
    # ||x~ - i diag(p, -p)||, p and -p interleaved
    off = xt.copy()
    off.flat[:: len(xt) + 1] -= 1j * np.array((p, -p)).T.ravel()
    return np.linalg.norm(off)


def _relative_commutator_oracle(xt, torus):
    mu = full_torus_of(torus).mu
    gaps = mu[:, None] - mu[None, :]
    return np.linalg.norm(gaps * xt) / (np.linalg.norm(mu) * np.linalg.norm(xt))


def _subspace_error_oracle(xt, torus):
    es_weights = full_torus_of(torus).es_weights
    es = np.sqrt(np.sum(es_weights * np.abs(xt) ** 2)) / len(torus.labels)
    return es


def _assert_figures_match_oracles(d, torus):
    # c and p by the walk over the block, the norms by the walks over the
    # whole register's x~ that D stands for
    c, p, residual_norm, rel, es = engine._stage_figures(d, torus)
    c_o, p_o = _torus_split_oracle(d, torus.signs[:, 0::2])
    assert np.array_equal(c, c_o) and np.array_equal(p, p_o)
    xt = _full_register_xt(d, torus)
    residual_o = _residual_oracle(xt, p_o)
    assert residual_norm == pytest.approx(residual_o, rel=1e-12, abs=0.0)
    assert es == pytest.approx(_subspace_error_oracle(xt, torus), rel=1e-12, abs=0.0)
    if np.any(d):
        want = _relative_commutator_oracle(xt, torus)
        assert rel == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert rel == 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stage_figures_match_the_separate_walks(monkeypatch, n):
    # every block D that the three stages of a Haar level read, then
    # in-span and zero inputs on both tori, against the separate figure
    # walks
    real = engine._stage_figures
    seen = []

    def spy(d, torus):
        seen.append((d.copy(), torus))
        return real(d, torus)

    monkeypatch.setattr(engine, "_stage_figures", spy)
    decompose_one_level(haar_special_unitary(n, np.random.default_rng(60 + n)), n)
    monkeypatch.undo()
    # a Haar level's stage inputs lie far off the span, so each stage
    # skips the unrotated pretest and reads its rotated D alone
    assert [torus.name[0] for _, torus in seen] == ["H", "F", "F"]
    for d, torus in seen:
        _assert_figures_match_oracles(d, torus)
    rng = np.random.default_rng(70 + n)
    for family in ("H", "F"):
        torus = cartan_torus(family, n)
        words = tuple(pauli_word(label) for label in torus.labels)
        x = random_span_element(rng, words, scale=0.8)
        d = torus.u.conj().T @ _stage_block(x, family) @ torus.u
        _assert_figures_match_oracles(d, torus)
        _assert_figures_match_oracles(np.zeros_like(d), torus)


def _wrapped(values):
    return np.sort(np.angle(np.exp(1j * np.asarray(values))))


def test_phases_match_decides_as_every_cyclic_alignment():
    rng = np.random.default_rng(90)
    tol = engine._SPECTRUM_TOL
    cases = []
    for size in (4, 8, 16):
        base = rng.uniform(-np.pi, np.pi, size)
        # random lists, a match up to rounding, and a near miss
        cases.append((base, rng.uniform(-np.pi, np.pi, size)))
        cases.append((base, base[rng.permutation(size)] + 1e-12))
        cases.append((base, base + 2 * tol))
        # values straddling +-pi: wrapped and sorted, the two lists only
        # align after a cyclic shift
        edge = np.concatenate(([np.pi - 1e-10], rng.uniform(-3.0, 3.0, size - 1)))
        cases.append((edge, edge + 2e-10))
        cases.append((edge, edge + 1e-6))
    identity_misses = 0
    for p, spectrum in cases:
        want = linalg._cyclic_phase_mismatch(_wrapped(p), _wrapped(spectrum)) <= tol
        # the stages pass their spectra sorted and in (-pi, pi] already
        assert engine._phases_match(p, _wrapped(spectrum)) == want
        a, b = _wrapped(p), _wrapped(spectrum)
        identity = np.abs((a - b + np.pi) % (2 * np.pi) - np.pi).max()
        identity_misses += bool(want and identity > tol)
    # the straddling matches pass only on a shifted alignment
    assert identity_misses == 3


def test_a_level_takes_eight_determinants(monkeypatch):
    # two for k0 and two for K1 in the theta_Z stage; per theta_X stage
    # one for A and one for K A, with det A carried from the rotation and
    # the input's determinant from det K0 and det K1, not taken again
    g = haar_special_unitary(3, np.random.default_rng(3))
    decompose_one_level(g, 3)  # tori built and cached outside the count
    calls = _spy_kernels(monkeypatch)
    decompose_one_level(g, 3)
    assert sum(name == "_det" for name, _ in calls) == 8


@pytest.mark.parametrize("n", [3, 4])
def test_secondary_stage_psi_is_the_angle_of_det_a(monkeypatch, n):
    # det A is not taken again but carried from the rotation, as det(A)
    # times the scale's power, and psi must still be its angle; the scale
    # makes det A = +-1, so the angle is compared on the circle
    real = engine._minimize_full
    rotations = []

    def spy(*args):
        rotations.append(real(*args))
        return rotations[-1]

    monkeypatch.setattr(engine, "_minimize_full", spy)
    for seed in (21, 22):
        for w0, w1, det in _theta_x_inputs(n, seed):
            rotations.clear()
            _, _, psi, _ = engine._secondary_stage(w0, w1, n, det)
            a = rotations[0].k.b0
            assert abs(np.exp(1j * psi * len(a)) - np.linalg.det(a)) <= 1e-13


def test_an_inaccurate_csd_is_not_reported_as_a_non_unitary_input(monkeypatch):
    # a CSD that misses g by 1e-6 leaves k0 a determinant defect of about
    # 3e-6; g itself is special unitary, so the CSD is named
    g = haar_special_unitary(3, np.random.default_rng(8))
    real = engine._csd

    def off_by_1e6(*blocks):
        (u1, u2), theta, vh = real(*blocks)
        return (u1 + 1e-6, u2), theta, vh

    monkeypatch.setattr(engine, "_csd", off_by_1e6)
    with pytest.raises(SubspaceViolationError, match="cosine-sine decomposition leaves") as info:
        decompose_full(g, 3)
    assert info.value.stage == "h[H3]"


def test_theta_z_log_still_refuses_a_determinant_off_one():
    g = haar_special_unitary(3, np.random.default_rng(8)) * np.exp(0.3j / 8)
    with pytest.raises(NotUnitaryError, match="determinant defect"):
        compute_m(g, AxisInvolution(3, "Z"))


@pytest.mark.parametrize(
    "target, nth, path",
    [
        ("_secondary_stage", 8, "K2/f1[F3]"),
        ("_secondary_stage", 1, "f0[F4]"),
        ("_theta_z_stage", 2, "K0/h[H3]"),
    ],
)
def test_stage_failure_names_its_path(monkeypatch, target, nth, path):
    # stages run level first, then block by block: at n = 4 the top
    # level's h, f0 and f1, then h, f0 and f1 of K0, K1, K2 and K3, so
    # the eighth theta_X stage is the f1 stage of K2
    real = getattr(engine, target)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == nth:
            raise OptimizerFailedError("forced failure", best=("k1", "h"))
        return real(*args)

    monkeypatch.setattr(engine, target, failing)
    g = haar_special_unitary(4, np.random.default_rng(13))
    with pytest.raises(OptimizerFailedError) as info:
        decompose_full(g, 4)
    assert info.value.stage == path
    assert str(info.value) == f"{path}: forced failure"
    assert info.value.best == ("k1", "h")


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


def _recurse_oracle(g, n, prefix):
    """_recurse as it was when every SU(4) block of an n = 3 level went
    through a child call that rebuilt it as a leaf."""
    if n == 2:
        leaf = factors_module.Factor(FactorKind.SUB_UNITARY, level_qubits=3, matrix=g)
        return engine.LevelResult((leaf,), 0.0, ())
    level = decompose_one_level(g, n)
    factors = []
    phase = level.phase
    subspace_errors = [(prefix + label, v) for label, v in level.subspace_errors]
    slot = 0
    for factor in level.factors:
        if factor.kind is not FactorKind.SUB_UNITARY:
            factors.append(factor)
            continue
        child = _recurse_oracle(factor.matrix, n - 1, f"{prefix}K{slot}/")
        slot += 1
        factors.extend(child.factors)
        phase += child.phase
        subspace_errors.extend(child.subspace_errors)
    return engine.LevelResult(tuple(factors), phase, tuple(subspace_errors))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_n3_blocks_pass_through_as_leaves(n):
    g = haar_special_unitary(n, np.random.default_rng([31, n]))
    got = engine._recurse(g, n, "")
    want = _recurse_oracle(g, n, "")
    assert got.phase == want.phase
    assert got.subspace_errors == want.subspace_errors
    assert len(got.factors) == len(want.factors)
    for mine, theirs in zip(got.factors, want.factors):
        assert (mine.kind, mine.level_qubits, mine.basis_name, mine.coeffs,
                mine.subspace_residual) == (theirs.kind, theirs.level_qubits,
                theirs.basis_name, theirs.coeffs, theirs.subspace_residual)
        if mine.matrix is None:
            assert theirs.matrix is None
        else:
            assert mine.matrix.tobytes() == theirs.matrix.tobytes()


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
def test_decompose_full_su128_haar(su128_tree):
    assert su128_tree.report.approx_error <= DEFAULT_TOLS.reconstruct_bound(7)


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
    # rejected before any det is taken, so numpy warns of nothing (the
    # suite turns warnings into errors)
    with pytest.raises(NotUnitaryError, match="non-finite"):
        decompose_full(np.full((8, 8), np.nan), 3)
    with pytest.raises(ValueError):
        decompose_full(np.eye(2), 1)


def _stage_logs(n, seed):
    """(label, y, vectors) theta_Z logs of one register, as the block
    Y = m0[0::2, 1::2] and the SVD that the stage's CSD gives: exp of an
    H_n span element, the same perturbed off the span by eps, and a Haar
    input."""
    rng = np.random.default_rng(seed)
    torus = cartan_torus("H", n)
    h = random_span_element(rng, tuple(pauli_word(label) for label in torus.labels), 0.15)
    noise = random_span_element(rng, build_kg_basis(n).m_set)
    noise /= np.linalg.norm(noise)
    for eps in (0.0, 1e-14, 1e-10, 1e-8, 1e-4):
        yield eps, *engine._theta_z_log(expm_skew(h + eps * noise))[::3]
    yield "haar", *engine._theta_z_log(haar_special_unitary(n, rng))[::3]


def _f_blocks(n, seed):
    """(label, c_hat, values, vecs) F stage inputs on the 2^(n-1) block:
    an F_n span block, the same perturbed by eps, and a random one."""
    rng = np.random.default_rng(seed)
    torus = cartan_torus("F", n)
    half = 2 ** (n - 1)
    span = random_span_element(
        rng, tuple(pauli_word(label) for label in torus.labels), 0.15
    )[0::2, 0::2]
    a = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    noise = a - a.conj().T
    noise -= np.trace(noise) / half * np.eye(half)
    noise /= np.linalg.norm(noise)
    for label, c in [(eps, span + eps * noise) for eps in (0.0, 1e-14, 1e-10, 1e-8, 1e-4)] + [
        ("haar", 0.5 * noise)
    ]:
        values, vecs = np.linalg.eigh(-1j * c)
        yield label, (vecs * (1j * values)) @ vecs.conj().T, values, vecs


def _record_off_span(monkeypatch):
    real = engine._off_span
    verdicts = []

    def spy(norm, diagonal):
        verdicts.append(real(norm, diagonal))
        return verdicts[-1]

    monkeypatch.setattr(engine, "_off_span", spy)
    return verdicts


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(x, AlgebraElement):
            assert np.array_equal(x.matrix, y.matrix)
            assert x.coords == y.coords and x.residual_norm == y.residual_norm
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        elif isinstance(x, tuple):
            _assert_same_bits(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("n", [3, 4])
def test_the_pretest_bound_changes_no_bit_of_a_solve(monkeypatch, n):
    # where the diagonal of x~ rules the in-span shortcut out, the
    # unrotated figures are skipped; the solve must return bitwise what
    # it returns with that pretest always taken
    torus_h, torus_f = cartan_torus("H", n), cartan_torus("F", n)
    for seed in (1, 2):
        inputs = [(torus_h, label, y, vectors)
                  for label, y, vectors in _stage_logs(n, 80 + 10 * n + seed)]
        inputs += [(torus_f, label, c_hat, (vecs, values, vecs))
                   for label, c_hat, values, vecs in _f_blocks(n, 90 + 10 * n + seed)]
        for torus, label, x, vectors in inputs:
            verdicts = _record_off_span(monkeypatch)
            bounded = _minimize_full(x, torus, vectors)
            monkeypatch.setattr(engine, "_off_span", lambda norm, diagonal: False)
            full = _minimize_full(x, torus, vectors)
            monkeypatch.undo()
            _assert_same_bits(bounded, full)
            assert verdicts == [label == "haar"], label
            if label in (0.0, 1e-14):
                assert np.array_equal(bounded.k.b0, np.eye(2 ** (n - 1))), label
                assert np.array_equal(bounded.k.b1, np.eye(2 ** (n - 1))), label


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_block_solve_matches_the_parent_solves(n):
    # the theta_Z stage's solve read off its block matches the parent's
    # on the whole register to rounding, relative to ||m0||, with the
    # same K = I decisions and the same bits of K; the F stage's solve
    # is the parent's bit for bit
    torus_h, torus_f = cartan_torus("H", n), cartan_torus("F", n)
    identity = np.eye(2 ** (n - 1))
    for seed in (1, 2):
        for label, y, vectors in _stage_logs(n, 80 + 10 * n + seed):
            m0 = _stage_log(y, "H")
            v1, values, v2 = vectors
            want = _minimize_full_oracle(m0, torus_h, (v1, values, v2.conj().T))
            got = _minimize_full(y, torus_h, vectors)
            tol = 1e-13 * np.linalg.norm(m0)
            assert np.max(np.abs(np.subtract(got.coords, want.coords))) <= tol, label
            assert np.max(np.abs(got.p - want.p[0::2])) <= tol, label
            assert np.array_equal(want.p[1::2], -want.p[0::2]), label
            assert abs(got.residual_norm - want.residual_norm) <= tol, label
            assert abs(got.subspace_error - want.subspace_error) <= tol, label
            kept = np.array_equal(want.k1, np.eye(2**n))
            assert kept == (np.array_equal(got.k.b0, identity)
                            and np.array_equal(got.k.b1, identity)), label
            assert kept == (label in (0.0, 1e-14)), label
            _assert_same_bits(got.k, want.k1_blocks)
        for label, c_hat, values, vecs in _f_blocks(n, 90 + 10 * n + seed):
            a, coords, residual_norm, es, det_a = _f_rotation_oracle(
                c_hat, values, vecs, torus_f
            )
            got = _minimize_full(c_hat, torus_f, (vecs, values, vecs))
            assert np.array_equal(got.k.b0, a) and got.k.b1 is got.k.b0, label
            assert got.coords == tuple(coords.tolist()), label
            assert (got.residual_norm, got.subspace_error, got.det_a) == (
                residual_norm, es, det_a
            ), label


class _NoFullRegisterBasis:
    """A torus whose 2^n basis q and q_dag raise when read."""

    def __init__(self, torus):
        self._torus = torus

    def __getattr__(self, name):
        if name in ("q", "q_dag"):
            raise AssertionError(f"{self._torus.name}.{name} was read")
        return getattr(self._torus, name)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_haar_level_reads_no_full_register_torus_basis(monkeypatch, n):
    # each Cartan stage reads its block off U alone: no 2^n product with
    # the torus basis Q is left in a level
    real = engine.cartan_torus
    tori = []

    def guarded(family, n):
        tori.append(f"{family}{n}")
        return _NoFullRegisterBasis(real(family, n))

    g = haar_special_unitary(n, np.random.default_rng(36 + n))
    want = decompose_one_level(g, n)
    monkeypatch.setattr(engine, "cartan_torus", guarded)
    got = decompose_one_level(g, n)
    assert tori == [f"H{n}", f"F{n}", f"F{n}"]
    assert got.subspace_errors == want.subspace_errors
    assert [f.coeffs for f in got.factors] == [f.coeffs for f in want.factors]


@pytest.mark.parametrize("n, nth, path", [(3, 2, "f1[F3]"), (4, 5, "K1/f0[F3]")])
def test_payload_drift_is_refused_with_its_stage_path(monkeypatch, n, nth, path):
    # a drift of 1e-11 in the F rotation of the nth theta_X stage reaches
    # both payloads, S and T'; it is refused, not re-unitarized
    real = engine._minimize_full
    calls = []

    def drifting(x, torus, vectors):
        solve = real(x, torus, vectors)
        if torus.name[0] == "F":
            calls.append(x)
            if len(calls) == nth:
                a = (1.0 + 1e-11) * solve.k.b0
                solve = solve._replace(k=solve.k._replace(b0=a, b1=a))
        return solve

    monkeypatch.setattr(engine, "_minimize_full", drifting)
    g = haar_special_unitary(n, np.random.default_rng(31))
    with pytest.raises(NotUnitaryError, match="payload drift .* exceeds 1.000e-12") as info:
        decompose_full(g, n)
    assert info.value.stage == path
    assert str(info.value).startswith(f"{path}: payload drift")


@pytest.mark.parametrize("n, gaps", [(3, 5), (4, 21)])
def test_decompose_full_checks_its_input_once(monkeypatch, n, gaps):
    # validate_special_unitary checks the top-level g once; the level's
    # theta_Z log does not check it again, nor the blocks below it, which
    # passed their stage's drift check. Each theta_X stage still checks
    # its input w and its P (four gaps a level)
    g = haar_special_unitary(n, np.random.default_rng(32))
    real = engine._unitarity_gap
    seen = []

    def spy(u):
        seen.append(u)
        return real(u)

    monkeypatch.setattr(engine, "_unitarity_gap", spy)
    decompose_full(g, n)
    assert sum(u.shape == g.shape and np.array_equal(u, g) for u in seen) == 1
    assert len(seen) == gaps
    # one level called on its own still checks its input
    seen.clear()
    decompose_one_level(g, n)
    assert sum(u.shape == g.shape and np.array_equal(u, g) for u in seen) == 1
    with pytest.raises(NotUnitaryError) as info:
        decompose_one_level(1.01 * g, n)
    assert info.value.stage == f"h[H{n}]"
