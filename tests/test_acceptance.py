"""Acceptance gate: the eight shipping criteria, one test per criterion,
each at its stated tolerance and each emitting a single pass/fail line.

Shared Haar batches come from session fixtures so the statistical
criteria and the confinement criterion aggregate over the same runs.
"""

import numpy as np
import pytest

from worked_example import worked_example_matrix
from kgdecomp import (
    AxisInvolution,
    FactorKind,
    RootSearchFailedError,
    build_kg_basis,
    compute_m,
    decompose_full,
    eigenphase_mismatch,
    expm_skew,
    haar_special_unitary,
    khk_stage,
    nearest_special_unitary,
    pauli_word,
    product,
    project_onto_span,
    solve_bch_split,
    truncated_bch,
)


def _gate(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_su8_haar_batch(su8_batch):
    s = su8_batch
    ok = (
        s.failures == 0
        and s.mean_approx_error <= 1e-10
        and s.mean_subspace_error <= 1e-3
    )
    _gate(
        "SU(8) x200 Haar batch",
        ok,
        f"failures={s.failures}, mean E_a={s.mean_approx_error:.3e} (<=1e-10), "
        f"mean E_s={s.mean_subspace_error:.3e} (<=1e-3)",
    )


def test_criterion_2_su16_haar_batch(su16_batch):
    s = su16_batch
    ok = (
        s.failures == 0
        and s.mean_approx_error <= 1e-9
        and s.mean_subspace_error <= 1e-2
    )
    _gate(
        "SU(16) x10 Haar batch",
        ok,
        f"failures={s.failures}, mean E_a={s.mean_approx_error:.3e} (<=1e-9), "
        f"mean E_s={s.mean_subspace_error:.3e} (<=1e-2)",
    )


def test_criterion_3_worked_example_regression():
    g_raw = worked_example_matrix()
    g, _ = nearest_special_unitary(g_raw)
    kg = build_kg_basis(3)
    m0 = compute_m(g, AxisInvolution(3, "Z"))

    labels = [w.label for w in kg.m_set]
    ideal = np.array([1.0 if l == "XXX" else -1.0 if l == "ZZX" else 0.0
                      for l in labels])
    m0_coords, _ = project_onto_span(m0.matrix, kg.m_set)
    coord_gap = float(np.max(np.abs(m0_coords - ideal)))

    tree = decompose_full(g, 3)
    product_gap = float(np.linalg.norm(g_raw - product(tree)))

    h_factor = next(f for f in tree.factors if f.basis_name == "H3")
    h_mat = sum(c * pauli_word(l).matrix for l, c in h_factor.coeffs)
    spectrum_gap = eigenphase_mismatch(expm_skew(h_mat), expm_skew(m0.matrix))

    ok = coord_gap <= 2e-2 and product_gap <= 5e-3 and spectrum_gap <= 1e-6
    _gate(
        "rational worked-example regression",
        ok,
        f"m0 coord gap={coord_gap:.3e} (<=2e-2), "
        f"product gap={product_gap:.3e} (<=5e-3), "
        f"spectrum gap={spectrum_gap:.3e} (<=1e-6)",
    )


def test_criterion_4_involution_identity_suite():
    kg = build_kg_basis(3)
    inv_z = AxisInvolution(3, "Z")
    inv_x = AxisInvolution(3, "X")
    worst_z = worst_x = 0.0
    for i in range(100):
        g = haar_special_unitary(3, np.random.default_rng(5000 + i))
        m0 = compute_m(g, inv_z)
        w = inv_z.apply(g.conj().T) @ g
        worst_z = max(worst_z, float(np.linalg.norm(expm_skew(2 * m0.matrix) - w)))

        stage = khk_stage(g, inv_z, kg.h_set)
        w1 = stage.k0 @ stage.k1
        w2 = stage.k1.conj().T
        m1 = compute_m(w1, inv_x, (inv_z,))
        m2 = compute_m(w2, inv_x, (inv_z,))
        gap1 = np.linalg.norm(expm_skew(2 * m1.matrix) - inv_x.apply(w1.conj().T) @ w1)
        gap2 = np.linalg.norm(expm_skew(2 * m2.matrix) - inv_x.apply(w2.conj().T) @ w2)
        worst_x = max(worst_x, float(gap1), float(gap2))
    ok = worst_z <= 1e-10 and worst_x <= 1e-10
    _gate(
        "involution exponential identities x100",
        ok,
        f"worst primary gap={worst_z:.3e}, worst secondary gap={worst_x:.3e} "
        f"(<=1e-10)",
    )


def test_criterion_5_basis_property_suite():
    problems = []
    for n in (2, 3, 4):
        kg = build_kg_basis(n)
        if len(kg.m_set) + len(kg.k_set) != 4**n - 1:
            problems.append(f"n={n} span size")
        want_h = 3 if n == 2 else 2 ** (n - 1)
        want_f = 0 if n == 2 else 2 ** (n - 1) - 1
        if len(kg.h_set) != want_h or len(kg.f_set) != want_f:
            problems.append(f"n={n} Cartan sizes")

        words = kg.m_set + kg.k_set
        mats = np.stack([w.matrix for w in words])
        table = np.einsum("aij,bji->ab", mats, mats)
        if np.max(np.abs(table + 2.0 ** (n - 2) * np.eye(len(words)))) > 1e-12:
            problems.append(f"n={n} trace table")

        for name in ("h_set", "f_set"):
            for a in getattr(kg, name):
                for b in getattr(kg, name):
                    if np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix)) > 1e-14:
                        problems.append(f"n={n} {name} not Abelian")

        if n >= 3:
            inv_z = AxisInvolution(n, "Z")
            inv_x = AxisInvolution(n, "X")
            parts = (
                [(w, 1, inv_z) for w in kg.k_set]
                + [(w, -1, inv_z) for w in kg.m_set]
                + [(w, 1, inv_x) for w in kg.k0_set]
                + [(w, -1, inv_x) for w in kg.k1_set]
                + [(kg.z_word, -1, inv_x)]
            )
            for w, sign, inv in parts:
                if not np.array_equal(inv.apply(w.matrix), sign * w.matrix):
                    problems.append(f"n={n} partition {w.label}")

    # closure at n=3: [k,k] in k, [k,m] in m, [m,m] in k
    kg3 = build_kg_basis(3)
    k_mats = [w.matrix for w in kg3.k_set]
    m_mats = [w.matrix for w in kg3.m_set]
    worst_closure = 0.0
    for pairs, span in (
        ([(a, b) for a in k_mats for b in k_mats], kg3.k_set),
        ([(a, b) for a in k_mats for b in m_mats], kg3.m_set),
        ([(a, b) for a in m_mats for b in m_mats], kg3.k_set),
    ):
        for a, b in pairs:
            _, residual = project_onto_span(a @ b - b @ a, span)
            worst_closure = max(worst_closure, float(np.linalg.norm(residual)))
    if worst_closure > 1e-12:
        problems.append("n=3 closure")

    ok = not problems
    _gate(
        "basis cardinality/orthogonality/partition/closure suite",
        ok,
        f"worst closure residual={worst_closure:.3e} (<=1e-12)"
        + (f"; issues: {problems}" if problems else ""),
    )


def test_criterion_6_construct_recover_oracle():
    kg = build_kg_basis(3)
    inv_z = AxisInvolution(3, "Z")
    worst_spec = worst_ea = 0.0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        h_true = sum(c * w.matrix
                     for c, w in zip(rng.uniform(-0.5, 0.5, 4), kg.h_set))
        k = expm_skew(sum(c * w.matrix
                          for c, w in zip(rng.uniform(-0.4, 0.4, 31), kg.k_set)))
        k_prime = expm_skew(sum(c * w.matrix
                                for c, w in zip(rng.uniform(-0.4, 0.4, 31),
                                                kg.k_set)))
        g = k @ (k_prime @ expm_skew(h_true) @ k_prime.conj().T)
        stage = khk_stage(g, inv_z, kg.h_set)
        worst_spec = max(
            worst_spec,
            eigenphase_mismatch(expm_skew(stage.h.matrix), expm_skew(h_true)),
        )
        rebuilt = stage.k0 @ stage.k1 @ expm_skew(stage.h.matrix) @ stage.k1.conj().T
        worst_ea = max(worst_ea, float(np.linalg.norm(g - rebuilt)))
    ok = worst_spec <= 1e-6 and worst_ea <= 1e-10
    _gate(
        "construct-then-recover x50",
        ok,
        f"worst spectrum gap={worst_spec:.3e} (<=1e-6), "
        f"worst E_a={worst_ea:.3e} (<=1e-10)",
    )


def test_criterion_7_error_confinement(su8_batch, su16_batch):
    worst_unitarity = worst_det = 0.0
    misplaced = 0
    checked = 0
    for batch in (su8_batch, su16_batch):
        for result in batch.results:
            for factor in result.tree.factors:
                if factor.kind in (FactorKind.SUB_UNITARY, FactorKind.LAST_QUBIT):
                    mat = factor.matrix
                    eye = np.eye(mat.shape[0])
                    worst_unitarity = max(
                        worst_unitarity,
                        float(np.linalg.norm(mat @ mat.conj().T - eye)),
                    )
                    worst_det = max(
                        worst_det, float(abs(np.linalg.det(mat) - 1.0))
                    )
                    if factor.subspace_residual is not None:
                        misplaced += 1
                    checked += 1
                elif factor.kind is FactorKind.CARTAN_EXP:
                    if factor.subspace_residual is None:
                        misplaced += 1
    ok = worst_unitarity <= 1e-10 and worst_det <= 1e-10 and misplaced == 0
    _gate(
        "error confinement to Abelian slots",
        ok,
        f"{checked} payload factors, worst unitarity={worst_unitarity:.3e}, "
        f"worst det gap={worst_det:.3e} (<=1e-10), misplaced residuals={misplaced}",
    )


def test_criterion_8_bch_baseline_agreement():
    kg = build_kg_basis(3)
    inv_z = AxisInvolution(3, "Z")
    worst_gap = 0.0
    for i in range(20):
        rng = np.random.default_rng(9000 + i)
        coords = rng.uniform(-1.0, 1.0, len(kg.m_set))
        m_mat = sum(c * w.matrix for c, w in zip(coords, kg.m_set))
        m_mat = m_mat * (0.04 / np.linalg.norm(m_mat))
        g = expm_skew(m_mat)
        reference = compute_m(g, inv_z)
        _, m_elt, _ = solve_bch_split(g, kg.k_set, kg.m_set)
        worst_gap = max(
            worst_gap, float(np.linalg.norm(m_elt.matrix - reference.matrix))
        )

    a = 0.25 * pauli_word("IIZ").matrix
    b = -0.75 * pauli_word("ZZI").matrix
    collapse_exact = np.array_equal(truncated_bch(a, b, 6), a + b)

    # diagnostic only: mixed exp(k) exp(m) inputs, where the truncation
    # actually bites (pure exponentials ride the commuting fast path)
    print("BCH split reconstruction by norm (diagnostic, ungated):")
    rng = np.random.default_rng(77)
    k_dir = sum(c * w.matrix
                for c, w in zip(rng.uniform(-1.0, 1.0, len(kg.k_set)), kg.k_set))
    k_dir = k_dir / np.linalg.norm(k_dir)
    m_dir = sum(c * w.matrix
                for c, w in zip(rng.uniform(-1.0, 1.0, len(kg.m_set)), kg.m_set))
    m_dir = m_dir / np.linalg.norm(m_dir)
    for norm in (0.02, 0.2, 1.0):
        g = expm_skew(norm * k_dir) @ expm_skew(norm * m_dir)
        try:
            k_elt, m_elt, residual = solve_bch_split(g, kg.k_set, kg.m_set)
            note = ""
        except RootSearchFailedError as exc:
            k_elt, m_elt, residual = exc.best
            note = " (root search gave up)"
        recon = np.linalg.norm(
            g - expm_skew(k_elt.matrix) @ expm_skew(m_elt.matrix)
        )
        print(f"  scale {norm:<4}: reconstruction = {recon:.3e}, "
              f"root residual = {residual:.3e}{note}")

    ok = worst_gap <= 1e-6 and collapse_exact
    _gate(
        "truncated-series split agreement x20",
        ok,
        f"worst |m_bch - m_involution|={worst_gap:.3e} (<=1e-6), "
        f"commuting collapse exact={collapse_exact}",
    )
