"""Linear-algebra primitive tests.

Oracle policy: expm/logm are checked against scipy.linalg (independent
implementations), projections against hand-built decompositions, and
single frozen values are derived in the comments where they appear.
"""

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
from kgdecomp import linalg
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


KERNEL_SIZES = (1, 2, 4, 8, 16)


def _kernel_inputs(dim):
    """A general complex matrix, a Hermitian one and a Hermitian one with
    a degenerate spectrum (a triple eigenvalue, or all equal below 4)."""
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    values = np.repeat([0.5, -1.25], [min(dim, 3), dim - min(dim, 3)])
    degenerate = (q * values) @ q.conj().T
    return a, a + a.conj().T, 0.5 * (degenerate + degenerate.conj().T)


@pytest.mark.parametrize("dim", KERNEL_SIZES)
def test_hermitian_kernels_match_numpy(dim):
    for x in _kernel_inputs(dim)[1:]:
        w, v = linalg._eigh(x)
        scale = 1e-13 * max(1.0, np.max(np.abs(x)) * dim)
        assert np.max(np.abs(w - np.linalg.eigh(x)[0])) <= scale
        assert np.max(np.abs(linalg._eigvalsh(x) - np.linalg.eigvalsh(x))) <= scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-13
        assert np.linalg.norm((v * w) @ v.conj().T - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("dim", KERNEL_SIZES)
def test_svd_kernel_matches_numpy(dim):
    for x in _kernel_inputs(dim):
        u, s, vh = linalg._svd(x)
        assert np.max(np.abs(s - np.linalg.svd(x, compute_uv=False))) <= 1e-13 * s[0]
        assert np.all(np.diff(s) <= 0.0)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-13
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(dim)) <= 1e-13
        assert np.linalg.norm((u * s) @ vh - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("dim", KERNEL_SIZES)
def test_schur_kernel_matches_numpy(dim):
    # the eigenvalues sit on t's diagonal, in the routine's order
    for x in _kernel_inputs(dim):
        t, z = linalg._schur(x)
        assert np.array_equal(t, np.triu(t))
        assert np.linalg.norm(z.conj().T @ z - np.eye(dim)) <= 1e-13
        assert np.linalg.norm(z @ t @ z.conj().T - x) <= 1e-13 * np.linalg.norm(x)
        want = np.linalg.eigvals(x)
        got = np.diagonal(t)
        # each eigenvalue has a partner in the other list
        gaps = np.abs(got[:, None] - want[None, :])
        assert np.max(np.min(gaps, axis=1)) <= 1e-12 * np.linalg.norm(x)
        assert np.max(np.min(gaps, axis=0)) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("dim", KERNEL_SIZES)
def test_det_and_norm_kernels_match_numpy(dim):
    for x in _kernel_inputs(dim):
        want = np.linalg.det(x)
        assert abs(linalg._det(x) - want) <= 1e-13 * max(1.0, abs(want))
        assert linalg._norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-15)
        assert linalg._norm(x[0]) == pytest.approx(np.linalg.norm(x[0]), rel=1e-15)
    # a row swap flips the sign; an exactly singular matrix has det 0
    swap = np.eye(dim, dtype=complex)[::-1]
    assert linalg._det(swap) == pytest.approx(np.linalg.det(swap), abs=1e-15)
    assert linalg._det(np.zeros((dim, dim), dtype=complex)) == 0.0


def test_vdot_and_concatenate_skip_numpy_dispatchers():
    # _vdot and _concatenate are the C functions under numpy's
    # array-function dispatchers, read off their __wrapped__ attribute;
    # a numpy that drops it leaves the public names, and fails here
    assert linalg._vdot is not np.vdot
    assert linalg._concatenate is not np.concatenate
    x = np.arange(6.0) + 1j
    assert linalg._vdot(x, x) == np.vdot(x, x)
    assert np.array_equal(linalg._concatenate((x, x[::-1])), np.concatenate((x, x[::-1])))


def _det_oracle(a):
    """_det as numpy's product of U's diagonal, with the pivot parity
    counted from enumerate."""
    lu, piv, _ = scipy.linalg.lapack.zgetrf(a)
    det = lu.diagonal().prod()
    swaps = sum(row != pivot for row, pivot in enumerate(piv.tolist()))
    return -det if swaps % 2 else det


@pytest.mark.parametrize("dim", KERNEL_SIZES)
def test_det_keeps_the_bits_of_the_numpy_product(dim):
    rng = np.random.default_rng(90 + dim)
    shuffle = np.eye(dim, dtype=complex)[rng.permutation(dim)]
    reverse = -np.eye(dim, dtype=complex)[::-1]
    singular = _kernel_inputs(dim)[0].copy()
    singular[:, -1] = 0.0
    real = rng.standard_normal((dim, dim)).astype(complex)
    for x in (*_kernel_inputs(dim), shuffle, reverse, singular, real):
        got, want = linalg._det(x), _det_oracle(x)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
    assert linalg._det(singular) == 0.0


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_unitarity_gap_matches_the_dense_formula(dim):
    rng = np.random.default_rng(80 + dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary = np.linalg.qr(a)[0]
    for u in (unitary, unitary + 1e-6 * a, a):
        want = np.linalg.norm(u @ u.conj().T - np.eye(dim))
        assert abs(linalg._unitarity_gap(u) - want) <= 1e-15 * max(1.0, want)
    # a stack of blocks: the root sum of the blocks' squared gaps
    pair = np.array((unitary + 1e-6 * a, a))
    want = np.hypot(*(np.linalg.norm(u @ u.conj().T - np.eye(dim)) for u in pair))
    assert abs(linalg._unitarity_gap(pair) - want) <= 1e-15 * want
    nan = unitary.copy()
    nan[0, 0] = np.nan
    assert np.isnan(linalg._unitarity_gap(nan))
    # the cached identity stays the identity
    assert np.array_equal(linalg._identity(dim), np.eye(dim))


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
def test_csd_kernel_matches_cossin(dim):
    # a Haar unitary, and one built with repeated angles, 0 and pi/2
    rng = np.random.default_rng(70 + dim)
    half = dim // 2

    def unitary(size):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return np.linalg.qr(a)[0]

    theta = np.resize([0.3, 0.3, np.pi / 2, 0.0, 0.3, 1.1, np.pi / 2, 0.0], half)
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    cs = np.block([[c, -s], [s, c]])
    repeated = scipy.linalg.block_diag(unitary(half), unitary(half)) @ cs
    repeated = repeated @ scipy.linalg.block_diag(unitary(half), unitary(half))
    for x in (unitary(dim), repeated):
        blocks = (x[:half, :half], x[:half, half:], x[half:, :half], x[half:, half:])
        (u1, u2), angles, (v1h, v2h) = linalg._csd(*blocks)
        (cu1, cu2), want, (cv1h, cv2h) = scipy.linalg.cossin(x, p=half, q=half,
                                                             separate=True)
        assert np.max(np.abs(np.sort(angles) - np.sort(want))) <= 1e-13
        assert np.all((0.0 <= angles) & (angles <= np.pi / 2))
        for f in (u1, u2, v1h, v2h):
            assert np.linalg.norm(f.conj().T @ f - np.eye(half)) <= 1e-13
        c, s = np.diag(np.cos(angles)), np.diag(np.sin(angles))
        rebuilt = scipy.linalg.block_diag(u1, u2) @ np.block([[c, -s], [s, c]])
        rebuilt = rebuilt @ scipy.linalg.block_diag(v1h, v2h)
        assert np.linalg.norm(rebuilt - x) <= 1e-13
    # the angles the last input was built with come back
    assert np.max(np.abs(np.sort(angles) - np.sort(theta))) <= 1e-13


@pytest.mark.parametrize(
    "routine, kernel",
    [
        ("_ZHEEVD", "_eigh"),
        ("_ZHEEVD", "_eigvalsh"),
        ("_ZGESDD", "_svd"),
        ("_ZGEES", "_schur"),
        ("_ZGETRF", "_det"),
        ("_ZUNCSD", "_csd"),
    ],
)
def test_kernels_raise_on_lapack_failure(monkeypatch, routine, kernel):
    # a nonzero info (negative for zgetrf, whose positive info only marks
    # a zero pivot) is raised as numpy's LinAlgError
    real = getattr(linalg, routine)
    info = -1 if routine == "_ZGETRF" else 1

    def failing(*args, **kwargs):
        return real(*args, **kwargs)[:-1] + (info,)

    monkeypatch.setattr(linalg, routine, failing)
    a = np.eye(4, dtype=complex)
    # _csd takes the four 2 x 2 blocks of the 4 x 4 identity
    args = (a[:2, :2], a[:2, 2:], a[2:, :2], a[2:, 2:]) if kernel == "_csd" else (a,)
    with pytest.raises(np.linalg.LinAlgError, match=f"info={info}"):
        getattr(linalg, kernel)(*args)
