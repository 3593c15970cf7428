"""Core recursive Cartan decomposition engine.

One level factors G in SU(2^n) by three stage calls. The theta_Z stage
computes m0 = (1/2) log(theta_Z(G^dag) G), splits off K00 = G exp(-m0),
and conjugates m0 into the Cartan span H_n by driving the commutator
[v, K01^dag m0 K01] to zero over K01 in exp(k_n), where v is a regular
generator of the Cartan torus. One theta_X stage then runs on K00 K01
and on K01^dag: it lands the K_n1 part of its logarithm in the F_n
Cartan, turns the central I..IZ part into a last-qubit factor, and
strips the trailing identity qubit off its K factors, giving

    G = e^{i phi} (K0 x I) e^{f0} (K1 x I) (I x Kt0)
        e^{h0} (K2 x I) e^{f1} (K3 x I) (I x Kt1)

whose SU(2^(n-1)) blocks recurse down to two-qubit leaves.

Both involution logarithms are theta-odd by construction, also where
theta(g^dag) g has the eigenvalue -1 and the principal log is not (see
compute_m), so structured gates split like generic ones.

The Cartan optimizer is Newton iteration on the critical-point
condition [v, h] = 0 of the Killing objective over the chart
K <- K exp(delta), delta in k, started at K = I and, if that fails, at
RESTARTS random starts seeded by RESTART_SEED, each capped at
MAX_NEWTON_STEPS steps. The torus generator v has binary weights and
distinct eigenvalues (see build_v), so [v, h] = 0 says that h is
diagonal in v's eigenbasis, and each step solves the linearized
condition entrywise there: the Jacobi-type root-space update of
Kleinsteuber, Helmke and Hueper (SIAM J. Matrix Anal. Appl. 26:42,
2004). Any critical point is acceptable: [v, h] = 0 forces h into the
centralizer of v, which is the Cartan span because v is regular, and
the Cartan element is only ever determined up to its Weyl orbit anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .basis import KGBasis, PauliWord, build_kg_basis, word_stack
from .config import CARTAN_TOL, DEFAULT_TOLS, PATTERN_TOL, SUBSPACE_TOL, Tolerances
from .errors import (
    DimensionMismatchError,
    NotTensorWithIdentityError,
    NotUnitaryError,
    OptimizerFailedError,
    ReconstructionError,
    SubspaceViolationError,
)
from .factors import (
    DecompositionReport,
    Factor,
    FactorKind,
    FactorTree,
    # expand is unused here since the E_a gate calls product;
    # perfbench/spans.py still patches it at this name
    expand,
    product,
)
from .involutions import AxisInvolution
from .linalg import (
    AlgebraElement,
    as_matrix,
    commutation_defect,
    eigenphase_mismatch,
    expm_skew,
    expm_skew_many,
    logm_unitary,
    nearest_special_unitary,
    project_onto_span,
    su_defects,
)

__all__ = [
    "MAX_NEWTON_STEPS",
    "RESTARTS",
    "RESTART_SEED",
    "StageResult",
    "LevelResult",
    "compute_m",
    "residual_k",
    "build_v",
    "objective",
    "khk_stage",
    "extract_subunitary",
    "extract_last_qubit",
    "decompose_one_level",
    "decompose_full",
    "validate_special_unitary",
]

_SPECTRUM_TOL = 1e-8
_POLISH_TARGET = 1e-13
_REPAIR_THRESHOLD = 1e-12
_INGEST_TOL = 1e-8

MAX_NEWTON_STEPS = 400
"""Newton step cap per optimizer start. Converging starts take a few
dozen steps on Haar inputs (35 in the top H stage of Haar SU(64)) and at
most 21 on the Pauli exponentials of tests/pauli_sweep.py; a few on
degenerate structured inputs need 150-340. The cap ends a start that
stalls, so that a restart runs."""

RESTARTS = 4
"""Seeded random starts tried after the K = I start fails."""

RESTART_SEED = 0
"""Seed of the restart draws, whose coordinates on the k words are i.i.d.
N(0, 1/12), the variance of U[-1/2, 1/2] (see _minimize_full)."""


@dataclass(frozen=True)
class StageResult:
    """One KHK stage: G = k0 k1 exp(h) k1^dag with h Abelian.

    h carries coordinates in the stage Cartan basis; subspace_error is the
    commutation defect of the raw k1^dag m k1 against the Cartan basis,
    where m is the involution logarithm the stage split off.
    """

    k0: np.ndarray
    k1: np.ndarray
    h: AlgebraElement
    optimizer_iters: int
    subspace_error: float


class LevelResult(NamedTuple):
    """Factors, phase and labeled diagnostics of one level, or of a whole
    subtree once _recurse has spliced the children in."""

    factors: Tuple[Factor, ...]
    phase: float
    subspace_errors: Tuple[Tuple[str, float], ...]
    optimizer_stats: Tuple[Tuple[str, int], ...]


def validate_special_unitary(g: np.ndarray) -> float:
    """Returns the unitarity defect, raising if g is not SU within 1e-8."""
    # checked first, so that no det of a NaN or inf matrix is taken
    if not np.all(np.isfinite(g)):
        raise NotUnitaryError("input has non-finite entries")
    defect, det_defect = su_defects(g)
    # written as `not <=` so that a NaN defect fails too
    if not defect <= _INGEST_TOL:
        raise NotUnitaryError(
            f"unitarity defect {defect:.3e} exceeds {_INGEST_TOL:.3e}"
        )
    if not det_defect <= _INGEST_TOL:
        raise NotUnitaryError(
            f"determinant defect {det_defect:.3e} exceeds {_INGEST_TOL:.3e}"
        )
    return defect


def _maybe_repair(k: np.ndarray) -> np.ndarray:
    """Re-unitarizes k when its drift exceeds the repair threshold."""
    defect = np.linalg.norm(k @ k.conj().T - np.eye(k.shape[0]))
    if defect > _REPAIR_THRESHOLD:
        k, _ = nearest_special_unitary(k)
    return k


def compute_m(
    g: np.ndarray,
    inv: AxisInvolution,
    fixing: Sequence[AxisInvolution] = (),
) -> AlgebraElement:
    """The involution logarithm m = (1/2) log(theta(g^dag) g) on its subspace.

    w = theta(g^dag) g satisfies theta(w) = w^dag, so away from the
    eigenvalue -1 its principal log is theta-odd. On the eigenspace E of
    the eigenvalues within 1e-9 of -1 the principal log would be
    i pi P_E, which is theta-even; the log takes i pi J there instead,
    with J Hermitian, J^2 = P_E and theta(J) = -J
    (AxisInvolution.odd_reflection), and raises no branch warning for
    that cluster. exp(2m) = w holds within tolerance (a tested
    invariant). It is snapped by O(4^n) involution averages: its skew
    part, its theta-odd part, then its part fixed by each phi in fixing,
    (a + phi(a)) / 2; the theta_X stage passes (theta_Z,) to land in
    span(K_n1) + span(I..IZ). The pre-snap residual is on residual_norm.

    Raises:
        NotUnitaryError: g is not special unitary within tolerance.
        SubspaceViolationError: projection residual exceeds the subspace
            tolerance, or the -1 eigenspace has no theta-odd log.
    """
    g = np.asarray(g, dtype=complex)
    defect = validate_special_unitary(g)
    w = inv.apply(g.conj().T) @ g
    log_tol = max(DEFAULT_TOLS.structure * g.shape[0], 4.0 * defect)
    m_raw = 0.5 * logm_unitary(w, tol=log_tol, odd_branch=inv.odd_reflection)
    m = 0.5 * (m_raw - m_raw.conj().T)
    m = m - inv.even_part(m)
    for fix in fixing:
        m = fix.even_part(m)
    residual_norm = float(np.linalg.norm(m_raw - m))
    if residual_norm > SUBSPACE_TOL:
        raise SubspaceViolationError(
            f"m lies {residual_norm:.3e} from its span, above {SUBSPACE_TOL:.3e}"
        )
    return AlgebraElement(matrix=m, residual_norm=residual_norm)


def residual_k(g: np.ndarray, m: AlgebraElement) -> np.ndarray:
    """The involution-fixed cofactor g exp(-m) of the stage split."""
    return np.asarray(g, dtype=complex) @ expm_skew(-as_matrix(m))


def _symplectic_bits(label: str) -> int:
    """The (x, z) bit pairs of a Pauli label, two bits per qubit, as an int.

    Words multiply, up to phase, as these vectors add over GF(2)
    (Aaronson & Gottesman, PRA 70, 052328, 2004).
    """
    bits = 0
    for letter in label:
        bits = (bits << 2) | "IZXY".index(letter)
    return bits


def build_v(cartan: Sequence[PauliWord]) -> AlgebraElement:
    """The regular torus generator v = sum_i w_i u_i with binary weights.

    Walking cartan in order, a word whose symplectic bit vector is
    GF(2)-independent of the words kept so far gets the next weight
    1, 2, 4, ...; a word that is a product of kept ones gets 0, so H_3
    gets (1, 2, 4, 0) and F_4 gets (1, 2, 4, 8, 0, 0, 0). The n kept
    words of an H_n or F_n set have 2^n joint eigenspaces of dimension
    one, so -i v has 2^n distinct eigenvalues, sums of +-w_i / 2 with gap
    1, and its centralizer is exactly the Cartan span. The engine passes
    the canonical order from build_kg_basis, so v is reproducible.
    """
    pivots = {}
    weights = []
    for word in cartan:
        bits = _symplectic_bits(word.label)
        while bits and bits.bit_length() in pivots:
            bits ^= pivots[bits.bit_length()]
        if bits:
            pivots[bits.bit_length()] = bits
            weights.append(2.0 ** (len(pivots) - 1))
        else:
            weights.append(0.0)
    return AlgebraElement(
        matrix=np.tensordot(np.asarray(weights), word_stack(cartan), axes=1),
        coords=tuple(weights),
        residual_norm=0.0,
    )


def objective(
    v: AlgebraElement,
    m0: AlgebraElement,
    theta: Sequence[float],
    k_basis: Sequence[PauliWord],
) -> float:
    """Killing-form objective f(theta) = c_N Re tr(v K^dag m0 K).

    K = expm_skew(sum_j theta_j k_j) and c_N = 2 * 2^n normalizes the
    trace form to the su(N) Killing form. The K^dag m0 K orientation
    makes first-order criticality force [v, K^dag m0 K] = 0, so the
    optimizer's terminal h = K^dag m0 K lies in the centralizer of v.
    """
    k_stack = word_stack(k_basis)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(k_basis),):
        raise DimensionMismatchError(
            f"theta has shape {theta.shape}, expected ({len(k_basis)},)"
        )
    v_mat = as_matrix(v)
    m_mat = as_matrix(m0)
    c_n = 2.0 * v_mat.shape[0]
    k = expm_skew_many(np.tensordot(theta, k_stack, axes=1)[None])[0]
    return float(c_n * np.einsum("ij,ji->", v_mat, k.conj().T @ m_mat @ k).real)


def _newton_polish(
    k1: np.ndarray,
    m0_mat: np.ndarray,
    torus: Tuple[np.ndarray, np.ndarray],
    fixing: Sequence[AxisInvolution],
    max_steps: int,
) -> Tuple[np.ndarray, float, int]:
    """Drives [v, K^dag m0 K] to zero by Newton steps K <- K exp(delta).

    torus = (mu, B) is the eigendecomposition -i v = B diag(mu) B^dag
    with mu distinct, so [v, h] = 0 exactly when h~ = B^dag h B is
    diagonal, and ||[v, h]|| = ||(mu_x - mu_y) h~_xy||. To first order
    the update moves h~ by -[X, h~] with X = B^dag delta B, and at the
    diagonal i d of h~ that bracket's (x, y) entry is i X_xy (d_y - d_x).
    Each step solves this entrywise, X_xy = h~_xy / (i (d_y - d_x)), with
    X_xy = 0 where |d_y - d_x| <= 1e-12 (1 + max |d|), and takes
    delta = P_k(B X B^dag), where P_k multiplies the fixed-part maps
    (1 + theta) / 2 of the involutions in fixing, whose common fixed
    algebra is k. A step longer than 1 in word coordinates,
    ||delta||_F / sqrt(2^n / 4), is clipped to unit length, and a zero
    step ends the start. Takes at most max_steps steps and evaluates
    every iterate, the last one included. Returns the best iterate, its
    relative commutator ||[v,h]|| / (||v|| ||h||), and the number of
    steps taken.
    """
    mu, basis = torus
    basis_dag = basis.conj().T
    word_norm = np.sqrt(basis.shape[0] / 4.0)
    v_gaps = mu[:, None] - mu[None, :]
    norm_v = np.linalg.norm(mu)
    best_k, best_rel = k1, np.inf
    for steps in range(max_steps + 1):
        kb = k1 @ basis
        h = kb.conj().T @ m0_mat @ kb
        # exactly skew-Hermitian, or a tiny gap would magnify the rounding
        # into a non-skew step
        h = 0.5 * (h - h.conj().T)
        rel = np.linalg.norm(v_gaps * h) / (norm_v * np.linalg.norm(h) + 1e-300)
        if rel < best_rel:
            best_k, best_rel = k1, rel
        if rel <= _POLISH_TARGET or steps == max_steps:
            break
        d = np.diagonal(h).imag
        gaps = 1j * (d[None, :] - d[:, None])
        live = np.abs(gaps) > 1e-12 * (1.0 + np.max(np.abs(d)))
        delta = basis @ np.divide(h, gaps, out=np.zeros_like(h), where=live) @ basis_dag
        for inv in fixing:
            delta = inv.even_part(delta)
        step_norm = float(np.linalg.norm(delta)) / word_norm
        if not np.isfinite(step_norm) or step_norm == 0.0:
            break
        if step_norm > 1.0:
            delta = delta / step_norm
        k1 = k1 @ expm_skew(delta)
    return best_k, best_rel, steps


def _minimize_full(
    m0,
    cartan: Sequence[PauliWord],
    fixing: Sequence[AxisInvolution],
) -> Tuple[np.ndarray, AlgebraElement, int, float]:
    """Conjugates m0 into the Cartan span over the subgroup exp(k).

    k is the algebra fixed by every involution in fixing. Runs the
    eigenbasis Newton iteration on [v, K^dag m0 K] = 0 from K = I, then
    from RESTARTS random starts exp(X) seeded by RESTART_SEED, X the
    traceless fixed part of a Gaussian skew matrix, each for at most
    MAX_NEWTON_STEPS steps, and stops at the first start within
    CARTAN_TOL. The start with the lowest relative commutator is checked
    once: it must also lie within SUBSPACE_TOL of the span, and exp(h)
    must share the eigenphases of exp(m0) (h is only determined up to
    its Weyl orbit). An m0 of norm at most Tolerances.structure counts
    as zero: K = I, h = 0, 0 steps.

    Returns (k1, h, steps, subspace_error): h = k1^dag m0 k1 snapped
    onto the span, with the pre-projection residual on h.residual_norm
    and h.coords in the order cartan is given; steps are the winning
    start's; subspace_error is the commutation defect of the raw h.

    Raises:
        OptimizerFailedError: the best start fails a bound; its (k1, h)
            pair rides in the error's `best` attribute.
    """
    m0_mat = as_matrix(m0)
    dim = m0_mat.shape[0]

    norm_m0 = np.linalg.norm(m0_mat)
    if norm_m0 <= DEFAULT_TOLS.structure:
        zero = AlgebraElement(
            matrix=np.zeros_like(m0_mat),
            coords=(0.0,) * len(cartan),
            residual_norm=float(norm_m0),
        )
        subspace_error = float(commutation_defect(m0_mat, cartan))
        return np.eye(dim, dtype=complex), zero, 0, subspace_error

    torus = np.linalg.eigh(-1j * build_v(cartan).matrix)
    rng = np.random.default_rng(RESTART_SEED)
    for attempt in range(1 + RESTARTS):
        if attempt == 0:
            k1 = np.eye(dim, dtype=complex)
        else:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            # each word coordinate of a - a^dag has variance 16 / dim
            start = np.sqrt(dim / 192.0) * (a - a.conj().T)
            start -= np.trace(start) / dim * np.eye(dim)
            for inv in fixing:
                start = inv.even_part(start)
            k1 = expm_skew(start)
        k1, rel, steps = _newton_polish(k1, m0_mat, torus, fixing, MAX_NEWTON_STEPS)
        if attempt == 0 or rel < best_rel:
            best_k1, best_rel, best_steps = k1, rel, steps
        if rel <= CARTAN_TOL:
            break

    k1 = _maybe_repair(best_k1)
    h_raw = k1.conj().T @ m0_mat @ k1
    coords, residual = project_onto_span(h_raw, cartan)
    residual_norm = float(np.linalg.norm(residual))
    h = AlgebraElement(
        matrix=h_raw - residual,
        coords=tuple(float(c) for c in coords),
        residual_norm=residual_norm,
    )
    if (
        best_rel <= CARTAN_TOL
        and residual_norm <= SUBSPACE_TOL
        and eigenphase_mismatch(expm_skew(h.matrix), expm_skew(m0_mat))
        <= _SPECTRUM_TOL
    ):
        return k1, h, best_steps, float(commutation_defect(h_raw, cartan))
    raise OptimizerFailedError(
        f"best start ended at relative commutator {best_rel:.3e} "
        f"(bound {CARTAN_TOL:.1e}), projection residual {residual_norm:.3e}",
        best=(k1, h),
    )


def khk_stage(
    g: np.ndarray,
    inv: AxisInvolution,
    cartan: Sequence[PauliWord],
) -> StageResult:
    """One full KHK stage: G = k0 k1 exp(h) k1^dag.

    k0 = g exp(-m) is fixed by the stage involution; k1, fixed by it too,
    and h come from the Cartan optimizer on m.
    """
    m = compute_m(g, inv)
    k0 = _maybe_repair(residual_k(g, m))
    return StageResult(k0, *_minimize_full(m, cartan, (inv,)))


def extract_subunitary(k: np.ndarray, n: int) -> Tuple[np.ndarray, float]:
    """Strips the trailing identity qubit off a matrix with shape A (x) I2.

    sub' is the stride-2 submatrix (even rows/columns); the global phase
    phi = arg(det(sub')) / 2^(n-1) is divided out so det(sub) = 1.

    Raises:
        NotTensorWithIdentityError: block pattern violated beyond the
            pattern tolerance.
    """
    k = np.asarray(k, dtype=complex)
    dim = 2**n
    if k.shape != (dim, dim):
        raise DimensionMismatchError(f"expected shape {(dim, dim)}, got {k.shape}")
    even = k[0::2, 0::2]
    odd = k[1::2, 1::2]
    cross = max(np.linalg.norm(k[0::2, 1::2]), np.linalg.norm(k[1::2, 0::2]))
    mismatch = np.linalg.norm(even - odd)
    if max(cross, mismatch) > PATTERN_TOL:
        raise NotTensorWithIdentityError(
            f"pattern defect {max(cross, mismatch):.3e} exceeds {PATTERN_TOL:.3e}"
        )
    sub = 0.5 * (even + odd)
    phase = float(np.angle(np.linalg.det(sub))) / 2 ** (n - 1)
    sub = np.exp(-1j * phase) * sub
    return _maybe_repair(sub), phase


def extract_last_qubit(m_tilde, n: int) -> np.ndarray:
    """Exponentiates the central phase log into its SU(2) last-qubit factor.

    m_tilde must be (i alpha / 2) I^(n-1) (x) Z; the result is the
    expm_skew of its top-left 2x2 block, diag(e^{i alpha/2}, e^{-i alpha/2}).

    Raises:
        SubspaceViolationError: m_tilde is not a real multiple of the
            central word within the pattern tolerance.
    """
    mat = as_matrix(m_tilde)
    dim = 2**n
    if mat.shape != (dim, dim):
        raise DimensionMismatchError(f"expected shape {(dim, dim)}, got {mat.shape}")
    (alpha,), residual = project_onto_span(mat, (PauliWord("I" * (n - 1) + "Z"),))
    defect = np.linalg.norm(residual)
    if defect > PATTERN_TOL * (1.0 + abs(alpha)):
        raise SubspaceViolationError(
            f"central-phase defect {defect:.3e} exceeds tolerance"
        )
    return expm_skew(mat[:2, :2], tol=max(DEFAULT_TOLS.structure * 2, 4.0 * defect))


def _cartan_factor(
    element: AlgebraElement,
    cartan: Sequence[PauliWord],
    basis_name: str,
    level: int,
) -> Factor:
    """Builds a CartanExp factor from a projected Cartan element."""
    return Factor(
        kind=FactorKind.CARTAN_EXP,
        level_qubits=level,
        basis_name=basis_name,
        coeffs=tuple((word.label, float(c)) for word, c in zip(cartan, element.coords)),
        subspace_residual=element.residual_norm,
    )


def _secondary_stage(
    w: np.ndarray, n: int, kg: KGBasis, inv_x: AxisInvolution
) -> Tuple[Tuple[Factor, ...], float, float, float, int]:
    """The theta_X stage on one K-type input w of level n.

    m = (1/2) log(theta_X(w^dag) w) lands in span(K_n1) + span(I..IZ); its
    K_n1 part m_hat, m minus its I..IZ part, is conjugated into F_n over
    exp(K_n0) as m_hat = T e^f T^dag, and the central remainder m - m_hat
    becomes the last-qubit factor Q. With k = w exp(-m), k T = e^{i phi} (S x I) and
    T = e^{i psi} (T' x I),

        w = e^{i(phi - psi)} (S x I) e^f (T'^dag x I) (I x Q).

    Returns the factors (S, e^f, T'^dag, Q), phi, psi, the optimizer's
    subspace error and its step count.
    """
    inv_z = AxisInvolution(n, "Z")
    m = compute_m(w, inv_x, (inv_z,))
    k = _maybe_repair(residual_k(w, m))
    _, m_hat = project_onto_span(m.matrix, (kg.z_word,))
    k1, f, steps, subspace_error = _minimize_full(m_hat, kg.f_set, (inv_z, inv_x))
    sub, phi = extract_subunitary(k @ k1, n)
    inner, psi = extract_subunitary(k1, n)
    last = extract_last_qubit(m.matrix - m_hat, n)
    factors = (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub),
        _cartan_factor(f, kg.f_set, f"F{n}", n),
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=inner.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last),
    )
    return factors, phi, psi, subspace_error, steps


def decompose_one_level(g: np.ndarray, n: int) -> LevelResult:
    """Factors G in SU(2^n), n >= 3, into the nine-factor corollary form.

    A level is three stage calls: the theta_Z stage G = K0 K1 e^h K1^dag,
    then the theta_X stage on K0 K1 and on K1^dag. Each theta_X stage
    yields four factors and two stride-extraction phases; the phases
    aggregate into the returned scalar phi.
    """
    if n < 3:
        raise ValueError(f"one level requires n >= 3, got {n}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2**n, 2**n):
        raise DimensionMismatchError(f"expected shape {(2**n, 2**n)}, got {g.shape}")
    kg = build_kg_basis(n)
    inv_x = AxisInvolution(n, "X")

    stage = khk_stage(g, AxisInvolution(n, "Z"), kg.h_set)
    left, phi0, psi1, es0, steps0 = _secondary_stage(stage.k0 @ stage.k1, n, kg, inv_x)
    right, phi2, psi2, es1, steps1 = _secondary_stage(stage.k1.conj().T, n, kg, inv_x)

    factors = left + (_cartan_factor(stage.h, kg.h_set, f"H{n}", n),) + right
    phase = phi0 + phi2 - psi1 - psi2
    subspace_errors = (
        (f"f0[F{n}]", es0),
        (f"h[H{n}]", stage.subspace_error),
        (f"f1[F{n}]", es1),
    )
    optimizer_stats = (
        (f"n{n}:h", stage.optimizer_iters),
        (f"n{n}:f0", steps0),
        (f"n{n}:f1", steps1),
    )
    return LevelResult(factors, float(phase), subspace_errors, optimizer_stats)


def _recurse(g: np.ndarray, n: int, prefix: str) -> LevelResult:
    """Factors g in SU(2^n) down to its leaves, with labels under prefix.

    A two-qubit block is the one leaf: a SubUnitary at level 3 covering
    its whole register. Any larger block is split by decompose_one_level,
    and each of that level's SU(2^(n-1)) blocks recurses under the label
    prefix K<slot>/; child phases add into the level's phase.
    """
    if n == 2:
        leaf = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=g)
        return LevelResult((leaf,), 0.0, (), ())
    level = decompose_one_level(g, n)
    factors = []
    phase = level.phase
    subspace_errors = [(prefix + label, v) for label, v in level.subspace_errors]
    optimizer_stats = [(prefix + label, v) for label, v in level.optimizer_stats]
    slot = 0
    for factor in level.factors:
        if factor.kind is not FactorKind.SUB_UNITARY:
            factors.append(factor)
            continue
        child = _recurse(factor.matrix, n - 1, f"{prefix}K{slot}/")
        slot += 1
        factors.extend(child.factors)
        phase += child.phase
        subspace_errors.extend(child.subspace_errors)
        optimizer_stats.extend(child.optimizer_stats)
    return LevelResult(
        tuple(factors), phase, tuple(subspace_errors), tuple(optimizer_stats)
    )


def decompose_full(
    g: np.ndarray,
    n: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> FactorTree:
    """Recursively factors G in SU(2^n) down to SU(4)/SU(2)/Cartan leaves.

    Each level's four SU(2^(n-1)) blocks recurse down to two-qubit leaves
    (an n = 2 input is one such leaf); phases aggregate into the tree's
    single global phase.

    Raises:
        NotUnitaryError: g is not special unitary within 1e-8.
        OptimizerFailedError: a stage optimizer exhausted its restarts.
        ReconstructionError: the Frobenius error E_a of the factor product
            exceeds tols.reconstruct_bound(n), the bound that
            `kgdecomp verify` applies.
    """
    g = np.asarray(g, dtype=complex)
    if n < 2:
        raise ValueError(f"decomposition requires n >= 2, got {n}")
    if g.shape != (2**n, 2**n):
        raise DimensionMismatchError(f"expected shape {(2**n, 2**n)}, got {g.shape}")
    validate_special_unitary(g)
    start = time.perf_counter()
    result = _recurse(g, n, "")

    tree = FactorTree(n_total=n, phase=float(result.phase), factors=result.factors)
    approx = float(np.linalg.norm(g - product(tree)))
    bound = tols.reconstruct_bound(n)
    if approx > bound:
        raise ReconstructionError(
            f"reconstruction error {approx:.3e} exceeds {bound:.3e}"
        )
    report = DecompositionReport(
        approx_error=approx,
        subspace_errors=result.subspace_errors,
        wall_time=time.perf_counter() - start,
        optimizer_stats=result.optimizer_stats,
    )
    return replace(tree, report=report)
