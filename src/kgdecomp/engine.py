"""Core recursive Cartan decomposition engine.

One level factors G in SU(2^n) through the involution pair. The primary
stage computes m0 = (1/2) log(theta_Z(G^dag) G), splits off
K00 = G exp(-m0), and conjugates m0 into the Cartan span H_n by driving
the commutator [v, K^dag m0 K] to zero over the subgroup exp(k_n), where
v is the dense generator of the Cartan torus. The secondary stage runs
the same machinery with theta_X inside exp(k_n) to peel the last qubit
off K00 K01 and K01^dag, separates the central I..IZ phase, and lands
the leftovers in the F_n Cartan. Stride-2 extraction then yields the
nine-factor form

    G = e^{i phi} (K0 x I) e^{f0} (K1 x I) (I x Kt0)
        e^{h0} (K2 x I) e^{f1} (K3 x I) (I x Kt1)

whose SU(2^(n-1)) blocks recurse while their qubit count exceeds two.

The Cartan optimizer is clipped Newton iteration on the critical-point
condition [v, h] = 0 of the Killing objective, in the k-basis
coordinates of the chart K <- K exp(X), started at K = I (and at seeded
random starts if that fails). Any critical point is acceptable:
[v, h] = 0 forces h into the centralizer of v, which is the Cartan span
by density of the v-generated torus, and the Cartan element is only ever
determined up to its Weyl orbit anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .basis import PauliWord, build_kg_basis, order_cartan_basis
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
    expand,
)
from .involutions import AxisInvolution
from .linalg import (
    AlgebraElement,
    commutation_defect,
    eigenphase_mismatch,
    expm_skew,
    expm_skew_many,
    logm_unitary,
    nearest_special_unitary,
    project_onto_span,
)

__all__ = [
    "OptimizerConfig",
    "StageResult",
    "LevelResult",
    "compute_m",
    "residual_k",
    "build_v",
    "objective",
    "minimize_to_cartan",
    "khk_stage",
    "secondary_m_pair",
    "phase_split",
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the Cartan-conjugation optimizer.

    Attributes:
        max_iters: Newton step cap per start. The default clears the
            largest count measured on Haar SU(16) inputs (238 steps, in
            the top-level H stage) with room to spare.
        restarts: additional random starts after the K = I start.
        seed: seed for the restart draws, theta uniform on [-0.5, 0.5]^Q.
    """

    max_iters: int = 400
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("restarts", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"optimizer {name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class StageResult:
    """One KHK stage: G = k0 k1 exp(h) k1^dag with h Abelian.

    h carries coordinates in the stage Cartan basis; m is the involution
    logarithm the stage split off; subspace_error is the commutation
    defect of the raw k1^dag m k1 against the Cartan basis.
    """

    k0: np.ndarray
    k1: np.ndarray
    h: AlgebraElement
    m: AlgebraElement
    optimizer_iters: int
    subspace_error: float


class LevelResult(NamedTuple):
    """Output of one recursion level before splicing children."""

    factors: Tuple[Factor, ...]
    phase: float
    subspace_errors: Tuple[Tuple[str, float], ...]
    optimizer_stats: Tuple[Tuple[str, int], ...]


def validate_special_unitary(g: np.ndarray, tol: float = _INGEST_TOL) -> float:
    """Returns the unitarity defect, raising if g is not SU within tol."""
    n = g.shape[0]
    defect = float(np.linalg.norm(g @ g.conj().T - np.eye(n)))
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {tol:.3e}")
    det_defect = abs(np.linalg.det(g) - 1.0)
    if det_defect > tol:
        raise NotUnitaryError(f"determinant defect {det_defect:.3e} exceeds {tol:.3e}")
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
    target_span: Sequence[PauliWord],
) -> AlgebraElement:
    """The involution logarithm m = (1/2) log(theta(g^dag) g), snapped to span.

    theta(g^dag) g is conjugation-symmetric under the involution, so its
    spectrum pairs phases with their negatives and the principal log
    lands in the -1 eigenspace; exp(2m) = theta(g^dag) g holds within
    tolerance (a tested invariant). The result is projected onto
    target_span with the pre-projection residual recorded.

    Raises:
        NotUnitaryError: g is not special unitary within tolerance.
        SubspaceViolationError: projection residual exceeds the subspace
            tolerance (signals branch ambiguity or a non-SU input).
    """
    g = np.asarray(g, dtype=complex)
    defect = validate_special_unitary(g)
    w = inv.apply(g.conj().T) @ g
    log_tol = max(DEFAULT_TOLS.structure * g.shape[0], 4.0 * defect)
    m_raw = 0.5 * logm_unitary(w, tol=log_tol)
    coords, residual = project_onto_span(m_raw, target_span)
    residual_norm = float(np.linalg.norm(residual))
    if residual_norm > SUBSPACE_TOL:
        raise SubspaceViolationError(
            f"m lies {residual_norm:.3e} from its span, above {SUBSPACE_TOL:.3e}"
        )
    return AlgebraElement(
        matrix=m_raw - residual,
        coords=tuple(float(c) for c in coords),
        residual_norm=residual_norm,
    )


def residual_k(g: np.ndarray, m: AlgebraElement) -> np.ndarray:
    """The involution-fixed cofactor g exp(-m) of the stage split."""
    mat = m.matrix if isinstance(m, AlgebraElement) else np.asarray(m, dtype=complex)
    return np.asarray(g, dtype=complex) @ expm_skew(-mat)


def build_v(cartan: Sequence[PauliWord]) -> AlgebraElement:
    """The dense torus generator v = sum_i pi^(i-1) u_i.

    The pi powers are rationally independent weights, so the closure of
    exp(t v) is the whole Cartan torus and the centralizer of v is
    exactly the Cartan span; cartan must already be canonically ordered.
    """
    weights = tuple(float(np.pi**i) for i in range(len(cartan)))
    mats = np.stack([w.matrix for w in cartan])
    return AlgebraElement(
        matrix=np.tensordot(np.asarray(weights), mats, axes=1),
        coords=weights,
        residual_norm=0.0,
    )


def _theta_to_generator(theta: np.ndarray, k_stack: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(theta, dtype=float), k_stack, axes=1)


def _objective_values(
    gen_batch: np.ndarray, v_mat: np.ndarray, m0_mat: np.ndarray, c_n: float
) -> np.ndarray:
    k = expm_skew_many(gen_batch)
    k_dag = np.conj(np.swapaxes(k, -1, -2))
    conj = k_dag @ m0_mat @ k
    return c_n * np.einsum("ij,bji->b", v_mat, conj).real


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
    k_stack = np.stack([w.matrix for w in k_basis])
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(k_basis),):
        raise DimensionMismatchError(
            f"theta has shape {theta.shape}, expected ({len(k_basis)},)"
        )
    v_mat = v.matrix if isinstance(v, AlgebraElement) else np.asarray(v, dtype=complex)
    m_mat = m0.matrix if isinstance(m0, AlgebraElement) else np.asarray(m0, dtype=complex)
    c_n = 2.0 * v_mat.shape[0]
    gen = _theta_to_generator(theta, k_stack)
    return float(_objective_values(gen[None], v_mat, m_mat, c_n)[0])


@dataclass
class _MinimizeOutcome:
    k1: np.ndarray
    h: AlgebraElement
    relative_commutator: float
    iterations: int
    subspace_error: float


def _coords_in(stack: np.ndarray, norms2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates of x (or a batch of x) in a trace-orthogonal stack."""
    if x.ndim == 2:
        return np.einsum("qji,ji->q", stack.conj(), x).real / norms2
    return np.einsum("qji,bji->qb", stack.conj(), x).real / norms2[:, None]


def _newton_polish(
    k1: np.ndarray,
    m0_mat: np.ndarray,
    v_mat: np.ndarray,
    k_stack: np.ndarray,
    k_norms2: np.ndarray,
    max_steps: int,
) -> Tuple[np.ndarray, float, int]:
    """Drives [v, K^dag m0 K] to zero by Newton steps K <- K exp(delta).

    The k-coordinates of [v, h] are the objective's gradient on this
    chart, scaled by -1/(c_N ||k_j||^2), so its zeros are the critical
    points. To first order the update changes h by -[delta, h], so delta
    solves the least-squares system [v, [delta, h]] = [v, h] in the
    k-basis coordinates; steps longer than 1 are clipped to unit length.
    Takes at most max_steps steps and evaluates every iterate, the last
    one included. Returns the best iterate, its relative commutator
    ||[v,h]|| / (||v|| ||h||), and the number of steps taken.
    """
    norm_v = np.linalg.norm(v_mat)
    best_k, best_rel = k1, np.inf
    for steps in range(max_steps + 1):
        h = k1.conj().T @ m0_mat @ k1
        comm = v_mat @ h - h @ v_mat
        rel = np.linalg.norm(comm) / (norm_v * np.linalg.norm(h) + 1e-300)
        if rel < best_rel:
            best_k, best_rel = k1, rel
        if rel <= _POLISH_TARGET or steps == max_steps:
            break
        bracket = k_stack @ h - h @ k_stack
        columns = v_mat @ bracket - bracket @ v_mat
        a_mat = _coords_in(k_stack, k_norms2, columns).T
        rhs = _coords_in(k_stack, k_norms2, comm)
        delta_coords, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
        step_norm = float(np.linalg.norm(delta_coords))
        if not np.isfinite(step_norm) or step_norm == 0.0:
            break
        if step_norm > 1.0:
            delta_coords = delta_coords / step_norm
        k1 = k1 @ expm_skew(_theta_to_generator(delta_coords, k_stack))
    return best_k, best_rel, steps


def _minimize_full(
    m0,
    k_basis: Sequence[PauliWord],
    cartan: Sequence[PauliWord],
    cfg: OptimizerConfig,
) -> _MinimizeOutcome:
    """minimize_to_cartan with optimizer diagnostics attached."""
    cartan = order_cartan_basis(cartan)
    v = build_v(cartan)
    v_mat = v.matrix
    m0_mat = m0.matrix if isinstance(m0, AlgebraElement) else np.asarray(m0, dtype=complex)
    dim = m0_mat.shape[0]
    k_stack = np.stack([w.matrix for w in k_basis])
    k_norms2 = np.einsum("qji,qji->q", k_stack.conj(), k_stack).real

    norm_m0 = np.linalg.norm(m0_mat)
    if norm_m0 <= 1e-13 * dim:
        zero = AlgebraElement(
            matrix=np.zeros_like(m0_mat),
            coords=(0.0,) * len(cartan),
            residual_norm=float(norm_m0),
        )
        return _MinimizeOutcome(
            k1=np.eye(dim, dtype=complex),
            h=zero,
            relative_commutator=0.0,
            iterations=0,
            subspace_error=float(commutation_defect(m0_mat, [w.matrix for w in cartan])),
        )

    target_mats = [w.matrix for w in cartan]
    rng = np.random.default_rng(cfg.seed)
    reference = expm_skew(m0_mat)
    best: Optional[_MinimizeOutcome] = None
    for attempt in range(1 + cfg.restarts):
        if attempt == 0:
            k1 = np.eye(dim, dtype=complex)
        else:
            theta0 = rng.uniform(-0.5, 0.5, len(k_stack))
            k1 = expm_skew(_theta_to_generator(theta0, k_stack))
        k1, rel, steps = _newton_polish(
            k1, m0_mat, v_mat, k_stack, k_norms2, cfg.max_iters
        )
        k1 = _maybe_repair(k1)
        h_raw = k1.conj().T @ m0_mat @ k1
        coords, residual = project_onto_span(h_raw, cartan)
        residual_norm = float(np.linalg.norm(residual))
        h_proj = h_raw - residual
        outcome = _MinimizeOutcome(
            k1=k1,
            h=AlgebraElement(
                matrix=h_proj,
                coords=tuple(float(c) for c in coords),
                residual_norm=residual_norm,
            ),
            relative_commutator=float(rel),
            iterations=steps,
            subspace_error=float(commutation_defect(h_raw, target_mats)),
        )
        ok = (
            rel <= CARTAN_TOL
            and residual_norm <= SUBSPACE_TOL
            and eigenphase_mismatch(expm_skew(h_proj), reference) <= _SPECTRUM_TOL
        )
        if best is None or outcome.relative_commutator < best.relative_commutator:
            best = outcome
        if ok:
            return outcome
    raise OptimizerFailedError(
        f"no restart reached relative commutator {CARTAN_TOL:.1e} "
        f"(best {best.relative_commutator:.3e})",
        best=(best.k1, best.h),
    )


def minimize_to_cartan(
    m0,
    k_basis: Sequence[PauliWord],
    cartan: Sequence[PauliWord],
    cfg: Optional[OptimizerConfig] = None,
) -> Tuple[np.ndarray, AlgebraElement]:
    """Conjugates m0 into the Cartan span over the subgroup exp(span k).

    Runs clipped Newton iteration on the critical-point condition
    [v, K^dag m0 K] = 0 from K = I, then from cfg.restarts seeded random
    starts until one succeeds. Success requires the relative commutator
    ||[h, v]|| bound, the projection residual bound, and eigenphase
    agreement of exp(h) with exp(m0) (conjugation preserves spectra; h itself is only
    determined up to its Weyl orbit).

    Returns:
        (k1, h) with h = k1^dag m0 k1 snapped onto the Cartan span and
        the pre-projection residual recorded on h.residual_norm.

    Raises:
        OptimizerFailedError: all starts ended above tolerance; the best
            (k1, h) pair rides in the error's `best` attribute.
    """
    outcome = _minimize_full(m0, k_basis, cartan, cfg or OptimizerConfig())
    return outcome.k1, outcome.h


def khk_stage(
    g: np.ndarray,
    inv: AxisInvolution,
    k_basis: Sequence[PauliWord],
    m_span: Sequence[PauliWord],
    cartan: Sequence[PauliWord],
    cfg: Optional[OptimizerConfig] = None,
) -> StageResult:
    """One full KHK stage: G = k0 k1 exp(h) k1^dag.

    k0 = g exp(-m) is fixed by the stage involution; k1 and h come from
    the Cartan optimizer on m.
    """
    cfg = cfg or OptimizerConfig()
    m = compute_m(g, inv, m_span)
    k0 = _maybe_repair(residual_k(g, m))
    outcome = _minimize_full(m, k_basis, cartan, cfg)
    return StageResult(
        k0=k0,
        k1=outcome.k1,
        h=outcome.h,
        m=m,
        optimizer_iters=outcome.iterations,
        subspace_error=outcome.subspace_error,
    )


def secondary_m_pair(
    k00: np.ndarray,
    k01: np.ndarray,
    inv_x: AxisInvolution,
    span_k1z: Sequence[PauliWord],
) -> Tuple[AlgebraElement, AlgebraElement]:
    """The two theta_X logarithms of the secondary stage.

    m1 = (1/2) log(theta_X((k00 k01)^dag) k00 k01) and
    m2 = (1/2) log(theta_X(k01) k01^dag), both landing in
    span(K_n1) + span(I..IZ).
    """
    w = np.asarray(k00, dtype=complex) @ np.asarray(k01, dtype=complex)
    m1 = compute_m(w, inv_x, span_k1z)
    m2 = compute_m(np.asarray(k01, dtype=complex).conj().T, inv_x, span_k1z)
    return m1, m2


def phase_split(
    m: AlgebraElement,
    k1_span: Sequence[PauliWord],
    z_word: PauliWord,
) -> Tuple[AlgebraElement, AlgebraElement]:
    """Separates the central I..IZ phase from a secondary-stage log.

    Returns:
        (m_hat, m_tilde) with m_hat the projection onto k1_span and
        m_tilde = m - m_hat a real multiple of z_word; m_tilde commutes
        with all of span(K_n), which is what lets the phase factor drift
        rightward through the factor list.

    Raises:
        SubspaceViolationError: m is not in span(k1_span + {z_word}).
    """
    mat = m.matrix if isinstance(m, AlgebraElement) else np.asarray(m, dtype=complex)
    coords, _ = project_onto_span(mat, k1_span)
    stack = np.stack([w.matrix for w in k1_span])
    m_hat = np.tensordot(coords, stack, axes=1)
    m_tilde = mat - m_hat
    z_mat = z_word.matrix
    z_norm2 = float(np.einsum("ji,ji->", z_mat.conj(), z_mat).real)
    alpha = float(np.einsum("ji,ji->", z_mat.conj(), m_tilde).real / z_norm2)
    off_span = np.linalg.norm(m_tilde - alpha * z_mat)
    if off_span > PATTERN_TOL * max(1.0, np.linalg.norm(mat)):
        raise SubspaceViolationError(
            f"non-central remainder {off_span:.3e} after removing the z word"
        )
    return (
        AlgebraElement(
            matrix=m_hat,
            coords=tuple(float(c) for c in coords),
            residual_norm=0.0,
        ),
        AlgebraElement(matrix=m_tilde, coords=(alpha,), residual_norm=float(off_span)),
    )


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
    mat = m_tilde.matrix if isinstance(m_tilde, AlgebraElement) else np.asarray(
        m_tilde, dtype=complex
    )
    dim = 2**n
    if mat.shape != (dim, dim):
        raise DimensionMismatchError(f"expected shape {(dim, dim)}, got {mat.shape}")
    z_mat = PauliWord("I" * (n - 1) + "Z").matrix
    z_norm2 = float(np.einsum("ji,ji->", z_mat.conj(), z_mat).real)
    alpha = float(np.einsum("ji,ji->", z_mat.conj(), mat).real / z_norm2)
    defect = np.linalg.norm(mat - alpha * z_mat)
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
    coeffs = tuple(
        (word.label, float(c)) for word, c in zip(cartan, element.coords)
    )
    return Factor(
        kind=FactorKind.CARTAN_EXP,
        level_qubits=level,
        basis_name=basis_name,
        coeffs=coeffs,
        subspace_residual=element.residual_norm,
    )


def decompose_one_level(
    g: np.ndarray,
    n: int,
    cfg: Optional[OptimizerConfig] = None,
) -> LevelResult:
    """Factors G in SU(2^n), n >= 3, into the nine-factor corollary form.

    The central exp(m-tilde) phases commute with every exp(k) factor, so
    they slide rightward into the I x Kt slots; the stray arg(det)
    phases from stride extraction aggregate into the returned scalar phi.
    """
    if n < 3:
        raise ValueError(f"one level requires n >= 3, got {n}")
    g = np.asarray(g, dtype=complex)
    if g.shape != (2**n, 2**n):
        raise DimensionMismatchError(f"expected shape {(2**n, 2**n)}, got {g.shape}")
    cfg = cfg or OptimizerConfig()
    kg = build_kg_basis(n)
    inv_z = AxisInvolution(n, "Z")
    inv_x = AxisInvolution(n, "X")

    stage = khk_stage(g, inv_z, kg.k_set, kg.m_set, kg.h_set, cfg)

    span_k1z = tuple(kg.k1_set) + (kg.z_word,)
    m1, m2 = secondary_m_pair(stage.k0, stage.k1, inv_x, span_k1z)
    w_mat = stage.k0 @ stage.k1
    k10 = _maybe_repair(w_mat @ expm_skew(-m1.matrix))
    k20 = _maybe_repair(stage.k1.conj().T @ expm_skew(-m2.matrix))

    m1_hat, m1_tilde = phase_split(m1, kg.k1_set, kg.z_word)
    m2_hat, m2_tilde = phase_split(m2, kg.k1_set, kg.z_word)

    out1 = _minimize_full(m1_hat, kg.k0_set, kg.f_set, cfg)
    out2 = _minimize_full(m2_hat, kg.k0_set, kg.f_set, cfg)

    sub0, phi0 = extract_subunitary(k10 @ out1.k1, n)
    inner1, psi1 = extract_subunitary(out1.k1, n)
    sub2, phi2 = extract_subunitary(k20 @ out2.k1, n)
    inner2, psi2 = extract_subunitary(out2.k1, n)
    last0 = extract_last_qubit(m1_tilde, n)
    last1 = extract_last_qubit(m2_tilde, n)

    h_factor = _cartan_factor(stage.h, kg.h_set, f"H{n}", n)
    f0_factor = _cartan_factor(out1.h, kg.f_set, f"F{n}", n)
    f1_factor = _cartan_factor(out2.h, kg.f_set, f"F{n}", n)

    factors = (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub0),
        f0_factor,
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n,
               matrix=inner1.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last0),
        h_factor,
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub2),
        f1_factor,
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n,
               matrix=inner2.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last1),
    )
    phase = phi0 + phi2 - psi1 - psi2
    subspace_errors = (
        (f"f0[F{n}]", out1.subspace_error),
        (f"h[H{n}]", stage.subspace_error),
        (f"f1[F{n}]", out2.subspace_error),
    )
    optimizer_stats = (
        (f"n{n}:h", stage.optimizer_iters),
        (f"n{n}:f0", out1.iterations),
        (f"n{n}:f1", out2.iterations),
    )
    return LevelResult(factors, float(phase), subspace_errors, optimizer_stats)


def _recurse(
    g: np.ndarray,
    n: int,
    cfg: OptimizerConfig,
    prefix: str,
) -> Tuple[List[Factor], float, list, list]:
    level = decompose_one_level(g, n, cfg)
    subspace_errors = [(prefix + label, v) for label, v in level.subspace_errors]
    optimizer_stats = [(prefix + label, v) for label, v in level.optimizer_stats]
    phase = level.phase

    factors: List[Factor] = []
    slot = 0
    for factor in level.factors:
        if factor.kind is FactorKind.SUB_UNITARY:
            child_prefix = f"{prefix}K{slot}/"
            slot += 1
            if factor.level_qubits >= 4:
                child_factors, child_phase, child_sub, child_stats = _recurse(
                    factor.matrix, factor.level_qubits - 1, cfg, child_prefix
                )
                factors.extend(child_factors)
                phase += child_phase
                subspace_errors.extend(child_sub)
                optimizer_stats.extend(child_stats)
                continue
        factors.append(factor)
    return factors, phase, subspace_errors, optimizer_stats


def decompose_full(
    g: np.ndarray,
    n: int,
    cfg: Optional[OptimizerConfig] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> FactorTree:
    """Recursively factors G in SU(2^n) down to SU(4)/SU(2)/Cartan leaves.

    Each level's four SU(2^(n-1)) blocks recurse while their qubit count
    exceeds two; phases aggregate into the tree's single global phase.
    The n = 2 input is the base case: a single whole-register SubUnitary
    leaf.

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
    cfg = cfg or OptimizerConfig()
    start = time.perf_counter()

    if n == 2:
        factors: List[Factor] = [
            Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=g)
        ]
        phase = 0.0
        subspace_errors: list = []
        optimizer_stats: list = []
    else:
        factors, phase, subspace_errors, optimizer_stats = _recurse(g, n, cfg, "")

    reconstructed = np.exp(1j * phase) * np.eye(2**n, dtype=complex)
    for factor in factors:
        reconstructed = reconstructed @ expand(factor, n)
    approx = float(np.linalg.norm(g - reconstructed))
    bound = tols.reconstruct_bound(n)
    if approx > bound:
        raise ReconstructionError(
            f"reconstruction error {approx:.3e} exceeds {bound:.3e}"
        )
    report = DecompositionReport(
        approx_error=approx,
        subspace_errors=tuple(subspace_errors),
        wall_time=time.perf_counter() - start,
        optimizer_stats=tuple(optimizer_stats),
    )
    return FactorTree(n_total=n, phase=float(phase), factors=tuple(factors), report=report)
