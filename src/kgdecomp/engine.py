"""Core recursive Cartan decomposition engine.

One level factors G in SU(2^n) by three stage calls. The theta_Z stage
computes m0 = (1/2) log(theta_Z(G^dag) G), splits off K00 = G exp(-m0),
and conjugates m0 into the Cartan span H_n by driving the commutator
[v, K01^dag m0 K01] to zero over K01 in exp(k_n), where v is the dense
generator of the Cartan torus. One theta_X stage then runs on K00 K01
and on K01^dag: it lands the K_n1 part of its logarithm in the F_n
Cartan, turns the central I..IZ part into a last-qubit factor, and
strips the trailing identity qubit off its K factors, giving

    G = e^{i phi} (K0 x I) e^{f0} (K1 x I) (I x Kt0)
        e^{h0} (K2 x I) e^{f1} (K3 x I) (I x Kt1)

whose SU(2^(n-1)) blocks recurse down to two-qubit leaves.

The Cartan optimizer is clipped Newton iteration on the critical-point
condition [v, h] = 0 of the Killing objective, in the k-basis
coordinates of the chart K <- K exp(X), started at K = I and, if that
fails, at RESTARTS random starts seeded by RESTART_SEED, each capped at
MAX_NEWTON_STEPS steps. Any critical point is acceptable:
[v, h] = 0 forces h into the centralizer of v, which is the Cartan span
by density of the v-generated torus, and the Cartan element is only ever
determined up to its Weyl orbit anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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
    expand,
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
"""Newton step cap per optimizer start. Converging starts on Haar SU(8)
and SU(16) inputs take at most 38 steps, and the top-level H stage of
Haar SU(32) takes 31-33; the cap ends a start that stalls, as some do on
degenerate inputs such as Pauli exponentials, so that a restart runs."""

RESTARTS = 4
"""Seeded random starts tried after the K = I start fails."""

RESTART_SEED = 0
"""Seed of the restart draws, theta uniform on [-0.5, 0.5]^Q."""


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
    return np.asarray(g, dtype=complex) @ expm_skew(-as_matrix(m))


def build_v(cartan: Sequence[PauliWord]) -> AlgebraElement:
    """The dense torus generator v = sum_i pi^(i-1) u_i.

    The pi powers are rationally independent weights, so the closure of
    exp(t v) is the whole Cartan torus and the centralizer of v is
    exactly the Cartan span. The weights follow cartan's order; the engine
    passes the canonical order from build_kg_basis, so v is reproducible.
    """
    weights = tuple(float(np.pi**i) for i in range(len(cartan)))
    return AlgebraElement(
        matrix=np.tensordot(np.asarray(weights), word_stack(tuple(cartan)), axes=1),
        coords=weights,
        residual_norm=0.0,
    )


def _theta_to_generator(theta: np.ndarray, k_stack: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(theta, dtype=float), k_stack, axes=1)


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
    k_stack = word_stack(tuple(k_basis))
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(k_basis),):
        raise DimensionMismatchError(
            f"theta has shape {theta.shape}, expected ({len(k_basis)},)"
        )
    v_mat = as_matrix(v)
    m_mat = as_matrix(m0)
    c_n = 2.0 * v_mat.shape[0]
    k = expm_skew_many(_theta_to_generator(theta, k_stack)[None])[0]
    return float(c_n * np.einsum("ij,ji->", v_mat, k.conj().T @ m_mat @ k).real)


@dataclass
class _MinimizeOutcome:
    k1: np.ndarray
    h: AlgebraElement
    relative_commutator: float
    iterations: int
    subspace_error: float


def _newton_polish(
    k1: np.ndarray,
    m0_mat: np.ndarray,
    v_mat: np.ndarray,
    k_stack: np.ndarray,
    max_steps: int,
) -> Tuple[np.ndarray, float, int]:
    """Drives [v, K^dag m0 K] to zero by Newton steps K <- K exp(delta).

    The residual r_q = <k_q, [v, h]> / ||k_q||^2 is the k-coordinate
    vector of [v, h], the objective's gradient on this chart scaled by
    -1/(c_N ||k_j||^2), so its zeros are the critical points. To first
    order the update changes h by -[delta, h], so r changes by -J delta
    with J[q, j] = <k_q, [v, [k_j, h]]> / ||k_q||^2; each step solves
    J delta = r in the least-squares sense. Since <k_q, [v, B]> equals
    -<[v, k_q], B>, J is the real product of the once-per-start
    brackets P_q = [v, k_q] with B_j = [k_j, h] = X_j - X_j^dag,
    X_j = k_j h, which one matmul over the stacked k_j gives per step.
    Steps longer than 1 are clipped to unit length. Takes at most
    max_steps steps and evaluates every iterate, the last one included.
    Returns the best iterate, its relative commutator
    ||[v,h]|| / (||v|| ||h||), and the number of steps taken.
    """
    q, dim = k_stack.shape[:2]
    norm2 = dim / 4.0  # ||k_q||^2 of every Pauli word k_q
    k_flat = k_stack.reshape(q, dim * dim)
    k_rows = k_stack.reshape(q * dim, dim)
    # the float64 view of a complex row interleaves (re, im), so a real
    # dot product of two such views is Re(conj(a) . b)
    k_real = k_flat.view(float)
    p_real = (v_mat @ k_stack - k_stack @ v_mat).reshape(q, -1).view(float)
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
        x = (k_rows @ h).reshape(q, dim, dim)
        bracket = x - x.conj().transpose(0, 2, 1)
        jac = -(p_real @ bracket.reshape(q, -1).view(float).T) / norm2
        rhs = (k_real @ comm.reshape(-1).view(float)) / norm2
        delta_coords, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        step_norm = float(np.linalg.norm(delta_coords))
        if not np.isfinite(step_norm) or step_norm == 0.0:
            break
        if step_norm > 1.0:
            delta_coords = delta_coords / step_norm
        k1 = k1 @ expm_skew((delta_coords @ k_flat).reshape(dim, dim))
    return best_k, best_rel, steps


def _minimize_full(
    m0,
    k_basis: Sequence[PauliWord],
    cartan: Sequence[PauliWord],
) -> _MinimizeOutcome:
    """Conjugates m0 into the Cartan span over the subgroup exp(span k).

    Runs clipped Newton iteration on [v, K^dag m0 K] = 0 from K = I, then
    from RESTARTS random starts seeded by RESTART_SEED until one succeeds;
    each start takes at most MAX_NEWTON_STEPS steps. Success requires the
    relative commutator bound, the projection residual bound, and
    eigenphase agreement of exp(h) with exp(m0) (h itself is only
    determined up to its Weyl orbit). The outcome's h = k1^dag m0 k1 is
    snapped onto the span, with the pre-projection residual on
    h.residual_norm and h.coords in the order cartan is given.

    Raises:
        OptimizerFailedError: all starts ended above tolerance; the best
            (k1, h) pair rides in the error's `best` attribute.
    """
    v_mat = build_v(cartan).matrix
    m0_mat = as_matrix(m0)
    dim = m0_mat.shape[0]
    k_stack = word_stack(tuple(k_basis))

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
            subspace_error=float(commutation_defect(m0_mat, cartan)),
        )

    rng = np.random.default_rng(RESTART_SEED)
    reference = expm_skew(m0_mat)
    best: Optional[_MinimizeOutcome] = None
    for attempt in range(1 + RESTARTS):
        if attempt == 0:
            k1 = np.eye(dim, dtype=complex)
        else:
            theta0 = rng.uniform(-0.5, 0.5, len(k_stack))
            k1 = expm_skew(_theta_to_generator(theta0, k_stack))
        k1, rel, steps = _newton_polish(k1, m0_mat, v_mat, k_stack, MAX_NEWTON_STEPS)
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
            subspace_error=float(commutation_defect(h_raw, cartan)),
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


def khk_stage(
    g: np.ndarray,
    inv: AxisInvolution,
    k_basis: Sequence[PauliWord],
    m_span: Sequence[PauliWord],
    cartan: Sequence[PauliWord],
) -> StageResult:
    """One full KHK stage: G = k0 k1 exp(h) k1^dag.

    k0 = g exp(-m) is fixed by the stage involution; k1 and h come from
    the Cartan optimizer on m.
    """
    m = compute_m(g, inv, m_span)
    k0 = _maybe_repair(residual_k(g, m))
    outcome = _minimize_full(m, k_basis, cartan)
    return StageResult(
        k0=k0,
        k1=outcome.k1,
        h=outcome.h,
        optimizer_iters=outcome.iterations,
        subspace_error=outcome.subspace_error,
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
    K_n1 part m_hat is conjugated into F_n over exp(K_n0) as
    m_hat = T e^f T^dag, and the central remainder m - m_hat becomes the
    last-qubit factor Q. With k = w exp(-m), k T = e^{i phi} (S x I) and
    T = e^{i psi} (T' x I),

        w = e^{i(phi - psi)} (S x I) e^f (T'^dag x I) (I x Q).

    Returns the factors (S, e^f, T'^dag, Q), phi, psi, the optimizer's
    subspace error and its step count.
    """
    m = compute_m(w, inv_x, tuple(kg.k1_set) + (kg.z_word,))
    k = _maybe_repair(residual_k(w, m))
    coords, _ = project_onto_span(m.matrix, kg.k1_set)
    m_hat = np.tensordot(coords, word_stack(kg.k1_set), axes=1)
    out = _minimize_full(m_hat, kg.k0_set, kg.f_set)
    sub, phi = extract_subunitary(k @ out.k1, n)
    inner, psi = extract_subunitary(out.k1, n)
    last = extract_last_qubit(m.matrix - m_hat, n)
    factors = (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub),
        _cartan_factor(out.h, kg.f_set, f"F{n}", n),
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=inner.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last),
    )
    return factors, phi, psi, out.subspace_error, out.iterations


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

    stage = khk_stage(g, AxisInvolution(n, "Z"), kg.k_set, kg.m_set, kg.h_set)
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

    reconstructed = np.exp(1j * result.phase) * np.eye(2**n, dtype=complex)
    for factor in result.factors:
        reconstructed = reconstructed @ expand(factor, n)
    approx = float(np.linalg.norm(g - reconstructed))
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
    return FactorTree(
        n_total=n, phase=float(result.phase), factors=result.factors, report=report
    )
