"""Core recursive Cartan decomposition engine.

One level factors G in SU(2^n) by three stage calls. The theta_Z stage
computes m0 = (1/2) log(theta_Z(G^dag) G), splits off K00 = G exp(-m0),
and conjugates m0 into the Cartan span H_n by one K01 in exp(k_n), so
that [v, K01^dag m0 K01] = 0, where v is a regular generator of the
Cartan torus. One theta_X stage then runs on K00 K01 and on K01^dag: it
lands the K_n1 part of its logarithm in the F_n Cartan, turns the
central I..IZ part into a last-qubit factor, and strips the trailing
identity qubit off its K factors, giving

    G = e^{i phi} (K0 x I) e^{f0} (K1 x I) (I x Kt0)
        e^{h0} (K2 x I) e^{f1} (K3 x I) (I x Kt1)

whose SU(2^(n-1)) blocks recurse down to two-qubit leaves.

Both involution logarithms are theta-odd by construction, also where
theta(g^dag) g has the eigenvalue -1 and the principal log is not (see
compute_m), so structured gates split like generic ones.

Each Cartan stage is solved in closed form, with no iteration. Both
Cartan sets are a commuting set W of words on the first n - 1 qubits
times one last letter: H_n = W (x) X and F_n = (W minus I..I) (x) Z. In
the last-qubit block view (rows and columns 0::2 and 1::2) a k element
is diag(A, B), so the theta_Z stage is one SVD of the off-diagonal
block of m0 and the theta_X stage one eigh of its diagonal block, with
A and B mapping the joint eigenbasis of W onto the singular vectors or
eigenvectors. This is the cosine-sine split and the demultiplexing
step of the quantum Shannon decomposition (Shende, Bullock and Markov,
IEEE TCAD 25:1000, 2006; Paige and Wei, Linear Algebra Appl. 208:303,
1994), which Drury and Love (J. Phys. A 41:395305, 2008) showed is the
KG decomposition with exactly these involutions.

Each Cartan set is diagonal in one fixed unitary basis Q, kept with the
set's torus (basis.cartan_torus), and a stage takes its set as that
torus alone: Q = U (x) Hadamard for H_n and U (x) I2 for F_n, with U the
joint eigenbasis of W and the last qubit least significant. A stage
rotates its input once, x~ = P^dag m0 P with P = K Q, and reads
everything off x~: the Cartan coordinates (2 / 2^n) signs Im diag(x~),
in the torus's canonical label order, the off-span residual, the
relative commutator from the eigenvalues mu of -i v, and E_s from the
weights C_ab. The central word I..IZ is diagonal already and splits off by a
trace of the diagonal. No stack of word matrices is ever built. The
Cartan element is only ever determined up to its Weyl orbit, so each
solve checks that exp(h) and exp(m0) share their eigenphases: those of
exp(h) are its diagonal phases p in Q, those of exp(m0) the eigenvalues
of the Hermitian -i m0, both wrapped into (-pi, pi]; no exponential is
built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .basis import (
    CartanTorus,
    PauliWord,
    # build_kg_basis is unused here since the stages take their Cartan
    # sets as tori; perfbench/spans.py still patches it at this name
    build_kg_basis,
    cartan_torus,
)
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
    _cyclic_phase_mismatch,
    _wrapped_phases,
    as_matrix,
    # commutation_defect, eigenphase_mismatch, expm_skew_many and
    # project_onto_span are unused here since the stages read the Cartan
    # words off their torus and compare eigenphases from the generators;
    # perfbench/spans.py still patches them at these names
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
    "StageResult",
    "LevelResult",
    "compute_m",
    "residual_k",
    "khk_stage",
    "extract_subunitary",
    "extract_last_qubit",
    "decompose_one_level",
    "decompose_full",
    "validate_special_unitary",
]

_SPECTRUM_TOL = 1e-8
# unused since the stages are closed-form; _newton_polish reads it
_POLISH_TARGET = 1e-13
_REPAIR_THRESHOLD = 1e-12
_INGEST_TOL = 1e-8
_CLUSTER_TOL = 1e-9
_IN_SPAN_TOL = 1e-12


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
    subspace_error: float


class LevelResult(NamedTuple):
    """Factors, phase and labeled diagnostics of one level, or of a whole
    subtree once _recurse has spliced the children in."""

    factors: Tuple[Factor, ...]
    phase: float
    subspace_errors: Tuple[Tuple[str, float], ...]


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


# The decomposition never calls _newton_polish. It stays, with its direct
# tests, because perfbench/spans.py patches kgdecomp.engine._newton_polish
# and tests/test_trace_targets.py requires every span target to exist.
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


def _torus_split(xt: np.ndarray, torus: CartanTorus):
    """(c, p, residual_norm) of x~ = Q^dag x Q against the torus's span.

    With d = Im diag(x~), the projection of x has coordinates
    c = (2 / 2^n) signs d in the torus's canonical order and is
    Q (i diag(p)) Q^dag with p = (1/2) signs^T c; residual_norm is
    ||x~ - i diag(p)||_F, the distance of x from the span.
    """
    c = (2.0 / len(xt)) * (torus.signs @ np.diagonal(xt).imag)
    p = 0.5 * (c @ torus.signs)
    off = xt.copy()
    off.flat[:: len(xt) + 1] -= 1j * p
    return c, p, float(np.linalg.norm(off))


def _relative_commutator(xt: np.ndarray, torus: CartanTorus) -> float:
    """||[v, x]|| / (||v|| ||x||) for x = Q x~ Q^dag, a nonzero x, from
    [v, x]~_ab = i (mu_a - mu_b) x~_ab."""
    mu = torus.mu
    gaps = mu[:, None] - mu[None, :]
    return float(np.linalg.norm(gaps * xt) / (np.linalg.norm(mu) * np.linalg.norm(xt)))


def _subspace_error(xt: np.ndarray, torus: CartanTorus) -> float:
    """commutation_defect(x, words) for x = Q x~ Q^dag, from
    sum_w ||[w, x]||^2 = sum_ab C_ab |x~_ab|^2 (CartanTorus.es_weights)."""
    abs2 = xt.real**2 + xt.imag**2
    return float(np.sqrt(np.sum(torus.es_weights * abs2)) / len(torus.labels))


def _closed_form_k(m0_mat: np.ndarray, torus: CartanTorus) -> np.ndarray:
    """The K = diag(A, B) in SU(2^n) that conjugates m0 into the span of
    the torus's Cartan set.

    With U = torus.u the joint eigenbasis of W:
    - H set: m0 is [[0, Y], [-Y^dag, 0]]; the SVD -i Y = V1 S V2^dag
      gives A = V1 U^dag, B = V2 U^dag, and A^dag Y B = i U S U^dag.
    - F set: m0 is diag(C, -C); the eigh -i C = V D V^dag gives
      A = B = V U^dag, and A^dag C A = i U D U^dag.
    Within each cluster of equal S or D values (sorted neighbours within
    1e-9 max |S| or 1e-9 max |D|) the columns of V1, V2 or V are free up to one common
    unitary R; R is taken as the polar factor that maximizes
    Re tr((U^dag (A + B) U) R) on the cluster, which keeps K closest to I
    and makes it continuous in m0 where the values are distinct. On a
    cluster of one value, the only kind a generic stage has, that polar
    factor of the 1 x 1 overlap o is conj(o) / |o|, or 1 where o = 0:
    all singletons are set in one array operation, and only clusters of
    two or more values take an SVD. K is scaled by e^(-i arg det K / 2^n)
    so that det K = 1. In the torus basis Q that U builds, (K Q)^dag m0
    (K Q) is then diagonal up to rounding: _minimize_full reads the stage
    off that one rotation.
    """
    u = torus.u
    if torus.name[0] == "H":
        v1, values, v2h = np.linalg.svd(-1j * m0_mat[0::2, 1::2])
        v2 = v2h.conj().T
    else:
        values, v1 = np.linalg.eigh(-1j * m0_mat[0::2, 0::2])
        v2 = v1
    overlap = u.conj().T @ (v1 + v2)
    rotation = np.zeros_like(overlap)
    # relative, so that a stage input of any norm keeps its distinct
    # values apart; a zero m0 never gets here
    tol = _CLUSTER_TOL * np.max(np.abs(values))
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.abs(np.diff(values)) > tol) + 1, [len(values)])
    )
    single = bounds[:-1][np.diff(bounds) == 1]
    o = overlap[single, single]
    rotation[single, single] = np.divide(
        o.conj(), np.abs(o), out=np.ones_like(o), where=o != 0
    )
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            w, _, zh = np.linalg.svd(overlap[start:stop, start:stop])
            rotation[start:stop, start:stop] = zh.conj().T @ w.conj().T
    half = u.shape[0]
    k = np.zeros((2 * half, 2 * half), dtype=complex)
    k[0::2, 0::2] = v1 @ rotation @ u.conj().T
    k[1::2, 1::2] = v2 @ rotation @ u.conj().T
    det = np.linalg.det(k[0::2, 0::2]) * np.linalg.det(k[1::2, 1::2])
    return k * np.exp(-1j * np.angle(det) / (2 * half))


def _minimize_full(
    m0, torus: CartanTorus
) -> Tuple[np.ndarray, AlgebraElement, float]:
    """Conjugates m0 into the Cartan span over the stage's subgroup exp(k).

    K1 is _closed_form_k's, or I when m0 already lies within 1e-12 ||m0||
    of the span. Everything else is read off one rotation
    x~ = P^dag m0 P with P = K1 Q, where Q is the basis of the torus
    (basis.cartan_torus) in which every Cartan word is diagonal: the
    coordinates and off-span residual (_torus_split), the relative
    commutator ||[v, h]|| / (||v|| ||h||) and E_s (_relative_commutator,
    _subspace_error), and h = Q (i diag(p)) Q^dag. The solution is
    checked once: the relative commutator must be at most CARTAN_TOL,
    the residual at most SUBSPACE_TOL, and exp(h) must share the
    eigenphases of exp(m0) within 1e-8 (h is only determined up to its
    Weyl orbit). Those of exp(h) are p wrapped into (-pi, pi], those of
    exp(m0) the wrapped eigvalsh of -i m0, compared over cyclic
    alignments; no exponential is built. An m0 of norm at most
    Tolerances.structure counts as zero: K1 = I, h = 0.

    Returns (k1, h, subspace_error): h = k1^dag m0 k1 snapped onto the
    span, with the pre-projection residual on h.residual_norm and
    h.coords in torus.labels order; subspace_error is the
    commutation defect of the raw h.

    Raises:
        OptimizerFailedError: the solution fails a bound; its (k1, h)
            pair rides in the error's `best` attribute.
    """
    m0_mat = as_matrix(m0)
    q = torus.q
    k1 = np.eye(m0_mat.shape[0], dtype=complex)

    norm_m0 = np.linalg.norm(m0_mat)
    xt = q.conj().T @ m0_mat @ q
    if norm_m0 <= DEFAULT_TOLS.structure:
        zero = AlgebraElement(
            matrix=np.zeros_like(m0_mat),
            coords=(0.0,) * len(torus.labels),
            residual_norm=float(norm_m0),
        )
        return k1, zero, _subspace_error(xt, torus)

    c, p, residual_norm = _torus_split(xt, torus)
    if residual_norm > _IN_SPAN_TOL * norm_m0:
        k1 = _maybe_repair(_closed_form_k(m0_mat, torus))
        frame = k1 @ q
        xt = frame.conj().T @ m0_mat @ frame
        c, p, residual_norm = _torus_split(xt, torus)
    h = AlgebraElement(
        matrix=(q * (1j * p)) @ q.conj().T,
        coords=tuple(c.tolist()),
        residual_norm=residual_norm,
    )
    rel = _relative_commutator(xt, torus)
    if (
        rel <= CARTAN_TOL
        and residual_norm <= SUBSPACE_TOL
        and _cyclic_phase_mismatch(
            _wrapped_phases(p), _wrapped_phases(np.linalg.eigvalsh(-1j * m0_mat))
        )
        <= _SPECTRUM_TOL
    ):
        return k1, h, _subspace_error(xt, torus)
    raise OptimizerFailedError(
        f"closed-form solve left relative commutator {rel:.3e} "
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
    and h come from the closed-form Cartan solve of m. That solve is the
    level's theta_Z stage: inv is AxisInvolution(n, "Z") and cartan the
    H_n set in canonical order (build_kg_basis(n).h_set), the order of
    h.coords.

    Raises:
        ValueError: inv and cartan are not theta_Z and H_n in canonical
            order.
    """
    torus = cartan_torus("H", inv.n)
    if inv.axis != "Z" or tuple(word.label for word in cartan) != torus.labels:
        raise ValueError(
            f"the closed-form stage pairs theta_Z with H_{inv.n} in canonical order,"
            f" got theta_{inv.axis} with {len(cartan)} words"
        )
    return _theta_z_stage(g, inv, torus)


def _theta_z_stage(
    g: np.ndarray, inv_z: AxisInvolution, torus: CartanTorus
) -> StageResult:
    """The theta_Z stage G = k0 k1 exp(h) k1^dag against the H_n torus."""
    m = compute_m(g, inv_z)
    k0 = _maybe_repair(residual_k(g, m))
    return StageResult(k0, *_minimize_full(m, torus))


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


def _central_split(x: np.ndarray) -> Tuple[float, np.ndarray]:
    """(alpha, x - alpha z): the coordinate of x on the central word
    z = (i/2) I..IZ = (i/2) diag(s), s = (1, -1, 1, ...), and the rest.

    The projection coordinate Re tr(z^dag x) / ||z||^2 reduces to
    alpha = (2 / 2^n) s . Im diag(x).
    """
    s = np.resize([1.0, -1.0], len(x))
    alpha = float(s @ np.diagonal(x).imag) * (2.0 / len(x))
    rest = x.copy()
    rest.flat[:: len(x) + 1] -= (0.5j * alpha) * s
    return alpha, rest


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
    alpha, residual = _central_split(mat)
    defect = np.linalg.norm(residual)
    if defect > PATTERN_TOL * (1.0 + abs(alpha)):
        raise SubspaceViolationError(
            f"central-phase defect {defect:.3e} exceeds tolerance"
        )
    return expm_skew(mat[:2, :2], tol=max(DEFAULT_TOLS.structure * 2, 4.0 * defect))


def _cartan_factor(element: AlgebraElement, torus: CartanTorus) -> Factor:
    """Builds a CartanExp factor from a Cartan element of the torus's set."""
    return Factor(
        kind=FactorKind.CARTAN_EXP,
        level_qubits=int(torus.name[1:]),
        basis_name=torus.name,
        coeffs=tuple(zip(torus.labels, map(float, element.coords))),
        subspace_residual=element.residual_norm,
    )


def _secondary_stage(
    w: np.ndarray, n: int, inv_x: AxisInvolution
) -> Tuple[Tuple[Factor, ...], float, float, float]:
    """The theta_X stage on one K-type input w of level n.

    m = (1/2) log(theta_X(w^dag) w) lands in span(K_n1) + span(I..IZ); its
    K_n1 part m_hat, m minus its I..IZ part, is conjugated into F_n over
    exp(K_n0) as m_hat = T e^f T^dag, and the central remainder m - m_hat
    becomes the last-qubit factor Q. With k = w exp(-m), k T = e^{i phi} (S x I) and
    T = e^{i psi} (T' x I),

        w = e^{i(phi - psi)} (S x I) e^f (T'^dag x I) (I x Q).

    Returns the factors (S, e^f, T'^dag, Q), phi, psi and the F stage's
    subspace error.
    """
    inv_z = AxisInvolution(n, "Z")
    torus = cartan_torus("F", n)
    m = compute_m(w, inv_x, (inv_z,))
    k = _maybe_repair(residual_k(w, m))
    _, m_hat = _central_split(m.matrix)
    k1, f, subspace_error = _minimize_full(m_hat, torus)
    sub, phi = extract_subunitary(k @ k1, n)
    inner, psi = extract_subunitary(k1, n)
    last = extract_last_qubit(m.matrix - m_hat, n)
    factors = (
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=sub),
        _cartan_factor(f, torus),
        Factor(kind=FactorKind.SUB_UNITARY, level_qubits=n, matrix=inner.conj().T),
        Factor(kind=FactorKind.LAST_QUBIT, level_qubits=n, matrix=last),
    )
    return factors, phi, psi, subspace_error


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
    inv_x = AxisInvolution(n, "X")
    h_torus = cartan_torus("H", n)

    stage = _theta_z_stage(g, AxisInvolution(n, "Z"), h_torus)
    left, phi0, psi1, es0 = _secondary_stage(stage.k0 @ stage.k1, n, inv_x)
    right, phi2, psi2, es1 = _secondary_stage(stage.k1.conj().T, n, inv_x)

    factors = left + (_cartan_factor(stage.h, h_torus),) + right
    phase = phi0 + phi2 - psi1 - psi2
    subspace_errors = (
        (f"f0[F{n}]", es0),
        (f"h[H{n}]", stage.subspace_error),
        (f"f1[F{n}]", es1),
    )
    return LevelResult(factors, float(phase), subspace_errors)


def _recurse(g: np.ndarray, n: int, prefix: str) -> LevelResult:
    """Factors g in SU(2^n) down to its leaves, with labels under prefix.

    A two-qubit block is the one leaf: a SubUnitary at level 3 covering
    its whole register. Any larger block is split by decompose_one_level,
    and each of that level's SU(2^(n-1)) blocks recurses under the label
    prefix K<slot>/; child phases add into the level's phase.
    """
    if n == 2:
        leaf = Factor(kind=FactorKind.SUB_UNITARY, level_qubits=3, matrix=g)
        return LevelResult((leaf,), 0.0, ())
    level = decompose_one_level(g, n)
    factors = []
    phase = level.phase
    subspace_errors = [(prefix + label, v) for label, v in level.subspace_errors]
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
    return LevelResult(tuple(factors), phase, tuple(subspace_errors))


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
        OptimizerFailedError: a Cartan stage's closed-form solution failed
            its relative-commutator, projection or eigenphase check.
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
    )
    return replace(tree, report=report)
